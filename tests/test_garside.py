import functools
import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from braidshadow import garside
from braidshadow.factorization import expand, standard_factorization, validate
from braidshadow.garside import (
    NormalForm,
    _identity_perm,
    _inverse,
    _tau,
    _then,
    _transposition,
    _w0,
    _weight_pair,
    equal,
    normal_form,
)
from braidshadow.words import (
    BraidError,
    BraidWord,
    compose,
    free_reduce,
    full_twist,
    identity,
    invert,
)
from support import half_twist_word


def words(max_strands=5, max_len=24):
    return st.integers(2, max_strands).flatmap(
        lambda d: st.lists(
            st.integers(1, d - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        ).map(lambda ls: BraidWord(d, tuple(ls)))
    )


def _right_descent_mask(p):
    """mask[i] true iff sigma_{i+1} is a suffix of p."""
    q = _inverse(p)
    return [q[i] > q[i + 1] for i in range(len(p) - 1)]


def _slide_weight_pair(x, y):
    """Rewrite the product of permutation braids x y as a left-weighted pair.

    Slides prefix generators of y onto the tail of x while lengths still
    add; the result x' y' satisfies S(y') contained in F(x') and
    represents the same positive braid.  The reference that the library's
    one-scan ``_weight_pair`` is compared against.
    """
    xl = list(x)
    yl = list(y)
    moved = True
    while moved:
        moved = False
        fmask = _right_descent_mask(tuple(xl))
        for i in range(len(yl) - 1):
            if yl[i] > yl[i + 1] and not fmask[i]:
                # transfer sigma_{i+1}: append to x (swap values), strip from y (swap places)
                for k in range(len(xl)):
                    if xl[k] == i:
                        xl[k] = i + 1
                    elif xl[k] == i + 1:
                        xl[k] = i
                yl[i], yl[i + 1] = yl[i + 1], yl[i]
                moved = True
                break
    return tuple(xl), tuple(yl)


# The oracle memoizes the slide here, apart from the library's pair tables,
# so that each repeated pair costs one call.
_weigh = functools.cache(_slide_weight_pair)


def _normalize_factors(d, factors):
    ident = _identity_perm(d)
    w0 = _w0(d)
    out = [f for f in factors if f != ident]
    # Bubble passes until globally left-weighted; each pair fix is local.
    changed = True
    while changed:
        changed = False
        for j in range(len(out) - 1):
            x, y = _weigh(out[j], out[j + 1])
            if (x, y) != (out[j], out[j + 1]):
                out[j], out[j + 1] = x, y
                changed = True
        if changed:
            out = [f for f in out if f != ident]
    shift = 0
    while out and out[0] == w0:
        shift += 1
        out.pop(0)
    while out and out[-1] == ident:
        out.pop()
    return shift, tuple(out)


def _eager_normal_form(w):
    """Reference normal form: tau on every factor per inverse letter, then bubble
    passes.  It does no free reduction: every letter of w becomes a factor."""
    d = w.strands
    if d == 1:
        return NormalForm(0, ())
    p = 0
    factors = []
    w0 = _w0(d)
    for x in w.letters:
        if x > 0:
            factors.append(_transposition(d, x))
        else:
            i = -x
            # sigma_i^{-1} = Delta^{-1} r with r the permutation braid Delta sigma_i^{-1}
            p -= 1
            factors = [_tau(f) for f in factors]
            r = list(w0)
            for k in range(d):
                if r[k] == i - 1:
                    r[k] = i
                elif r[k] == i:
                    r[k] = i - 1
            factors.append(tuple(r))
    shift, tup = _normalize_factors(d, factors)
    return NormalForm(p + shift, tup)


def oracle_words(max_len=120):
    """Mixed, all-positive and all-inverse words, and powers of Delta^{+-1}, on 2..7 strands."""

    def for_strands(d):
        gens = st.integers(1, d - 1)
        mixed = st.lists(gens.flatmap(lambda i: st.sampled_from([i, -i])), max_size=max_len)
        positive = st.lists(gens, max_size=max_len)
        negative = st.lists(gens.map(lambda i: -i), max_size=max_len)
        half = half_twist_word(d).letters
        deltas = st.tuples(st.integers(0, max_len // len(half)), st.booleans()).map(
            lambda kv: list(half * kv[0]) if kv[1] else [-x for x in reversed(half * kv[0])]
        )
        return st.one_of(mixed, positive, negative, deltas).map(
            lambda ls: BraidWord(d, tuple(ls))
        )

    return st.integers(2, 7).flatmap(for_strands)


@given(oracle_words())
@settings(max_examples=300, deadline=None)
def test_normal_form_matches_eager_oracle(w):
    nf = normal_form(w)
    assert nf == _eager_normal_form(w)
    # normal_form pops identity and Delta factors; NormalForm does not check
    assert not {_identity_perm(w.strands), _w0(w.strands)} & set(nf.factors)


def _relators(d):
    """The braid relators of B_d, each a word equal to the identity."""
    rels = []
    for i in range(1, d):
        for j in range(i + 2, d):
            rels.append((i, j, -i, -j))
        if i + 1 < d:
            rels.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    return rels


def cancelling_words(max_len=40):
    """Words on 2..7 strands with nested x x^-1 pairs and conjugated relators
    u R u^-1 inserted, so that free reduction and the relators both have work."""

    def for_strands(d):
        letter = st.integers(1, d - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        chunk = st.lists(letter, max_size=6)
        nested = chunk.map(lambda u: tuple(u) + tuple(-x for x in reversed(u)))
        # B_2 has no relator; there the conjugated piece is a cancelling pair
        relator = st.tuples(chunk, st.sampled_from(_relators(d) or [(1, -1)])).map(
            lambda ur: tuple(ur[0]) + ur[1] + tuple(-x for x in reversed(ur[0]))
        )
        insertions = st.lists(st.tuples(st.integers(0, 10**6), st.one_of(nested, relator)),
                              max_size=5)

        def build(base, ins):
            ls = list(base)
            for pos, piece in ins:
                pos %= len(ls) + 1
                ls[pos:pos] = piece
            return BraidWord(d, tuple(ls))

        return st.builds(build, st.lists(letter, max_size=max_len), insertions)

    return st.integers(2, 7).flatmap(for_strands)


@given(cancelling_words())
@settings(max_examples=200, deadline=None)
def test_normal_form_of_cancelling_words_matches_eager_oracle(w):
    nf = normal_form(w)
    assert nf == _eager_normal_form(w)
    assert nf == normal_form(free_reduce(w))


def _length(p):
    """Number of crossings of a permutation braid: its inversions."""
    return sum(a > b for a, b in itertools.combinations(p, 2))


def _weight_pairs_to_check():
    """Every pair of permutation braids on 2..5 strands, then 100 seeded
    random pairs on each of 6..24 strands."""
    for d in range(2, 6):
        yield from itertools.product(itertools.permutations(range(d)), repeat=2)
    rng = random.Random(11)
    for d in range(6, 25):
        for _ in range(100):
            yield tuple(rng.sample(range(d), d)), tuple(rng.sample(range(d), d))


def test_weight_pair_matches_the_slide_and_the_definition():
    for x, y in _weight_pairs_to_check():
        got = _weight_pair(x, y)
        assert got == _slide_weight_pair(x, y), (x, y)
        xw, yw = got
        # same braid: the same permutation and lengths that still add
        assert _then(xw, yw) == _then(x, y)
        lx, ly = _length(xw), _length(yw)
        assert lx + ly == _length(x) + _length(y)
        # left-weighted: every sigma_i that shortens y' from the left also
        # shortens x' from the right
        for i in range(1, len(x)):
            t = _transposition(len(x), i)
            if _length(_then(t, yw)) < ly:
                assert _length(_then(xw, t)) < lx, (x, y, i)


def _counting_weight_pair(monkeypatch):
    calls = []
    weigh = garside._weight_pair

    def counted(x, y):
        calls.append((x, y))
        return weigh(x, y)

    monkeypatch.setattr(garside, "_weight_pair", counted)
    return calls


@st.composite
def _inverse_rich_products(draw):
    """Up to four words at d = 2..7, two letters in three inverse, each to be
    taken plain or inverted."""
    d = draw(st.integers(2, 7))
    letter = st.integers(1, d - 1).flatmap(lambda i: st.sampled_from([i, -i, -i]))
    word = st.lists(letter, max_size=16).map(lambda letters: BraidWord(d, tuple(letters)))
    return d, draw(st.lists(st.tuples(word, st.booleans()), max_size=4))


@given(_inverse_rich_products())
@seed(34)
@settings(max_examples=300, deadline=None)
def test_product_of_normal_forms_is_the_normal_form_of_the_words(case):
    """``_Table.product`` against the word path it replaces in the orbit BFS:
    write the words out, invert some, concatenate, and take the normal form."""
    d, parts = case
    forms = [normal_form(w) for w, _ in parts]
    table = garside._table(d)
    power, codes = table.product([(nf.delta_power, [table.code(x) for x in nf.factors], inverted)
                                  for nf, (_, inverted) in zip(forms, parts)])
    letters = tuple(x for w, inverted in parts for x in (invert(w) if inverted else w).letters)
    assert table.form(power, codes) == normal_form(BraidWord(d, letters))


def test_pair_table_is_rebuilt_past_its_bound(monkeypatch):
    bound = 40
    monkeypatch.setattr(garside, "_WEIGHT_PAIR_CACHE_SIZE", bound)
    monkeypatch.setattr(garside, "_tables", {})
    calls = _counting_weight_pair(monkeypatch)
    rng = random.Random(24)
    rebuilt = set()
    for _ in range(120):
        d = rng.randint(3, 6)
        w = BraidWord(d, tuple(rng.choice((1, -1)) * rng.randint(1, d - 1)
                               for _ in range(rng.randint(0, 30))))
        before = garside._tables.get(d)
        held = len(before.pairs) if before is not None else None
        weighed = len(calls)
        nf = normal_form(w)
        table = garside._tables[d]
        if before is not None:
            # rebuilt exactly when the table held more pairs than the bound
            assert (table is not before) == (held > bound)
            if table is not before:
                rebuilt.add(d)
        assert len(table.pairs) <= bound + len(calls) - weighed
        assert nf == _eager_normal_form(w)
    assert rebuilt == {4, 5, 6}


def test_each_pair_is_weighed_once_per_table(monkeypatch):
    calls = _counting_weight_pair(monkeypatch)
    f = standard_factorization(5)
    assert validate(f).valid
    assert len(calls) == len(set(calls))
    calls.clear()
    assert validate(f).valid
    assert calls == []


@pytest.mark.parametrize("d", range(2, 8))
def test_standard_factorization_normal_forms(d):
    product = expand(standard_factorization(d))
    assert normal_form(product) == NormalForm(2, ())
    assert normal_form(compose(product, invert(full_twist(d)))) == NormalForm(0, ())


def test_braid_relation():
    lhs = BraidWord(3, (1, 2, 1))
    rhs = BraidWord(3, (2, 1, 2))
    assert equal(lhs, rhs)


def test_far_commutation():
    assert equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))


def test_inequality():
    assert not equal(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert not equal(BraidWord(3, (1,)), identity(3))


def test_full_twist_normal_form_is_pure_delta_power():
    nf = normal_form(full_twist(3))
    assert nf == NormalForm(2, ())
    assert normal_form(full_twist(5)).delta_power == 2
    assert normal_form(full_twist(5)).factors == ()


def test_half_twist_squared_is_full_twist():
    for d in range(2, 6):
        sq = compose(half_twist_word(d), half_twist_word(d))
        assert equal(sq, full_twist(d))


def test_full_twist_is_central():
    # Delta^2 commutes with every generator
    for d in (3, 4):
        tw = full_twist(d)
        for i in range(1, d):
            g = BraidWord(d, (i,))
            assert equal(compose(tw, g), compose(g, tw))


def test_is_trivial():
    assert normal_form(identity(4)) == NormalForm(0, ())
    assert normal_form(BraidWord(3, (1, 2, -2, -1))) == NormalForm(0, ())
    assert normal_form(BraidWord(3, (1,))) != NormalForm(0, ())


def test_strand_mismatch_raises():
    with pytest.raises(BraidError):
        equal(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_single_strand_always_equal():
    assert equal(identity(1), identity(1))


def test_conjugation_shifts_generator():
    # delta sigma_j delta^{-1} = sigma_{j+1}
    for d in (3, 4, 5):
        delta = BraidWord(d, tuple(range(1, d)))
        for j in range(1, d - 1):
            lhs = compose(compose(delta, BraidWord(d, (j,))), invert(delta))
            assert equal(lhs, BraidWord(d, (j + 1,)))


def normal_form_word(nf: NormalForm, d: int) -> BraidWord:
    """Serialize a normal form on d strands back to a braid word (same group element)."""
    letters: list[int] = []
    half: list[int] = []
    for i in range(1, d):
        half.extend(range(i, 0, -1))
    if nf.delta_power >= 0:
        letters.extend(half * nf.delta_power)
    else:
        inv = [-x for x in reversed(half)]
        letters.extend(inv * (-nf.delta_power))
    for f in nf.factors:
        cur = list(f)
        while True:
            for i in range(d - 1):
                if cur[i] > cur[i + 1]:
                    letters.append(i + 1)
                    cur[i], cur[i + 1] = cur[i + 1], cur[i]
                    break
            else:
                break
    return BraidWord(d, tuple(letters))


@given(words())
@settings(max_examples=150, deadline=None)
def test_normal_form_word_round_trip(w):
    nf = normal_form(w)
    assert normal_form(normal_form_word(nf, w.strands)) == nf


@given(words())
@settings(max_examples=150, deadline=None)
def test_word_times_inverse_is_trivial(w):
    assert normal_form(compose(w, invert(w))) == NormalForm(0, ())


@given(words(), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_insertion_of_cancelling_pair_preserves_equality(w, pos):
    if not w.letters:
        return
    pos = pos % (len(w.letters) + 1)
    gen = abs(w.letters[0])
    padded = w.letters[:pos] + (gen, -gen) + w.letters[pos:]
    assert equal(w, BraidWord(w.strands, padded))
