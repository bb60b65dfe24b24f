import json
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from braidshadow import cli, factorization, garside
from braidshadow.cli import run_cli
from braidshadow.documents import serialize_factorization
from braidshadow.factorization import (
    MAX_EXPONENT,
    BandFactor,
    Factorization,
    expand,
    factorization_key,
    hurwitz_move,
    hurwitz_orbit,
    standard_factorization,
    validate,
)
from braidshadow.garside import equal, normal_form
from braidshadow.handles import words_equal
from braidshadow.words import (
    BraidError,
    BraidWord,
    compose,
    free_reduce,
    full_twist,
    identity,
    invert,
)
from support import (
    CUSP_3,
    FLIPPED_3,
    band,
    random_factorization,
    short_standard_factorization,
)
from test_diagram import _acceptance_corpus


def test_band_factor_word():
    g = BraidWord(3, (2,))
    f = BandFactor(g, exponent=2, sign=-1)
    assert f.word().letters == (2, -1, -1, -2)
    assert f.signed_exponent() == -2


def test_band_factor_validation():
    with pytest.raises(BraidError):
        BandFactor(identity(2), exponent=0)
    with pytest.raises(BraidError):
        BandFactor(identity(2), sign=2)
    with pytest.raises(BraidError):
        BandFactor(identity(1))


def test_a_band_too_large_to_expand_raises_braid_error():
    # a band above the bound cannot be made, whatever the exponent sum of
    # the factorization it would join
    for e in (factorization.MAX_EXPONENT + 1, 10**20):
        with pytest.raises(BraidError, match=f"^band exponent must be <= 1000000, got {e}$"):
            BandFactor(identity(2), e)
    top = BandFactor(identity(2), factorization.MAX_EXPONENT)
    assert len(top.word()) == factorization.MAX_EXPONENT


def test_factorization_rejects_strand_mismatch():
    with pytest.raises(BraidError):
        Factorization(3, (BandFactor(identity(2)),))


def test_factorization_rejects_no_strands():
    # library callers meet the constructor's check; documents refuse first
    with pytest.raises(BraidError, match="^strand count must be >= 1, got 0$"):
        Factorization(0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_standard_factorization_validates(d):
    f = standard_factorization(d)
    report = validate(f)
    assert report.valid
    assert report.factor_count == d * d - d
    assert report.exponent_total == d * (d - 1)
    assert report.smooth and f.all_positive()


def test_standard_factorization_needs_two_strands():
    with pytest.raises(BraidError):
        standard_factorization(1)


def test_validate_flags_bad_product():
    f = Factorization(2, (BandFactor(identity(2)),))
    report = validate(f)
    assert not report.valid and report.exponent_total == 1  # d(d-1) = 2 at d = 2


def _mutated(f, rng):
    """f after up to two random edits: a dropped band, a flipped sign, a
    bumped exponent or one more letter on a conjugator."""
    d, bands = f.strands, list(f.factors)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(bands))
        b = bands[i]
        kinds = ("drop", "flip", "bump", "extend") if len(bands) > 1 else ("flip", "bump", "extend")
        kind = rng.choice(kinds)
        if kind == "drop":
            del bands[i]
        elif kind == "flip":
            bands[i] = replace(b, sign=-b.sign)
        elif kind == "bump":
            bands[i] = replace(b, exponent=b.exponent + 1)
        else:
            letter = rng.choice((1, -1)) * rng.randint(1, d - 1)
            bands[i] = replace(b, conjugator=BraidWord(d, b.conjugator.letters + (letter,)))
    return Factorization(d, tuple(bands))


def test_valid_is_the_product_check_under_mutations():
    """``valid`` is the product check, decided again by handle reduction,
    which shares no code with the Garside normal form; a right product
    forces the exponent sum, and for smooth input the sum is the band count."""
    rng = random.Random(0xB0A7)
    seen = set()
    for _ in range(300):
        d = rng.randint(2, 4)
        walk = random_factorization(d, rng, moves=rng.randint(0, 6), max_conjugator_length=4)
        f = _mutated(walk, rng)
        report = validate(f)
        assert report.valid == words_equal(expand(f), full_twist(d))
        sum_ok = report.exponent_total == d * (d - 1)
        assert sum_ok or not report.valid
        # for smooth input the exponent sum is the band count
        assert not report.smooth or sum_ok == (len(f) == d * d - d)
        seen.add((report.valid, sum_ok, report.smooth))
    # every (valid, sum_ok, smooth) combination with valid implying sum_ok occurs
    assert len(seen) == 6


def test_singular_factor_cusp_is_valid_at_d2():
    f = Factorization(2, (BandFactor(identity(2), exponent=2),))
    report = validate(f)
    assert report.valid and not report.smooth


def test_cancelling_bands_at_the_exponent_bound_validate_in_linear_time():
    """s1^E and s1^-E with empty conjugators, E at the bound: free reduction
    cancels the two powers before the normal form sees them, so the word
    problem stays linear in E (well under a second)."""
    bands = (BandFactor(identity(3), MAX_EXPONENT), BandFactor(identity(3), MAX_EXPONENT, -1))
    f = standard_factorization(3)
    report = validate(Factorization(3, f.factors + bands))
    assert report.valid and report.exponent_total == 6 and not report.smooth


def test_hurwitz_move_preserves_product():
    rng = random.Random(99)
    f = standard_factorization(3)
    target = full_twist(3)
    for _ in range(50):
        i = rng.randint(1, len(f.factors) - 1)
        f = hurwitz_move(f, i, rng.choice(("left", "right")))
    assert equal(expand(f), target)


def test_hurwitz_moves_are_inverse():
    f = standard_factorization(3)
    for i in (1, 3, 5):
        back = hurwitz_move(hurwitz_move(f, i, "right"), i, "left")
        assert factorization_key(back) == factorization_key(f)
        back = hurwitz_move(hurwitz_move(f, i, "left"), i, "right")
        assert factorization_key(back) == factorization_key(f)


def test_hurwitz_move_index_errors():
    f = standard_factorization(2)
    with pytest.raises(IndexError):
        hurwitz_move(f, 2)
    with pytest.raises(ValueError):
        hurwitz_move(f, 1, "sideways")


def test_orbit_of_standard_d2_is_singleton():
    orbit = hurwitz_orbit(standard_factorization(2), 100)
    assert orbit.size == 1 and not orbit.truncated


def test_orbit_enumeration_is_deterministic():
    f = standard_factorization(3)
    runs = [hurwitz_orbit(f, 40) for _ in range(3)]
    keys = [tuple(factorization_key(e) for e in r.elements) for r in runs]
    assert keys[0] == keys[1] == keys[2]
    assert runs[0].truncated  # the d=3 orbit does not close within 40 nodes


def test_orbit_keys_are_the_elements_keys():
    orbit = hurwitz_orbit(standard_factorization(3), 40)
    assert orbit.keys == tuple(factorization_key(e) for e in orbit.elements)


def _reference_orbit(f, bound):
    """The orbit BFS keying every child with factorization_key: its
    (elements, keys, truncated)."""
    seen = {factorization_key(f): f}
    queue = deque([f])
    truncated = False
    while queue:
        node = queue.popleft()
        for i in range(1, len(node.factors)):
            for direction in ("right", "left"):
                nxt = hurwitz_move(node, i, direction)
                key = factorization_key(nxt)
                if key in seen:
                    continue
                if len(seen) >= bound:
                    truncated = True
                    queue.clear()
                    break
                seen[key] = nxt
                queue.append(nxt)
            if truncated:
                break
    keys = tuple(sorted(seen))
    return tuple(seen[key] for key in keys), keys, truncated


def _reference_word(band):
    """g s1^(sign*exponent) g^-1 through compose and invert."""
    core = BraidWord(band.strands, (band.sign,) * band.exponent)
    return compose(compose(band.conjugator, core), invert(band.conjugator))


def _reference_expand(f):
    """The bands' words composed one at a time."""
    out = identity(f.strands)
    for band in f.factors:
        out = compose(out, _reference_word(band))
    return out


def _reference_hurwitz_move(f, i, direction):
    """The Hurwitz move with each conjugator composed and then free-reduced."""
    a, b = f.factors[i - 1], f.factors[i]
    if direction == "right":
        new_conj = free_reduce(compose(_reference_word(a), b.conjugator))
        pair = (BandFactor(new_conj, b.exponent, b.sign), a)
    else:
        new_conj = free_reduce(compose(invert(_reference_word(b)), a.conjugator))
        pair = (b, BandFactor(new_conj, a.exponent, a.sign))
    return Factorization(f.strands, f.factors[: i - 1] + pair + f.factors[i + 1 :])


@st.composite
def _factorizations(draw):
    """Band lists at d = 2..5, any conjugators, exponents 1..3, both signs;
    the moves and expand never need the product to be the full twist."""
    d = draw(st.integers(2, 5))
    letter = st.integers(1, d - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    band = st.builds(
        lambda g, e, sign: BandFactor(BraidWord(d, tuple(g)), e, sign),
        st.lists(letter, max_size=6), st.integers(1, 3), st.sampled_from([1, -1]),
    )
    return Factorization(d, tuple(draw(st.lists(band, min_size=2, max_size=6))))


_CUBED_NEGATIVE = BandFactor(BraidWord(3, (2, -1)), 3, -1)


@given(_factorizations())
@example(Factorization(3, (_CUBED_NEGATIVE, BandFactor(BraidWord(3, (1,)), 2), _CUBED_NEGATIVE)))
@settings(max_examples=200, deadline=None)
def test_moves_and_expand_agree_with_composed_oracles(f):
    assert expand(f) == _reference_expand(f)
    for band in f.factors:
        assert band.word() == _reference_word(band)
    for i in range(1, len(f)):
        for direction in ("right", "left"):
            assert hurwitz_move(f, i, direction) == _reference_hurwitz_move(f, i, direction)


def _paired(f, at, conjugator, exponent):
    """f with g s1^e g^-1, g s1^-e g^-1 inserted before factor ``at``."""
    pair = (band(f.strands, conjugator, exponent), band(f.strands, conjugator, exponent, -1))
    return Factorization(f.strands, f.factors[:at] + pair + f.factors[at:])


_FLIPPED_2 = Factorization(2, (band(2, (), 3), band(2, (), 1, -1)))  # orbit of two
_PAIRED_4 = _paired(random_factorization(4, random.Random(13), moves=10, max_conjugator_length=4),
                    5, (3, 2), 2)
_NON_SMOOTH_STARTS = [
    _FLIPPED_2,
    CUSP_3,
    FLIPPED_3,
    _paired(standard_factorization(3), 2, (2,), 1),
    _paired(CUSP_3, 1, (2, -1), 3),
    _PAIRED_4,
]


@pytest.mark.parametrize("start", _NON_SMOOTH_STARTS)
def test_non_smooth_starts_multiply_to_the_full_twist(start):
    report = validate(start)
    d = start.strands
    assert report.valid and report.exponent_total == d * (d - 1) and not report.smooth


@pytest.mark.parametrize(
    "start, bound",
    [
        (standard_factorization(2), 100),
        (standard_factorization(3), 200),
        (random_factorization(4, random.Random(11), moves=10, max_conjugator_length=4), 40),
        (random_factorization(4, random.Random(12), moves=10, max_conjugator_length=4), 40),
        *((start, 100) for start in _NON_SMOOTH_STARTS),
        # every budget, so that truncation falls both on a move whose moved
        # key was known and on one keyed afresh
        *((FLIPPED_3, bound) for bound in range(1, 61)),
    ],
)
def test_orbit_matches_reference_bfs(start, bound):
    orbit = hurwitz_orbit(start, bound)
    assert (orbit.elements, orbit.keys, orbit.truncated) == _reference_orbit(start, bound)


def _adjacent_triples(keys):
    return {(direction, key[i - 1], key[i])
            for key in keys for i in range(1, len(key)) for direction in ("right", "left")}


@pytest.mark.parametrize("start, bound", [
    (standard_factorization(2), 10),
    (_FLIPPED_2, 10),
    (standard_factorization(3), 300),
    (CUSP_3, 100),
    (FLIPPED_3, 100),
    (_PAIRED_4, 60),
])
def test_orbit_keys_each_distinct_band_move_once(monkeypatch, start, bound):
    # the moved band's key depends only on the direction and the two keys,
    # so each distinct triple is one product of normal forms
    calls = []
    product = garside._Table.product
    monkeypatch.setattr(garside._Table, "product",
                        lambda table, parts: calls.append(parts) or product(table, parts))
    orbit = hurwitz_orbit(start, bound)
    # every triple met belongs to some node of the orbit; without truncation
    # every node's triples are met
    bound_calls = len(_adjacent_triples(orbit.keys))
    assert len(calls) <= bound_calls
    if not orbit.truncated:
        assert len(calls) == bound_calls


def test_each_memo_entry_is_the_key_of_the_band_a_move_writes_out(monkeypatch):
    """The word path as the oracle: each product of normal forms the BFS
    keys a moved band by equals the normal form of the word of the band
    that ``_moved_band`` writes out from representatives of the two keys."""
    entries = []
    product = garside._Table.product

    def recording(table, parts):
        power, codes = product(table, parts)
        spelled = [((p, tuple(table.perms[c] for c in xs)), inverted) for p, xs, inverted in parts]
        entries.append((spelled, (power, tuple(table.perms[c] for c in codes))))
        return power, codes

    monkeypatch.setattr(garside._Table, "product", recording)
    checked = 0
    for f in _acceptance_corpus():
        entries.clear()
        orbit = hurwitz_orbit(f, 30)
        representative = {}
        for element in orbit.elements:
            for factor, key in zip(element.factors, factorization_key(element)):
                representative.setdefault(key, factor)
        for ((x, inverted), (y, _), _), moved in entries:
            # a b a^-1 for the right move, b^-1 a b for the left
            a, b, direction = (y, x, "left") if inverted else (x, y, "right")
            written = factorization._moved_band(representative[a], representative[b], direction)
            nf = normal_form(written.word())
            assert (nf.delta_power, nf.factors) == moved
            checked += 1
    assert checked == 1683  # memo misses over the 103 orbits


def test_standard_3_orbit_normal_form_count_is_pinned(monkeypatch):
    calls = []
    nf = factorization.normal_form
    monkeypatch.setattr(factorization, "normal_form", lambda word: calls.append(word) or nf(word))
    orbit = hurwitz_orbit(standard_factorization(3), 300)
    assert orbit.size == 300 and orbit.truncated
    # the start's six bands only: 78 when each moved band was written out
    # and keyed, 1,693 when every move was
    assert len(calls) == 6


def _count_moves(monkeypatch):
    calls = []
    move = factorization.hurwitz_move
    monkeypatch.setattr(factorization, "hurwitz_move",
                        lambda *args: calls.append(args) or move(*args))
    return calls


@pytest.mark.parametrize("start, bound", [
    (standard_factorization(3), 300),
    (FLIPPED_3, 100),
    (_PAIRED_4, 60),
])
def test_orbit_builds_witnesses_only_when_elements_are_read(monkeypatch, start, bound):
    calls = _count_moves(monkeypatch)
    orbit = hurwitz_orbit(start, bound)
    assert orbit.size == len(orbit.keys) and orbit.truncated in (True, False)
    assert not calls
    elements = orbit.elements
    # every node but the start is one move from its parent's witness
    assert len(calls) == orbit.size - 1 == len(elements) - 1
    assert orbit.elements is elements and len(calls) == orbit.size - 1


@pytest.mark.parametrize("start, bound", [
    (standard_factorization(3), 300),
    (FLIPPED_3, 100),
    (_PAIRED_4, 60),
])
def test_orbit_spells_out_node_keys_only_when_read(monkeypatch, capsys, tmp_path, start, bound):
    orbit = hurwitz_orbit(start, bound)
    assert "keys" not in vars(orbit)
    made = []
    monkeypatch.setattr(cli, "hurwitz_orbit", lambda *args: made.append(hurwitz_orbit(*args)) or made[-1])
    path = tmp_path / "start.json"
    path.write_text(serialize_factorization(start))
    assert run_cli(["orbit", str(path), "--budget", str(bound), "--json"]) == 0
    texts = json.loads(capsys.readouterr().out)["keys"]
    # the orbit verb writes every node's text without spelling out its key
    assert "keys" not in vars(made[0])
    keys = orbit.keys
    assert keys == _reference_orbit(start, bound)[1] and orbit.keys is keys
    assert texts == [repr(key) for key in keys]


def test_orbit_verb_builds_no_witness(monkeypatch, capsys):
    calls = _count_moves(monkeypatch)
    assert run_cli(["orbit", "--standard", "3", "--budget", "300", "--json"]) == 0
    assert '"size": 300' in capsys.readouterr().out and not calls


def test_orbit_budget_validation():
    with pytest.raises(ValueError):
        hurwitz_orbit(standard_factorization(2), 0)


def test_random_factorization_is_valid_with_short_conjugators():
    rng = random.Random(5)
    for _ in range(5):
        f = random_factorization(3, rng, moves=8, max_conjugator_length=4)
        assert validate(f).valid
        assert all(len(g.conjugator) <= 4 for g in f.factors)


@pytest.mark.parametrize("d", range(2, 11))
def test_short_standard_factorization_has_the_standard_bands(d):
    short = short_standard_factorization(d)
    assert factorization_key(short) == factorization_key(standard_factorization(d))
    assert max(len(factor.conjugator) for factor in short.factors) == 2 * (d - 2)
