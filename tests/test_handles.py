import random

from hypothesis import given, settings, strategies as st

from braidshadow import garside
from braidshadow.handles import _MAX_STEPS, handle_reduce, words_equal
from braidshadow.words import BraidWord, compose, free_reduce, full_twist, identity, invert


# -- reference: the rescanning reducer that handle_reduce replaced ---------------


def _find_leftmost_handle(letters: list[int]) -> tuple[int, int] | None:
    """Return (p, q) bounding the handle with the smallest closing index q."""
    # last[i] = position of the most recent letter of index i+1
    last: dict[int, int] = {}
    for q, x in enumerate(letters):
        i = abs(x)
        p = last.get(i)
        if p is not None and letters[p] == -x:
            # nearest index-i letter has opposite sign; the span is free of
            # index i by construction, check it is free of index i-1
            if all(abs(letters[t]) != i - 1 for t in range(p + 1, q)):
                return p, q
        last[i] = q
    return None


def _reference_handle_reduce(w: BraidWord, max_steps: int = _MAX_STEPS) -> BraidWord:
    """Reduce until no handle remains; the result is freely reduced too."""
    word = free_reduce(w)
    letters = list(word.letters)
    for _ in range(max_steps):
        found = _find_leftmost_handle(letters)
        if found is None:
            return BraidWord(w.strands, tuple(letters))
        p, q = found
        e = 1 if letters[p] > 0 else -1
        i = abs(letters[p])
        replacement: list[int] = []
        for t in letters[p + 1 : q]:
            if abs(t) == i + 1:
                s = 1 if t > 0 else -1
                replacement.extend([-e * (i + 1), s * i, e * (i + 1)])
            else:
                replacement.append(t)
        letters[p : q + 1] = replacement
        letters = list(free_reduce(BraidWord(w.strands, tuple(letters))).letters)
    raise RuntimeError("handle reduction did not terminate within step budget")


def _relator(draw, d: int) -> list[int]:
    """A word equal to the identity, conjugated by a letter so it does not
    cancel freely: a braid relator, a commutation relator or x x^-1."""
    letter = st.integers(1, d - 1)
    kinds = ["free"] + ["braid"] * (d >= 3) + ["commute"] * (d >= 4)
    kind = draw(st.sampled_from(kinds))
    if kind == "braid":
        i = draw(st.integers(1, d - 2))
        rel = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    elif kind == "commute":
        i = draw(st.integers(1, d - 3))
        j = draw(st.integers(i + 2, d - 1))
        rel = [i, j, -i, -j]
    else:
        i = draw(letter)
        rel = [i, -i]
    if draw(st.booleans()):
        rel = [-x for x in reversed(rel)]
    c = draw(letter) * draw(st.sampled_from([1, -1]))
    return [c, *rel, -c]


@st.composite
def oracle_words(draw, max_len: int = 300) -> BraidWord:
    """Mixed, inverse-rich, or relator-spliced words of up to max_len letters."""
    d = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["mixed", "inverse_rich", "relators"]))
    signs = [1, -1] if kind != "inverse_rich" else [1, -1, -1, -1]
    base = max_len if kind != "relators" else max_len * 2 // 3
    size = draw(st.integers(0, base))  # uniform, so long words are common
    letters = draw(
        st.lists(
            st.tuples(st.sampled_from(signs), st.integers(1, d - 1)).map(
                lambda t: t[0] * t[1]
            ),
            min_size=size,
            max_size=size,
        )
    )
    if kind == "relators":
        for _ in range(draw(st.integers(0, (max_len - base) // 8))):
            at = draw(st.integers(0, len(letters)))
            letters[at:at] = _relator(draw, d)
    return BraidWord(d, tuple(letters))


def _outcome(reduce, w: BraidWord, max_steps: int = _MAX_STEPS):
    try:
        return reduce(w, max_steps).letters
    except RuntimeError:
        return RuntimeError


@given(oracle_words())
@settings(max_examples=120, deadline=None)
def test_agrees_with_the_rescanning_reference(w):
    assert handle_reduce(w).letters == _reference_handle_reduce(w).letters


@given(oracle_words(max_len=120))
@settings(max_examples=100, deadline=None)
def test_step_budget_raises_where_the_reference_does(w):
    for max_steps in (0, 1, 2, 5):
        want = _outcome(_reference_handle_reduce, w, max_steps)
        assert _outcome(handle_reduce, w, max_steps) == want


def test_step_budget_edges():
    # the budget is spent before checking whether the word is reduced
    for reduce in (handle_reduce, _reference_handle_reduce):
        assert _outcome(reduce, identity(3), 0) is RuntimeError
        assert _outcome(reduce, identity(3), 1) == ()
        one_handle = BraidWord(4, (1, 3, -1))
        assert _outcome(reduce, one_handle, 1) is RuntimeError
        assert _outcome(reduce, one_handle, 2) == (3,)


@given(oracle_words())
@settings(max_examples=60, deadline=None)
def test_result_is_freely_reduced_and_handle_free(w):
    r = handle_reduce(w)
    assert free_reduce(r) == r
    assert _find_leftmost_handle(list(r.letters)) is None


# -- examples and the Garside cross-check ----------------------------------------


def test_reduces_simple_handle():
    # sigma_1 sigma_3 sigma_1^{-1} has a handle around sigma_3
    w = BraidWord(4, (1, 3, -1))
    assert handle_reduce(w).letters == (3,)


def test_braid_relator_is_trivial():
    w = BraidWord(3, (1, 2, 1, -2, -1, -2))
    assert not handle_reduce(w).letters


def test_generator_is_not_trivial():
    assert handle_reduce(BraidWord(3, (1,))).letters
    assert handle_reduce(BraidWord(5, (-4,))).letters


def test_full_twist_times_inverse_is_trivial():
    for d in (2, 3, 4):
        tw = full_twist(d)
        assert not handle_reduce(compose(tw, invert(tw))).letters
        assert handle_reduce(tw).letters


def test_words_equal_examples():
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert words_equal(identity(2), BraidWord(2, (1, -1)))


def _random_word(rng, d, n):
    return BraidWord(
        d, tuple(rng.choice((1, -1)) * rng.randint(1, d - 1) for _ in range(n))
    )


def test_agrees_with_garside_on_random_sample():
    rng = random.Random(20240814)
    for _ in range(300):
        d = rng.randint(2, 5)
        a = _random_word(rng, d, rng.randint(0, 20))
        b = _random_word(rng, d, rng.randint(0, 20))
        assert words_equal(a, b) == garside.equal(a, b)


@given(
    st.integers(2, 7).flatmap(
        lambda d: st.lists(
            st.integers(1, d - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=80,
        ).map(lambda ls: BraidWord(d, tuple(ls)))
    )
)
@settings(max_examples=120, deadline=None)
def test_reduction_preserves_the_braid(w):
    assert garside.equal(handle_reduce(w), w)
