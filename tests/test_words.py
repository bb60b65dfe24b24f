import pytest
from hypothesis import given, strategies as st

from braidshadow.words import (
    BraidError,
    BraidWord,
    compose,
    exponent_sum,
    free_reduce,
    full_twist,
    identity,
    invert,
)
from support import half_twist_word


def words(max_strands=6, max_len=30):
    return st.integers(2, max_strands).flatmap(
        lambda d: st.lists(
            st.integers(1, d - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        ).map(lambda ls: BraidWord(d, tuple(ls)))
    )


def test_letter_validation():
    BraidWord(3, (1, 2, -1, -2))
    with pytest.raises(BraidError):
        BraidWord(3, (3,))
    with pytest.raises(BraidError):
        BraidWord(2, (0,))
    with pytest.raises(BraidError):
        BraidWord(0, ())
    # the range check names the first bad letter, however far in
    with pytest.raises(BraidError, match=r"^letter 5 out of range for 3 strands$"):
        BraidWord(3, (1,) * 1000 + (5, 0))


def test_compose_and_strand_mismatch():
    w = compose(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert w.letters == (1, 2)
    with pytest.raises(BraidError):
        compose(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_invert_reverses_and_negates():
    w = BraidWord(4, (1, -2, 3))
    assert invert(w).letters == (-3, 2, -1)


def test_free_reduce_examples():
    assert free_reduce(BraidWord(3, (1, -1))).letters == ()
    assert free_reduce(BraidWord(3, (1, 2, -2, -1))).letters == ()
    assert free_reduce(BraidWord(3, (1, 2, -1))).letters == (1, 2, -1)


def underlying_permutation(w: BraidWord) -> tuple[int, ...]:
    """Image of w in the symmetric group, 0-indexed.

    Returns a tuple p with p[i] = exit position of the strand entering at
    position i (positions 0..d-1; sigma_i maps to the transposition of
    positions i-1, i).
    """
    d = w.strands
    cur = list(range(d))  # cur[pos] = strand occupying pos
    for x in w.letters:
        i = abs(x) - 1
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    perm = [0] * d
    for pos, strand in enumerate(cur):
        perm[strand] = pos
    return tuple(perm)


def test_underlying_permutation():
    # sigma_1 swaps positions 0,1
    assert underlying_permutation(BraidWord(3, (1,))) == (1, 0, 2)
    assert underlying_permutation(BraidWord(3, (1, 2))) == (2, 0, 1)
    assert underlying_permutation(identity(4)) == (0, 1, 2, 3)


@pytest.mark.parametrize("d", range(1, 7))
def test_full_twist_is_positive_pure_of_right_length(d):
    w = full_twist(d)
    assert all(x > 0 for x in w.letters)
    assert len(w) == d * (d - 1)
    assert exponent_sum(w) == d * (d - 1)
    assert underlying_permutation(w) == tuple(range(d))


def test_full_twist_d3_matches_classical_word():
    assert full_twist(3).letters == (1, 2, 1, 2, 1, 2)


def test_half_twist_word_shape():
    assert half_twist_word(3).letters == (1, 2, 1)
    assert underlying_permutation(half_twist_word(4)) == (3, 2, 1, 0)


@given(words())
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(words())
def test_invert_is_involution(w):
    assert invert(invert(w)) == w


@given(words(), words())
def test_exponent_sum_additive(a, b):
    if a.strands != b.strands:
        return
    assert exponent_sum(compose(a, b)) == exponent_sum(a) + exponent_sum(b)


@given(words())
def test_word_times_inverse_freely_reduces_to_identity(w):
    assert free_reduce(compose(w, invert(w))).letters == ()
