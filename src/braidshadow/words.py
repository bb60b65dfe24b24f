"""Words in the Artin generators of the braid group B_d.

A word is a flat sequence of nonzero signed integers: the letter ``i > 0``
is the Artin generator sigma_i, the letter ``-i`` is its inverse.  No
reduction ever happens implicitly; use :func:`free_reduce` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class BraidError(ValueError):
    """Raised for malformed braid data (bad strand counts, bad letters)."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_d (d = ``strands``)."""

    strands: int
    letters: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidError(f"strand count must be >= 1, got {self.strands}")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        top = self.strands - 1
        # one pass each in C; the loop only names the first bad letter
        if letters and (min(letters) < -top or max(letters) > top or 0 in letters):
            bad = next(x for x in letters if x == 0 or abs(x) > top)
            raise BraidError(f"letter {bad} out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)


def identity(strands: int) -> BraidWord:
    return BraidWord(strands, ())


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenate two words.  No simplification is performed."""
    if a.strands != b.strands:
        raise BraidError(
            f"strand count mismatch: {a.strands} vs {b.strands}"
        )
    return BraidWord(a.strands, a.letters + b.letters)


def invert(w: BraidWord) -> BraidWord:
    """Reverse the word and negate every letter."""
    return BraidWord(w.strands, tuple(-x for x in reversed(w.letters)))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain (same group element)."""
    stack: list[int] = []
    for x in w.letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return BraidWord(w.strands, tuple(stack))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; a braid-group invariant."""
    return sum(1 if x > 0 else -1 for x in w.letters)


def full_twist(d: int) -> BraidWord:
    """The full twist Delta_d^2 as the positive word (s1 s2 ... s_{d-1})^d.

    For d = 1 this is the empty word.  The word is positive, of length
    d(d-1), and its underlying permutation is the identity.
    """
    return BraidWord(d, tuple(range(1, d)) * d)
