"""Left-greedy Garside normal form and the word problem in B_d.

A braid is written Delta^p x_1 ... x_k where Delta is the positive half
twist and each x_j is a permutation braid (a positive braid in which any
two strands cross at most once).  Permutation braids are stored as
permutation tuples, 0-indexed: x[i] is the exit position of the strand
entering at position i.  Two words represent the same element of B_d if
and only if their normal forms coincide, which gives the equality test.

Each strand count has one ``_Table`` of int codes for its permutation
braids, numbered on first sight, with a memo of left-weighted code pairs.
``_Table.word`` takes a word to (Delta power, codes), first cancelling
adjacent inverse letters with a loop of its own (not ``words.free_reduce``:
handle reduction uses that, and the two solvers share no code), and
``_Table.form`` takes codes back to a ``NormalForm``.
Pairs are weighed in one scan of generator moves (``_weight_pair``): a
left-weighted pair is unique (El-Rifai and Morton, 1994), whatever the order.
A table also left-weights a product of normal forms given as codes, some of
them inverted (``_Table.product``), with no word in between.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .words import BraidError, BraidWord

Perm = tuple[int, ...]


def _identity_perm(d: int) -> Perm:
    return tuple(range(d))


def _w0(d: int) -> Perm:
    """Permutation of the half twist Delta."""
    return tuple(range(d - 1, -1, -1))


def _transposition(d: int, i: int) -> Perm:
    """Permutation of sigma_i (1-indexed generator)."""
    p = list(range(d))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _then(a: Perm, b: Perm) -> Perm:
    """Composite 'apply a, then b'."""
    return tuple(b[a[i]] for i in range(len(a)))


def _inverse(p: Perm) -> Perm:
    q = [0] * len(p)
    for i, j in enumerate(p):
        q[j] = i
    return tuple(q)


def _tau(p: Perm) -> Perm:
    """Conjugation by Delta: tau(p) = w0 p w0 (an involution)."""
    w0 = _w0(len(p))
    return _then(_then(w0, p), w0)


def _weight_pair(x: Perm, y: Perm) -> tuple[Perm, Perm]:
    """Left-weighted pair x' y' of the product of permutation braids x y.

    sigma_{i+1} starts y if y[i] > y[i+1] and ends x if q[i] > q[i+1], q = x^-1.
    Moving one from y to x swaps both pairs, so the scan steps back one place.
    """
    q = list(_inverse(x))
    yl = list(y)
    i, last = 0, len(yl) - 1
    while i < last:
        if yl[i] > yl[i + 1] and q[i] < q[i + 1]:
            q[i], q[i + 1] = q[i + 1], q[i]
            yl[i], yl[i + 1] = yl[i + 1], yl[i]
            i = i - 1 if i else 0
        else:
            i += 1
    return _inverse(tuple(q)), tuple(yl)


# A strand count's table is rebuilt, at the start of a call, once it holds
# more pairs than this; unbounded it grows towards (d!)^2 pairs in a
# long-lived process.  One pass of the word_problem benchmark (d <= 7)
# weighs 8,003 to 8,148 distinct pairs (seeds 1 to 3).
_WEIGHT_PAIR_CACHE_SIZE = 1 << 16


class _Table:
    """The permutation braids of one strand count, numbered on first sight.

    ``perms[c]`` is the permutation of code ``c``, ``pairs`` maps a code
    pair to its left-weighted pair, ``taus`` and ``flips`` map a code to
    those of its factor's tau image and of Delta times its inverse, and
    ``letters[x]`` holds the codes of letter x's simple factor and of that
    factor's tau image: sigma_i is its transposition, sigma_i^{-1} =
    Delta^{-1} r with r the permutation braid Delta sigma_i^{-1}.
    """

    def __init__(self, d: int) -> None:
        self.perms: list[Perm] = []
        self.codes: dict[Perm, int] = {}
        self.pairs: dict[tuple[int, int], tuple[int, int]] = {}
        self.taus: dict[int, int] = {}
        self.flips: dict[int, int] = {}
        self.ident = self.code(_identity_perm(d))
        self.w0 = self.code(_w0(d))
        self.letters: dict[int, tuple[int, int]] = {}
        for i in range(1, d):
            t = self.code(_transposition(d, i))
            r = self.flip(t)
            self.letters[i] = (t, self.tau(t))
            self.letters[-i] = (r, self.tau(r))

    def code(self, p: Perm) -> int:
        c = self.codes.get(p)
        if c is None:
            c = self.codes[p] = len(self.perms)
            self.perms.append(p)
        return c

    def word(self, letters: Iterable[int]) -> tuple[int, tuple[int, ...]]:
        """Normal form (Delta power, codes) of a word, inverse pairs cancelled
        first.  Moving each Delta^{-1} to the front taus every factor before
        it, so a letter's factor is tau'd once per inverse letter after it."""
        reduced: list[int] = []
        for x in letters:
            if reduced and reduced[-1] == -x:
                reduced.pop()
            else:
                reduced.append(x)
        factor = self.letters
        later_inverses = sum(1 for x in reduced if x < 0)
        p = -later_inverses
        codes: list[int] = []
        for x in reduced:
            if x < 0:
                later_inverses -= 1
            codes.append(factor[x][later_inverses & 1])
        return self.left_weight(p, codes)

    def form(self, power: int, codes: Iterable[int]) -> NormalForm:
        """The ``NormalForm`` Delta^power times the simple factors ``codes``."""
        return NormalForm(power, tuple(self.perms[c] for c in codes))

    def weigh(self, a: int, b: int) -> tuple[int, int]:
        """Left-weighted pair of codes a b; called on a miss of ``pairs``, fills it."""
        x, y = _weight_pair(self.perms[a], self.perms[b])
        pair = self.pairs[a, b] = (self.code(x), self.code(y))
        return pair

    def left_weight(self, power: int, codes: Iterable[int]) -> tuple[int, tuple[int, ...]]:
        """Normal form (Delta power, codes) of Delta^power times the simple factors ``codes``.

        Kept left-weighted after every factor: right-multiplying by a simple
        factor only re-weights pairs leftwards until one is already weighted.
        c is the factor at out[j], the right one of the next pair to weigh.
        """
        pairs, weigh, ident, w0 = self.pairs, self.weigh, self.ident, self.w0
        out: list[int] = []
        for c in codes:
            out.append(c)
            j = len(out) - 1
            while j:
                a = out[j - 1]
                left, right = pairs.get((a, c)) or weigh(a, c)
                if left == a:
                    break
                out[j] = right
                j -= 1
                out[j] = c = left
            while out and out[-1] == ident:
                out.pop()
            while out and out[0] == w0:
                power += 1
                out.pop(0)
        return power, tuple(out)

    def product(
        self, parts: Iterable[tuple[int, Sequence[int], bool]]
    ) -> tuple[int, tuple[int, ...]]:
        """Normal form of a product of normal forms (Delta power, codes): a
        part (p, codes, inverted) is Delta^p x_1 ... x_k or, inverted,
        x_k^-1 ... x_1^-1 Delta^-p, where x^-1 = Delta^-1 (Delta x^-1) and
        Delta x^-1 is simple.  Moving each Delta to the front taus every
        factor before it."""
        factors, power = [], 0  # (Delta power before the factor, its code)
        for p, codes, inverted in parts:
            if inverted:
                for c in reversed(codes):
                    power -= 1
                    factors.append((power, self.flip(c)))
                power -= p
            else:
                power += p
                factors += ((power, c) for c in codes)
        return self.left_weight(power, [self.tau(c) if (power - q) & 1 else c for q, c in factors])

    def tau(self, c: int) -> int:
        if c not in self.taus:
            self.taus[c] = self.code(_tau(self.perms[c]))
        return self.taus[c]

    def flip(self, c: int) -> int:
        """Code of Delta x^-1, x the permutation braid of code c."""
        if c not in self.flips:
            self.flips[c] = self.code(_then(self.perms[self.w0], _inverse(self.perms[c])))
        return self.flips[c]


_tables: dict[int, _Table] = {}


def _table(d: int) -> _Table:
    """The table of strand count d, rebuilt once it holds more than
    ``_WEIGHT_PAIR_CACHE_SIZE`` pairs: codes of a dropped table are meaningless."""
    table = _tables.get(d)
    if table is None or len(table.pairs) > _WEIGHT_PAIR_CACHE_SIZE:
        table = _tables[d] = _Table(d)
    return table


class NormalForm(NamedTuple):
    """Left-greedy Garside normal form Delta^delta_power x_1 ... x_k on the
    caller's strand count: a plain record, and the orbit's band key."""

    delta_power: int
    factors: tuple[Perm, ...]


def normal_form(w: BraidWord) -> NormalForm:
    """Canonical form of a word: on one strand count, equal forms <=> equal braids."""
    table = _table(w.strands)
    return table.form(*table.word(w.letters))


def equal(a: BraidWord, b: BraidWord) -> bool:
    """True iff a and b represent the same element of B_d."""
    if a.strands != b.strands:
        raise BraidError(
            f"strand count mismatch: {a.strands} vs {b.strands}"
        )
    return normal_form(a) == normal_form(b)
