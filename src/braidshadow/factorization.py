"""Band factorizations of the full twist and the Hurwitz action on them.

A band factor is a conjugate g sigma_1^{ek} g^{-1}; a factorization is an
ordered product of band factors whose target is the full twist Delta_d^2.
Hurwitz moves rewrite adjacent factor pairs without changing the product:
the right move sends (a, b) to (a b a^{-1}, a), the left move is its
inverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .garside import equal, normal_form
from .words import BraidError, BraidWord, free_reduce, full_twist, invert

# the largest exponent a band takes: a band is expanded letter by letter,
# and the word problem is linear in the word's length
MAX_EXPONENT = 10**6


@dataclass(frozen=True)
class BandFactor:
    """One band g sigma_1^{sign * exponent} g^{-1}."""

    conjugator: BraidWord
    exponent: int = 1
    sign: int = 1

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise BraidError(f"band exponent must be >= 1, got {self.exponent}")
        if self.exponent > MAX_EXPONENT:
            raise BraidError(f"band exponent must be <= {MAX_EXPONENT}, got {self.exponent}")
        if self.sign not in (1, -1):
            raise BraidError(f"band sign must be +1 or -1, got {self.sign}")
        if self.conjugator.strands < 2:
            raise BraidError("band factors need at least 2 strands")

    @property
    def strands(self) -> int:
        return self.conjugator.strands

    def word(self) -> BraidWord:
        """Expanded word g sigma_1^{sign*exponent} g^{-1} (no reduction)."""
        g = self.conjugator.letters
        core = (self.sign,) * self.exponent
        return BraidWord(self.strands, g + core + tuple(-x for x in reversed(g)))

    def signed_exponent(self) -> int:
        return self.sign * self.exponent


@dataclass(frozen=True)
class Factorization:
    """Ordered band factors with implicit target Delta_d^2."""

    strands: int
    factors: tuple[BandFactor, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidError(f"strand count must be >= 1, got {self.strands}")
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        for f in factors:
            if f.strands != self.strands:
                raise BraidError(
                    f"factor on {f.strands} strands in a {self.strands}-strand factorization"
                )

    def __len__(self) -> int:
        return len(self.factors)

    def is_smooth_quasipositive(self) -> bool:
        return all(f.sign == 1 and f.exponent == 1 for f in self.factors)

    def all_positive(self) -> bool:
        return all(f.sign == 1 for f in self.factors)


def expand(f: Factorization) -> BraidWord:
    """Concatenation of all expanded band factors, in order."""
    letters = chain.from_iterable(band.word().letters for band in f.factors)
    return BraidWord(f.strands, tuple(letters))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a factorization against the full-twist target."""

    strands: int
    factor_count: int
    exponent_total: int
    product_ok: bool
    sum_ok: bool
    smooth: bool
    count_ok: bool | None  # n == d^2 - d; only meaningful when smooth

    @property
    def valid(self) -> bool:
        # a right product has the right exponent sum, and a smooth band is +1, so n = d(d-1)
        return self.product_ok


def validate(f: Factorization) -> ValidationReport:
    """Check product = Delta^2, exponent sum = d(d-1), and (if smooth) n = d^2-d.

    Invalid input yields a failing report.  The bands are expanded only
    when the exponent sum is right.  Negative bands are accepted here but
    rejected by diagram assembly.
    """
    d = f.strands
    total = sum(factor.signed_exponent() for factor in f.factors)
    smooth = f.is_smooth_quasipositive()
    sum_ok = total == d * (d - 1)
    return ValidationReport(
        strands=d,
        factor_count=len(f.factors),
        exponent_total=total,
        # the exponent sum of the full twist is d(d-1), so a wrong sum
        # decides the product without expanding the bands
        product_ok=sum_ok and equal(expand(f), full_twist(d)),
        sum_ok=sum_ok,
        smooth=smooth,
        count_ok=(len(f.factors) == d * d - d) if smooth else None,
    )


def standard_factorization(d: int) -> Factorization:
    """The cascade witness for Delta_d^2 = product of d(d-1) positive bands.

    Delta_d^2 = (s1 ... s_{d-1})^d and each s_i equals c_i s1 c_i^{-1} with
    c_i = (s1 ... s_{d-1})^{i-1}, so the full twist splits into d(d-1)
    bands with exponent 1 and positive sign.
    """
    if d < 2:
        raise BraidError(f"standard factorization needs d >= 2, got {d}")
    delta = tuple(range(1, d))
    factors = []
    for _rep in range(d):
        for i in range(1, d):
            conj = BraidWord(d, delta * (i - 1))
            factors.append(BandFactor(conj, 1, 1))
    return Factorization(d, tuple(factors))


def hurwitz_move(f: Factorization, i: int, direction: str = "right") -> Factorization:
    """Apply one Hurwitz move at slot i (1-indexed, 1 <= i <= n-1).

    The right move replaces (a, b) by (a b a^{-1}, a); the left move is
    its inverse, (a, b) -> (b, b^{-1} a b).  Conjugators are stored
    free-reduced; the expanded product is unchanged as a braid.
    """
    n = len(f.factors)
    if not 1 <= i <= n - 1:
        raise IndexError(f"move index {i} out of range for {n} factors")
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    a, b = f.factors[i - 1], f.factors[i]
    moved = _moved_band(a, b, direction)
    pair = (moved, a) if direction == "right" else (b, moved)
    return Factorization(f.strands, f.factors[: i - 1] + pair + f.factors[i + 1 :])


def _moved_band(a: BandFactor, b: BandFactor, direction: str) -> BandFactor:
    """The band a Hurwitz move writes in place of b or a: a b a^{-1} (right)
    or b^{-1} a b (left), with a free-reduced conjugator."""
    if direction == "right":
        head, kept = a.word(), b
    else:
        head, kept = invert(b.word()), a
    conjugator = free_reduce(BraidWord(a.strands, head.letters + kept.conjugator.letters))
    return BandFactor(conjugator, kept.exponent, kept.sign)


FactorKey = tuple[int, tuple[tuple[int, ...], ...]]


def factor_canonical_key(factor: BandFactor) -> FactorKey:
    """Canonical form of a band factor as a group element (Garside NF)."""
    nf = normal_form(factor.word())
    return (nf.delta_power, nf.factors)


def factorization_key(f: Factorization) -> tuple[FactorKey, ...]:
    return tuple(factor_canonical_key(factor) for factor in f.factors)


NodeKey = tuple[FactorKey, ...]
OrbitMove = tuple[NodeKey, int, str]  # (parent key, slot, direction)


@dataclass(frozen=True)
class HurwitzOrbit:
    """BFS closure of a factorization under Hurwitz moves.

    ``keys`` holds the canonical key of every node reached, sorted so the
    output is independent of exploration order.  ``truncated`` is set when
    the node budget was exhausted before closure.  ``moves`` maps each key,
    in BFS order, to the move (parent key, slot, direction) that first
    reached it, or to None for the key of ``start``.  ``elements`` replays
    the moves in that order, parents before children, with
    :func:`hurwitz_move` on its first read, so each witness is the one a
    BFS building every node would find; nothing else builds one.  Equality
    compares keys and truncation.
    """

    start: Factorization = field(compare=False, repr=False)
    moves: dict[NodeKey, OrbitMove | None] = field(compare=False, repr=False)
    keys: tuple[NodeKey, ...]
    truncated: bool

    @property
    def size(self) -> int:
        return len(self.keys)

    @cached_property
    def elements(self) -> tuple[Factorization, ...]:
        built = {}
        for key, move in self.moves.items():
            if move is None:
                built[key] = self.start
            else:
                parent, slot, direction = move
                built[key] = hurwitz_move(built[parent], slot, direction)
        return tuple(built[key] for key in self.keys)


def hurwitz_orbit(f: Factorization, bound: int) -> HurwitzOrbit:
    """Enumerate the Hurwitz orbit of f, stopping once ``bound`` nodes are seen.

    A move keeps one of its two bands and replaces the other by a b a^{-1}
    (right) or b^{-1} a b (left) as a group element, so the moved band's
    key is a function of the direction and the keys of a and b alone,
    whatever their exponents, signs or conjugator words.  The BFS therefore
    runs on key tuples: the first band seen with a key represents every band
    with that key, each distinct (direction, key a, key b) triple is keyed
    once, by moving two representatives, in a memo that lives for this
    call, and a new node records only the move that first reached it.
    """
    if bound < 1:
        raise ValueError(f"node budget must be >= 1, got {bound}")
    start_key = factorization_key(f)
    # reversed, so that the first band with each key is the one kept
    bands = dict(zip(reversed(start_key), reversed(f.factors)))
    seen: dict[NodeKey, OrbitMove | None] = {start_key: None}
    queue: deque[NodeKey] = deque([start_key])
    moved: dict[tuple[str, FactorKey, FactorKey], FactorKey] = {}
    while queue:
        node_key = queue.popleft()
        for i in range(1, len(node_key)):
            key_a, key_b = node_key[i - 1], node_key[i]
            for direction in ("right", "left"):
                memo = (direction, key_a, key_b)
                if memo not in moved:
                    band = _moved_band(bands[key_a], bands[key_b], direction)
                    moved[memo] = factor_canonical_key(band)
                    bands.setdefault(moved[memo], band)
                pair = (moved[memo], key_a) if direction == "right" else (key_b, moved[memo])
                key = node_key[: i - 1] + pair + node_key[i + 1 :]
                if key in seen:
                    continue
                if len(seen) >= bound:
                    return HurwitzOrbit(f, seen, tuple(sorted(seen)), True)
                seen[key] = (node_key, i, direction)
                queue.append(key)
    return HurwitzOrbit(f, seen, tuple(sorted(seen)), False)
