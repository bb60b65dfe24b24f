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

from .garside import _table, equal, normal_form
from .words import BraidError, BraidWord, free_reduce, full_twist, invert

# the largest exponent a band takes.  Bands are expanded letter by letter: the word
# problem is linear when free reduction cancels long powers, else quadratic in them
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
    """What :func:`validate` found: ``strands`` d, ``factor_count``,
    ``exponent_total``, ``valid`` (the product is Delta^2) and ``smooth``.
    The sum check, exponent_total == d(d-1), is implied by ``valid``."""

    strands: int
    factor_count: int
    exponent_total: int
    valid: bool
    smooth: bool


def validate(f: Factorization) -> ValidationReport:
    """Check that the product of the bands is Delta^2.

    Invalid input yields a report with ``valid`` false.  The exponent sum
    of the full twist is d(d-1), so a wrong sum decides the product and the
    bands are expanded only when the sum is right.  Negative bands are
    accepted here but rejected by diagram assembly.
    """
    d = f.strands
    total = sum(factor.signed_exponent() for factor in f.factors)
    return ValidationReport(
        strands=d,
        factor_count=len(f.factors),
        exponent_total=total,
        valid=total == d * (d - 1) and equal(expand(f), full_twist(d)),
        smooth=f.is_smooth_quasipositive(),
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


def factorization_key(f: Factorization) -> tuple[FactorKey, ...]:
    """Each band's Garside normal form (Delta power, factors), in order."""
    forms = [normal_form(band.word()) for band in f.factors]
    return tuple((nf.delta_power, nf.factors) for nf in forms)


Node = tuple[int, ...]  # a node's bands as indexes into HurwitzOrbit.bands


@dataclass(frozen=True)
class HurwitzOrbit:
    """BFS closure of a factorization under Hurwitz moves.

    ``bands`` lists each band key met once, in the order first met, and
    ``nodes`` every node reached as indexes into ``bands``, sorted by key
    so the output is independent of exploration order.  ``truncated`` is
    set when the node budget was exhausted before closure.  ``reached``
    maps each node, in BFS order, to the move (parent node, slot,
    direction) that first reached it, or to None for ``start``.  ``keys``
    spells out each node's canonical key, and ``elements`` replays the
    moves in BFS order with :func:`hurwitz_move`, so each witness is the
    one a BFS building every node would find; both are built on their
    first read, and nothing else builds them.
    """

    start: Factorization = field(compare=False, repr=False)
    bands: tuple[FactorKey, ...]
    nodes: tuple[Node, ...]
    reached: dict[Node, tuple[Node, int, str] | None] = field(compare=False, repr=False)
    truncated: bool

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def keys(self) -> tuple[tuple[FactorKey, ...], ...]:
        return tuple(tuple(map(self.bands.__getitem__, node)) for node in self.nodes)

    @cached_property
    def elements(self) -> tuple[Factorization, ...]:
        built = {}
        for node, move in self.reached.items():
            built[node] = self.start if move is None else hurwitz_move(built[move[0]], *move[1:])
        return tuple(built[node] for node in self.nodes)


def _orbit(
    f: Factorization, perms: list[tuple[int, ...]], forms: list[tuple[int, tuple[int, ...]]],
    reached: dict[Node, tuple[Node, int, str] | None], truncated: bool,
) -> HurwitzOrbit:
    bands = tuple((power, tuple(perms[c] for c in codes)) for power, codes in forms)
    # band keys are distinct, so nodes sort as their keys do
    nodes = sorted(reached, key=lambda node: tuple(map(bands.__getitem__, node)))
    return HurwitzOrbit(f, bands, tuple(nodes), reached, truncated)


def hurwitz_orbit(f: Factorization, bound: int) -> HurwitzOrbit:
    """Enumerate the Hurwitz orbit of f, stopping once ``bound`` nodes are seen.

    A move keeps one of its two bands and replaces the other by a b a^{-1}
    (right) or b^{-1} a b (left) as a group element, so the moved band's
    key is a function of the direction and the keys of a and b alone,
    whatever their exponents, signs or conjugator words.  The BFS therefore
    runs on band ids, one small int per distinct key in the order first
    seen: each distinct (direction, id a, id b) triple is keyed once, in a
    memo per direction, by left-weighting the product of the two normal
    forms with no word written out, and a new node records only the move
    that first reached it.  Ids, memos and factor codes hold for this call,
    in the one Garside table it takes.
    """
    if bound < 1:
        raise ValueError(f"node budget must be >= 1, got {bound}")
    start_key = factorization_key(f)
    table = _table(f.strands)
    ids: dict[tuple[int, tuple[int, ...]], int] = {}  # (Delta power, factor codes) -> id
    start = tuple(ids.setdefault((p, tuple(map(table.code, xs))), len(ids)) for p, xs in start_key)
    forms = list(ids)  # by id
    seen: dict[Node, tuple[Node, int, str] | None] = {start: None}
    queue: deque[Node] = deque([start])
    memos: dict[str, dict[tuple[int, int], int]] = {"right": {}, "left": {}}
    while queue:
        node = queue.popleft()
        for i in range(1, len(node)):
            a, b = node[i - 1], node[i]
            head, tail = node[: i - 1], node[i + 1 :]
            for direction, memo in memos.items():
                moved = memo.get((a, b))
                if moved is None:
                    # a b a^{-1} or b^{-1} a b
                    parts = (((a, False), (b, False), (a, True)) if direction == "right"
                             else ((b, True), (a, False), (b, False)))
                    form = table.product([(*forms[j], inverted) for j, inverted in parts])
                    moved = memo[a, b] = ids.setdefault(form, len(ids))
                    if moved == len(forms):
                        forms.append(form)
                key = head + ((moved, a) if direction == "right" else (b, moved)) + tail
                if key in seen:
                    continue
                if len(seen) >= bound:
                    return _orbit(f, table.perms, forms, seen, True)
                seen[key] = (node, i, direction)
                queue.append(key)
    return _orbit(f, table.perms, forms, seen, False)
