"""Numerical invariants of degree-d bridge-trisected surfaces.

The identities checked here tie a diagram's bridge parameters
(b; c1, c2, c3) back to the surface: Euler characteristic
chi = c1 + c2 + c3 - b = 3d - d^2, genus (d-1)(d-2)/2, and the total
self-linking identity sl1 + sl2 + sl3 = d^2 - 3d - b, where each
pairwise link attains the Bennequin bound sl_lambda = -c_lambda.
Every formula is stable under mini-stabilization: s enters b and c2
with equal weight and cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BridgeParams
from .words import BraidError, BraidWord, exponent_sum


def genus_expected(d: int) -> int:
    """Genus of a smooth degree-d surface: (d-1)(d-2)/2."""
    if d < 1:
        raise BraidError(f"degree must be >= 1, got {d}")
    return (d - 1) * (d - 2) // 2


def euler_expected(d: int) -> int:
    return 3 * d - d * d


def euler_check(p: BridgeParams, d: int) -> bool:
    """c1 + c2 + c3 - b = 3d - d^2."""
    return p.euler() == euler_expected(d)


def transverse_sl(word: BraidWord) -> int:
    """Self-linking number of the transverse closure of a braid word.

    For a closed braid this is the exponent sum minus the strand count.
    """
    return exponent_sum(word) - word.strands


def sl_sum_check(p: BridgeParams, d: int) -> bool:
    """Total self-linking identity: -(c1 + c2 + c3) = d^2 - 3d - b.

    Uses the Bennequin-equality values sl_lambda = -c_lambda.  This is
    algebraically equivalent to euler_check but asserted independently.
    """
    return -(p.c1 + p.c2 + p.c3) == d * d - 3 * d - p.b


@dataclass(frozen=True)
class BennequinReport:
    ok: bool
    equalities: tuple[bool, bool, bool]


def bennequin_check(p: BridgeParams, sl: tuple[int, int, int]) -> BennequinReport:
    """Bennequin bound sl_lambda <= -c_lambda, with per-lambda equality flags."""
    bounds = (-p.c1, -p.c2, -p.c3)
    ok = all(s <= c for s, c in zip(sl, bounds))
    eq = tuple(s == c for s, c in zip(sl, bounds))
    return BennequinReport(ok, eq)  # type: ignore[arg-type]


@dataclass(frozen=True)
class InvariantLedger:
    """All numerical invariants and identity checks for one diagram."""

    degree: int
    genus_expected: int
    euler_expected: int
    params: BridgeParams
    sl: tuple[int, int, int]
    checks: dict[str, bool]

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def make_ledger(
    p: BridgeParams,
    d: int,
    sl1: int | None = None,
    smooth: bool = True,
) -> InvariantLedger:
    """Assemble the invariant ledger for a stabilized diagram.

    sl2 and sl3 take their Bennequin-equality values -c2 and -c3.  sl1 is
    the self-linking of L1 when it is known apart from the parameters
    (-d for a diagram built from a source factorization, whose L1 closes
    the trivial d-braid), which cross-checks the equality case; otherwise
    it is -c1.  For singular (non-smooth) input the closed-surface
    identities are reported but not counted as failures, since the Euler
    formula only applies to smooth degree-d surfaces.
    """
    if sl1 is None:
        sl1 = -p.c1
    sl = (sl1, -p.c2, -p.c3)
    benn = bennequin_check(p, sl)
    checks = {
        "bennequin_bound": benn.ok,
        "bennequin_equalities": all(benn.equalities),
        "sl1_matches_braid_word": sl1 == -p.c1,
    }
    if smooth:
        checks["euler"] = euler_check(p, d)
        checks["sl_sum"] = sl_sum_check(p, d)
        checks["genus"] = 2 - p.euler() == 2 * genus_expected(d)
    return InvariantLedger(
        degree=d,
        genus_expected=genus_expected(d),
        euler_expected=euler_expected(d),
        params=p,
        sl=sl,
        checks=checks,
    )
