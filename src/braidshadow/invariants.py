"""Numerical invariants of degree-d bridge-trisected surfaces.

A diagram's bridge parameters (b; c1, c2, c3) determine the surface's
Euler characteristic chi = c1 + c2 + c3 - b, which must be 3d - d^2 for
a smooth degree-d surface (genus (d-1)(d-2)/2).  Each pairwise link
L_lambda attains the Bennequin bound, sl_lambda = -c_lambda; these
values are reported, and sl1 is checked only when it is known apart
from the parameters.  The ledger keeps only checks that can fail on some
parameters: ``euler`` for smooth input, and ``sl1_matches_braid_word``
when there is a source factorization, whose L1 closes the trivial d-braid
(sl1 = -d).  With a source, ``certify`` passes only the diagram that
``assemble`` builds from it, whose tiles give c1 = d and, for a smooth
source, the Euler identity; there both checks test that construction,
not the document.  Every formula is stable under mini-stabilization: s
enters b and c2 with equal weight and cancels.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import BridgeParams
from .factorization import Factorization
from .words import BraidError, BraidWord, exponent_sum


def genus_expected(d: int) -> int:
    """Genus of a smooth degree-d surface: (d-1)(d-2)/2."""
    if d < 1:
        raise BraidError(f"degree must be >= 1, got {d}")
    return (d - 1) * (d - 2) // 2


def euler_expected(d: int) -> int:
    return 3 * d - d * d


def transverse_sl(word: BraidWord) -> int:
    """Self-linking number of the transverse closure of a braid word.

    For a closed braid this is the exponent sum minus the strand count.
    """
    return exponent_sum(word) - word.strands


class InvariantLedger(NamedTuple):
    """All numerical invariants and identity checks for one diagram."""

    degree: int
    genus_expected: int
    euler_expected: int
    sl: tuple[int, int, int]
    checks: dict[str, bool]

    @property
    def all_ok(self) -> bool:
        """Every check passed, and there was one: no checks certify nothing."""
        return bool(self.checks) and all(self.checks.values())


def make_ledger(p: BridgeParams, d: int, source: Factorization | None = None) -> InvariantLedger:
    """Assemble the invariant ledger for a stabilized diagram.

    sl2 and sl3 take their Bennequin-equality values -c2 and -c3.  With a
    source factorization sl1 is -d, since L1 closes the trivial d-braid, and
    is checked against -c1; without one it is -c1 and nothing is checked.
    The Euler identity applies only to smooth degree-d surfaces, so it is
    not checked for a singular source.
    """
    checks: dict[str, bool] = {}
    sl1 = -p.c1
    if source is not None:
        sl1 = -d
        checks["sl1_matches_braid_word"] = sl1 == -p.c1
    if source is None or source.is_smooth_quasipositive():
        checks["euler"] = p.euler() == euler_expected(d)
    return InvariantLedger(
        degree=d,
        genus_expected=genus_expected(d),
        euler_expected=euler_expected(d),
        sl=(sl1, -p.c2, -p.c3),
        checks=checks,
    )
