import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidshadow.diagram import (
    Arc,
    BridgePoint,
    DiagramError,
    TorusDiagram,
    _seg_intersection,
    a_crossings,
    assemble,
    bridge_params,
    build_tile,
    check_transverse,
    component_label,
    pairwise_links,
    verify_trivial,
)
from braidshadow.factorization import (
    BandFactor,
    Factorization,
    random_factorization,
    singular_factor,
    standard_factorization,
)
from braidshadow.garside import equal
from braidshadow.words import BraidWord, full_twist, identity, invert


def pipeline(f):
    diag = assemble(f)
    return diag, bridge_params(diag)


def test_tile_has_four_bridge_points_and_local_arcs():
    tile = build_tile(BandFactor(identity(3)))
    signs = [s for (_, _, s) in tile.bridge_points]
    assert signs == [1, 1, -1, -1]
    assert len(tile.b_arcs) == 2 and len(tile.c_arcs) == 2
    assert tile.l2_label == "unknot"
    assert tile.a_crossing_count == 0


def test_tile_rejects_negative_band():
    with pytest.raises(DiagramError):
        build_tile(BandFactor(identity(2), sign=-1))


def test_component_labels():
    assert component_label(1) == "unknot"
    assert component_label(2) == "T(2,3)"
    assert component_label(4) == "T(2,5)"


def test_standard_d2_parameters_exact():
    diag, params = pipeline(standard_factorization(2))
    assert diag.stabilization_count == 0
    assert params.tuple3() == (4, 2, 2, 2)
    assert check_transverse(diag).ok


def test_standard_d3_corrected_parameter_tuple():
    f = standard_factorization(3)
    diag, params = pipeline(f)
    s = 2 * sum(len(g.conjugator) for g in f.factors)
    assert s == 12
    assert diag.stabilization_count == s
    assert params.tuple3() == (24, 3, 18, 3)


def test_stabilization_count_matches_conjugator_length():
    rng = random.Random(31)
    for _ in range(6):
        d = rng.choice((2, 3))
        f = random_factorization(d, rng, moves=6, max_conjugator_length=3)
        diag, params = pipeline(f)
        s = 2 * sum(len(g.conjugator) for g in f.factors)
        assert diag.stabilization_count == s
        n = len(f.factors)
        assert params.tuple3() == (2 * n + s, d, n + s, d)


def test_assemble_requires_valid_factorization():
    with pytest.raises(DiagramError):
        assemble(Factorization(2, (BandFactor(identity(2)),)))


def test_assemble_rejects_negative_bands():
    neg = BandFactor(identity(2), sign=-1)
    pos = BandFactor(identity(2))
    # product sigma_1^{-1} sigma_1^3 = Delta_2^2 but a negative band is present
    f = Factorization(2, (neg, pos, pos, pos))
    with pytest.raises(DiagramError):
        assemble(f)


def test_assemble_stabilizes_inside_tiles():
    diag = assemble(standard_factorization(3))
    assert diag.stabilization_count == 12
    assert a_crossings(diag) == []
    assert check_transverse(diag).ok


def test_cusp_tile_gives_trefoil_component():
    f = Factorization(2, (singular_factor(identity(2), 2),))
    diag, params = pipeline(f)
    assert params.tuple3() == (2, 2, 1, 1)
    links = pairwise_links(diag, f)
    assert links[1].components == ("T(2,3)",)
    assert check_transverse(diag).ok


def test_pairwise_links_shapes():
    f = standard_factorization(2)
    diag, _ = pipeline(f)
    l1, l2, l3 = pairwise_links(diag, f)
    assert equal(l1.braid, identity(2))
    assert l2.braid is None and set(l2.components) == {"unknot"}
    assert l3.orientation_reversed and l3.framing == "(1,1)"
    assert equal(l3.braid, invert(full_twist(2)))


def test_verify_trivial_passes_for_standard():
    for d in (2, 3):
        f = standard_factorization(d)
        diag, _ = pipeline(f)
        report = verify_trivial(pairwise_links(diag, f), f)
        assert report.ok


def test_verify_trivial_detects_mutated_conjugator():
    f = standard_factorization(3)
    diag, _ = pipeline(f)
    factors = list(f.factors)
    g = factors[0].conjugator
    factors[0] = BandFactor(BraidWord(3, g.letters + (2,)), 1, 1)
    mutated = Factorization(3, tuple(factors))
    report = verify_trivial(pairwise_links(diag, mutated), mutated)
    assert not report.l3_ok


def test_check_transverse_locates_bad_segment():
    points = (
        BridgePoint(0, 0.2, 0.6, -1),
        BridgePoint(1, 0.2, 0.3, 1),
    )
    # A arc heading downward: every segment violates
    arc = Arc("A", 0, 1, ((0.2, 0.6), (0.2, 0.3)))
    diag = TorusDiagram(2, points, (arc,))
    report = check_transverse(diag)
    assert not report.ok
    v = report.violations[0]
    assert (v.arc_index, v.color, v.segment_index) == (0, "A", 0)


def _shift_range(a1, b1, a2, b2, eps=1e-9):
    """Integer m for which [min(a2, b2) + m, max(a2, b2) + m] meets [min(a1, b1), max(a1, b1)]."""
    lo = math.ceil(min(a1, b1) - max(a2, b2) - eps)
    return range(lo, math.floor(max(a1, b1) - min(a2, b2) + eps) + 1)


def _all_pairs_crossings(diag):
    """Reference for ``a_crossings``: test every pair of A segments, over
    every integer shift in x and y that brings their bounding boxes together."""
    segs = []
    for ai, arc in enumerate(diag.arcs):
        if arc.color != "A":
            continue
        for si, (p, q) in enumerate(arc.segments()):
            segs.append((ai, si, p, q, q[0] != p[0]))
    out = []
    for u in range(len(segs)):
        ai, si, p, q, diag1 = segs[u]
        for v in range(u + 1, len(segs)):
            bi, sj, r, s, diag2 = segs[v]
            if not (diag1 or diag2):
                continue
            if ai == bi and abs(si - sj) <= 1:
                continue
            for mx in _shift_range(p[0], q[0], r[0], s[0]):
                for my in _shift_range(p[1], q[1], r[1], s[1]):
                    hit = _seg_intersection(
                        p, q, (r[0] + mx, r[1] + my), (s[0] + mx, s[1] + my)
                    )
                    if hit is not None:
                        t, _u, pt = hit
                        out.append((ai, si, t, bi, pt))
    return out


# Quarter-grid values repeat often, which gives horizontal, vertical,
# touching and collinear segments; the range wraps both axes and allows
# segments a whole period or more long.
_coord = st.one_of(
    st.integers(-6, 10).map(lambda k: k / 4),
    st.floats(-1.5, 2.5, allow_nan=False, allow_infinity=False),
)
_polyline = st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_polyline, min_size=1, max_size=5))
def test_a_crossings_matches_all_pairs_oracle(paths):
    arcs = tuple(Arc("A", 0, 0, tuple(path)) for path in paths)
    diag = TorusDiagram(2, (), arcs)
    assert a_crossings(diag) == _all_pairs_crossings(diag)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_a_crossings_matches_oracle_on_standard(d):
    diag = assemble(standard_factorization(d))
    assert a_crossings(diag) == _all_pairs_crossings(diag) == []


def test_a_crossings_across_both_seams():
    # arcs 0 and 1 cross only after shifting arc 1 by (+1, 0); arcs 2 and 3
    # only after shifting arc 3 by (0, +1)
    arcs = (
        Arc("A", 0, 0, ((0.9, 0.2), (1.1, 0.6))),
        Arc("A", 0, 0, ((0.1, 0.2), (-0.1, 0.6))),
        Arc("A", 0, 0, ((0.5, 0.9), (0.5, 1.1))),
        Arc("A", 0, 0, ((0.4, 0.0), (0.6, 0.1))),
    )
    diag = TorusDiagram(2, (), arcs)
    found = a_crossings(diag)
    assert found == _all_pairs_crossings(diag)
    assert [(ai, bi) for (ai, _si, _t, bi, _pt) in found] == [(0, 1), (2, 3)]
    assert found[0][4] == pytest.approx((1.0, 0.4))
    assert found[1][4] == pytest.approx((0.5, 1.05))
