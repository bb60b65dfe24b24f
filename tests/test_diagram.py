import random

import pytest

from braidshadow.diagram import (
    Arc,
    BridgePoint,
    DiagramError,
    TorusDiagram,
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
