import collections
import hashlib
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidshadow.diagram import (
    Arc,
    BridgePoint,
    DiagramError,
    TorusDiagram,
    _candidate_pairs,
    a_crossings,
    assemble,
    bridge_params,
    certify,
    check_transverse,
    endpoint_faults,
)
from braidshadow.factorization import (
    BandFactor,
    Factorization,
    standard_factorization,
)
from braidshadow.documents import serialize_diagram
from braidshadow.garside import equal
from braidshadow.invariants import make_ledger
from braidshadow.words import BraidWord, compose, full_twist, identity, invert
from support import random_factorization, rotate


# -- reference: the incidence walk that the partner walk replaced --------------
# ``_incidence`` and ``_pair_components`` as ``bridge_params`` used them before
# it walked partner lists, kept as the oracle for (c1, c2, c3, s); a bridge
# point is keyed by its position in ``bridge_points``.


def _incidence(diag: TorusDiagram, color: str) -> dict[int, list[int]]:
    """arc indices of the given color at each bridge point; must be exactly one."""
    inc: dict[int, list[int]] = {i: [] for i in range(len(diag.bridge_points))}
    for ai, arc in enumerate(diag.arcs):
        if arc.color != color:
            continue
        inc[arc.start].append(ai)
        inc[arc.end].append(ai)
    for i, lst in inc.items():
        if len(lst) != 1:
            raise DiagramError(f"bridge point {i} meets {len(lst)} {color} arc ends, expected 1")
    return inc


def _pair_components(
    diag: TorusDiagram, inc_a: dict[int, list[int]], inc_b: dict[int, list[int]]
) -> list[int]:
    """Closed components of the union of two tangle shadows, given their
    incidences from ``_incidence``: the number of bridge points on each."""
    seen: set[int] = set()
    sizes = []
    for start in inc_a:
        if start in seen:
            continue
        node, use_a, size = start, True, 0
        while True:
            seen.add(node)
            size += 1
            arc = diag.arcs[(inc_a if use_a else inc_b)[node][0]]
            node = arc.end if arc.start == node else arc.start
            use_a = not use_a
            if node == start and use_a:
                break
        sizes.append(size)
    return sizes


def reference_params(diag):
    """(c1, c2, c3, s) by the incidence walk, or the message it refuses with."""
    try:
        inc_a, inc_b, inc_c = (_incidence(diag, color) for color in "ABC")
    except DiagramError as exc:
        return str(exc)
    l2 = _pair_components(diag, inc_b, inc_c)
    c1 = len(_pair_components(diag, inc_a, inc_b))
    return (c1, len(l2), len(_pair_components(diag, inc_c, inc_a)), l2.count(2))


def library_params(diag):
    """(c1, c2, c3, s) from ``bridge_params``, or the message it refuses with."""
    try:
        p = bridge_params(diag)
    except DiagramError as exc:
        return str(exc)
    return (p.c1, p.c2, p.c3, p.s)


# -- reference: the pairwise-link certificates that certify's source stage replaced
# Kept as the oracle for that stage, which passes a source only when the
# diagram is exactly ``assemble(source)``: the stage is never looser than this
# reference.  Its logic is unchanged, only its calls follow the current
# diagram API.


@dataclass(frozen=True)
class TangleLink:
    """Solid-torus presentation of a pairwise tangle union L_lambda."""

    ambient: str  # 'H1', 'H2' or 'H3'
    braid: BraidWord | None  # braid part; None when all components are split
    components: tuple[str, ...]  # labels of split closed components
    orientation_reversed: bool = False
    framing: str | None = None


def component_label(exponent: int) -> str:
    return "unknot" if exponent == 1 else f"T(2,{exponent + 1})"


def pairwise_links(
    diag: TorusDiagram, f: Factorization
) -> tuple[TangleLink, TangleLink, TangleLink]:
    """Solid-torus presentations of L1, L2, L3 for an assembled diagram.

    L1 is the closure of the trivial d-braid; L2 is a split union of one
    closed component per tile (unknot or T(2,k+1)) plus one unknot per
    stabilization; L3 is the braid closure, in H_alpha, of
    g_n s1^{-k_n} g_n^{-1} ... g_1 s1^{-k_1} g_1^{-1} with the beta curve
    carrying the (1,1) framing.
    """
    d = diag.strands
    if f.strands != d:
        raise DiagramError("factorization and diagram strand counts differ")
    s = bridge_params(diag).s
    if (len(diag.bridge_points) // 2 - s) // 2 != len(f.factors):
        raise DiagramError("diagram tile count does not match the factorization")
    l1 = TangleLink("H1", identity(d), ())
    labels = tuple(component_label(fac.exponent) for fac in f.factors) + ("unknot",) * s
    c2 = len(_pair_components(diag, _incidence(diag, "B"), _incidence(diag, "C")))
    if c2 != len(labels):
        raise DiagramError(
            f"L2 has {c2} split components, expected {len(labels)}"
        )
    l2 = TangleLink("H2", None, labels)
    word = identity(d)
    for fac in reversed(f.factors):
        core = BraidWord(d, (-fac.sign,) * fac.exponent)
        word = compose(word, compose(compose(fac.conjugator, core), invert(fac.conjugator)))
    l3 = TangleLink("H1", word, (), orientation_reversed=True, framing="(1,1)")
    return l1, l2, l3


@dataclass(frozen=True)
class TrivialityReport:
    l1_ok: bool
    l2_ok: bool
    l3_ok: bool

    @property
    def ok(self) -> bool:
        return self.l1_ok and self.l2_ok and self.l3_ok


def verify_trivial(
    links: tuple[TangleLink, TangleLink, TangleLink], f: Factorization
) -> TrivialityReport:
    """Certify the three pairwise links against the factorization.

    L1 must present the identity braid; L2's split components must match
    the band exponents (plus stabilization unknots); L3's word must equal
    the inverse full twist, the algebraic certificate that its closure is
    the d-component unlink.
    """
    l1, l2, l3 = links
    d = f.strands
    l1_ok = l1.braid is not None and equal(l1.braid, identity(d))
    expected = [component_label(fac.exponent) for fac in f.factors]
    comps = list(l2.components)
    l2_ok = l2.braid is None and len(comps) >= len(expected)
    if l2_ok:
        pool = comps.copy()
        for label in expected:
            if label in pool:
                pool.remove(label)
            else:
                l2_ok = False
                break
        if l2_ok:
            l2_ok = all(extra == "unknot" for extra in pool)
    l3_ok = l3.braid is not None and equal(l3.braid, invert(full_twist(d)))
    return TrivialityReport(l1_ok, l2_ok, l3_ok)


# -- end of reference ------------------------------------------------------------


def reference_verdicts(diag, f):
    """(L1, L2, L3) from the reference, or the message it refuses with."""
    try:
        report = verify_trivial(pairwise_links(diag, f), f)
    except DiagramError as exc:
        return str(exc)
    return (report.l1_ok, report.l2_ok, report.l3_ok)


def source_verdicts(diag, f):
    """(L1, L2, L3) as ``check`` reports them, or the fault of its source
    stage, the only stage that fails: the stages before it pass."""
    cert = certify(diag, f)
    payload = cert.payload
    assert payload["endpoints"] and payload["transverse"] and payload["a_crossings"] == 0
    assert payload["params"] is not None
    trivial = payload.get("trivial")
    return tuple(trivial.values()) if trivial else cert.fault


def pipeline(f):
    diag = assemble(f)
    return diag, bridge_params(diag)


def test_tile_has_four_bridge_points_and_local_arcs():
    # standard d = 2: two bands with empty conjugators, so no stabilizations
    diag = assemble(standard_factorization(2))
    assert [p.sign for p in diag.bridge_points] == [1, 1, -1, -1] * 2
    assert "".join(arc.color for arc in diag.arcs[:8]) == "BBCCBBCC"


def test_component_labels():
    assert component_label(1) == "unknot"
    assert component_label(2) == "T(2,3)"
    assert component_label(4) == "T(2,5)"


def test_standard_d2_parameters_exact():
    diag, params = pipeline(standard_factorization(2))
    assert params.s == 0
    assert params[:4] == (4, 2, 2, 2)
    assert check_transverse(diag) == []


def test_standard_d3_corrected_parameter_tuple():
    f = standard_factorization(3)
    diag, params = pipeline(f)
    s = 2 * sum(len(g.conjugator) for g in f.factors)
    assert s == 12
    assert params.s == s
    assert params[:4] == (24, 3, 18, 3)


def _acceptance_corpus():
    """The acceptance suite's factorizations: standard d = 2..4 and 100
    random d = 3."""
    rng = random.Random(0xB51D)
    corpus = [standard_factorization(d) for d in (2, 3, 4)]
    corpus += [
        random_factorization(3, rng, moves=rng.randint(1, 15), max_conjugator_length=4)
        for _ in range(100)
    ]
    return corpus


def test_build_documents_are_pinned():
    """``build`` output bytes (sha256 over the documents in order) for
    standard d = 2..8, the acceptance corpus and the d = 2 cusp."""
    cusp = Factorization(2, (BandFactor(identity(2), exponent=2),))
    inputs = [standard_factorization(d) for d in range(2, 9)] + _acceptance_corpus() + [cusp]
    digest = hashlib.sha256()
    for f in inputs:
        digest.update(serialize_diagram(assemble(f), f).encode())
    assert digest.hexdigest() == (
        "13d5922808768614385be151cbaeb9f7e5bcb3e113b910543516cfcd2e29f2a6"
    )


def test_stabilization_count_matches_conjugator_length():
    rng = random.Random(31)
    for _ in range(6):
        d = rng.choice((2, 3))
        f = random_factorization(d, rng, moves=6, max_conjugator_length=3)
        _, params = pipeline(f)
        s = 2 * sum(len(g.conjugator) for g in f.factors)
        assert params.s == s
        n = len(f.factors)
        assert params[:4] == (2 * n + s, d, n + s, d)
    # the s counted from the diagram's mini unknots
    for f in _acceptance_corpus() + [standard_factorization(d) for d in range(5, 11)]:
        s = 2 * sum(len(g.conjugator) for g in f.factors)
        assert bridge_params(assemble(f)).s == s


def test_partner_walk_matches_reference_on_standard_and_corpus():
    for f in [standard_factorization(d) for d in range(2, 9)] + _acceptance_corpus():
        diag = assemble(f)
        assert library_params(diag) == reference_params(diag)


@st.composite
def matched_diagrams(draw):
    """Sound diagrams on 2k bridge points, k <= 40, half of them (-) and half
    (+): per color a random bijection from the (-) to the (+) points, each
    arc oriented (-) -> (+), the arcs in a random order, on the lattice
    (1, 1).  Sometimes one arc is dropped (two points meet no end of its
    color) or repeated (two meet two)."""
    k = draw(st.integers(1, 40))
    order = draw(st.permutations(range(2 * k)))
    minus, plus = order[:k], order[k:]
    arcs = [Arc(color, u, v, ((0, 0), (0, 1)))
            for color in "ABC" for u, v in zip(minus, draw(st.permutations(plus)))]
    arcs = draw(st.permutations(arcs))
    fault = draw(st.sampled_from([None, None, "drop", "repeat"]))
    if fault is not None:
        i = draw(st.integers(0, len(arcs) - 1))
        arcs = arcs[:i] + arcs[i + 1:] if fault == "drop" else arcs + [arcs[i]]
    points = [BridgePoint(0, 0, 1)] * (2 * k)
    for i in minus:
        points[i] = BridgePoint(0, 0, -1)
    return TorusDiagram(2, (1, 1), tuple(points), tuple(arcs))


@settings(max_examples=200, deadline=None)
@given(matched_diagrams())
def test_partner_walk_matches_reference_on_random_matchings(diag):
    assert library_params(diag) == reference_params(diag)


@pytest.mark.parametrize("fault, touches", [("drop", 0), ("repeat", 2)])
def test_partner_walk_refuses_like_reference(fault, touches):
    diag = assemble(standard_factorization(2))
    arcs = diag.arcs[1:] if fault == "drop" else diag.arcs + diag.arcs[:1]
    diag = diag._replace(arcs=arcs)
    message = reference_params(diag)
    assert message == library_params(diag)
    # the first B arc joins points 2 and 0
    assert message == f"bridge point 0 meets {touches} B arc ends, expected 1"
    assert message == endpoint_faults(diag)[0]


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
    assert bridge_params(diag).s == 12
    assert a_crossings(diag) == []
    assert check_transverse(diag) == []


def test_cusp_tile_gives_trefoil_component():
    f = Factorization(2, (BandFactor(identity(2), exponent=2),))
    diag, params = pipeline(f)
    assert params[:4] == (2, 2, 1, 1)
    links = pairwise_links(diag, f)
    assert links[1].components == ("T(2,3)",)
    assert source_verdicts(diag, f) == (True, True, True)
    assert check_transverse(diag) == []


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
        assert source_verdicts(diag, f) == (True, True, True)


def test_verify_trivial_detects_mutated_conjugator():
    f = standard_factorization(3)
    diag, _ = pipeline(f)
    factors = list(f.factors)
    g = factors[0].conjugator
    factors[0] = BandFactor(BraidWord(3, g.letters + (2,)), 1, 1)
    mutated = Factorization(3, tuple(factors))
    report = verify_trivial(pairwise_links(diag, mutated), mutated)
    assert not report.l3_ok
    assert source_verdicts(diag, mutated) == "factorization does not multiply to the full twist"


def _source_mutations(f, rng):
    """One source of each kind: a letter appended to a conjugator, a letter
    removed from one, a factor dropped, and two factors swapped."""
    factors = list(f.factors)
    out = []
    i = rng.randrange(len(factors))
    g = factors[i].conjugator
    out.append(factors[:i] + [replace(factors[i], conjugator=BraidWord(
        f.strands, g.letters + (rng.choice((1, -1)) * rng.randint(1, f.strands - 1),)
    ))] + factors[i + 1:])
    words = [k for k, fac in enumerate(factors) if fac.conjugator.letters]
    if words:
        i = rng.choice(words)
        letters = list(factors[i].conjugator.letters)
        del letters[rng.randrange(len(letters))]
        out.append(factors[:i] + [replace(factors[i], conjugator=BraidWord(
            f.strands, tuple(letters)
        ))] + factors[i + 1:])
    i = rng.randrange(len(factors))
    out.append(factors[:i] + factors[i + 1:])
    i, j = rng.sample(range(len(factors)), 2)
    swapped = factors.copy()
    swapped[i], swapped[j] = factors[j], factors[i]
    out.append(swapped)
    return [Factorization(f.strands, tuple(m)) for m in out]


def test_source_stage_is_never_looser_than_reference_on_corpus_and_mutations():
    """Every corpus diagram passes its own source, and another source only
    where the reference passes it too.  The stage is stricter: a source with
    two different bands swapped, say, multiplies to the full twist and fits
    the counts, but it builds a different diagram."""
    mutation_rng = random.Random(8)
    passes = collections.Counter()  # (source stage passes, reference passes)
    for f in _acceptance_corpus():
        diag = assemble(f)
        assert source_verdicts(diag, f) == reference_verdicts(diag, f) == (True, True, True)
        for source in [standard_factorization(f.strands + 1)] + _source_mutations(
            f, mutation_rng
        ):
            verdicts = source_verdicts(diag, source), reference_verdicts(diag, source)
            passes[tuple(v == (True, True, True) for v in verdicts)] += 1
    assert passes == {(True, True): 23, (False, True): 68, (False, False): 423}


def test_certify_refuses_a_arcs_that_cross_where_parameters_and_source_pass():
    """Standard d = 2 with one interior A vertex moved half a period in x, so
    that two A arcs cross.  ``bridge_params`` and the ledger still pass it;
    its certificate names the crossings first and the moved arc second."""
    f = standard_factorization(2)
    diag = assemble(f)
    ai = next(i for i, arc in enumerate(diag.arcs) if arc.color == "A" and len(arc.path) > 2)
    arc = diag.arcs[ai]
    x, y = arc.path[1]
    moved = arc._replace(path=(arc.path[0], (x + diag.scale[0] // 2, y), *arc.path[2:]))
    diag = diag._replace(arcs=diag.arcs[:ai] + (moved,) + diag.arcs[ai + 1:])
    params = bridge_params(diag)
    assert make_ledger(params, 2, f).all_ok
    cert = certify(diag, f)
    crossings = a_crossings(diag)
    assert not cert.ok and crossings
    assert cert.fault.startswith(f"diagram has {len(crossings)} A crossings, first: A arcs ")
    assert cert.lines[-1] == (f"triviality: skipped (source does not fit: diagram arc {ai} "
                              f"is {moved}, the source builds {arc})")
    # the crossings come first among the faults, before a source that does not validate
    short = certify(diag, Factorization(2, f.factors[:-1]))
    assert ("triviality: skipped (source does not fit: factorization does not multiply "
            "to the full twist)") in short.lines
    assert short.fault == cert.fault


def test_assembled_arcs_run_from_minus_to_plus():
    rng = random.Random(0xB51D)
    factorizations = [standard_factorization(d) for d in range(2, 6)]
    factorizations.append(Factorization(2, (BandFactor(identity(2), exponent=2),)))
    factorizations += [
        random_factorization(3, rng, moves=rng.randint(1, 15), max_conjugator_length=4)
        for _ in range(20)
    ]
    for f in factorizations:
        diag = assemble(f)
        assert endpoint_faults(diag) == []
        assert all(
            diag.bridge_points[a.start].sign == -1 and diag.bridge_points[a.end].sign == 1
            for a in diag.arcs
        )


@pytest.mark.parametrize("shift", [-8, 8, 10**6])
def test_certify_names_arc_ends_outside_the_bridge_points(shift):
    """Standard d = 2 (8 points) with every arc end moved by ``shift``: a
    negative end must not wrap round to a point, and a large one must not
    raise.  Each end is named once and checked no further, and the stages
    that read the ends run on none of them."""
    f = standard_factorization(2)
    diag = assemble(f)
    moved = diag._replace(arcs=tuple(
        arc._replace(start=arc.start + shift, end=arc.end + shift) for arc in diag.arcs))
    faults = endpoint_faults(moved)
    first = moved.arcs[0]
    assert faults[:2] == [
        f"arc 0 ({first.color}) starts at bridge point {first.start}, not one of the 8 points",
        f"arc 0 ({first.color}) ends at bridge point {first.end}, not one of the 8 points",
    ]
    outside = [fault for fault in faults if "not one of the 8 points" in fault]
    assert len(outside) == 2 * len(diag.arcs)
    # what is left: no point meets any arc end
    assert len(faults) - len(outside) == 3 * len(diag.bridge_points)
    for source, skipped in ((None, "no source factorization"),
                            (f, "bridge parameters unavailable")):
        cert = certify(moved, source)
        assert not cert.ok
        assert cert.fault == f"diagram has {len(faults)} endpoint faults, first: {faults[0]}"
        assert cert.payload["params"] is None
        assert [line for line in cert.lines if line.startswith(("bridge", "triviality"))] == [
            "bridge parameters: unavailable (endpoint faults)",
            f"triviality: skipped ({skipped})",
        ]
    with pytest.raises(DiagramError) as refused:
        bridge_params(moved)
    assert str(refused.value) == faults[0]


def test_an_arc_whose_first_vertex_leaves_its_point_is_named_where_it_starts():
    """Standard d = 2 with arc 0's first vertex moved one lattice step right:
    the one endpoint fault says where the arc starts, and the parameters are
    not counted."""
    diag = assemble(standard_factorization(2))
    arc = diag.arcs[0]
    assert (arc.color, arc.start, arc.path[0], diag.scale) == ("B", 2, (4, 3), (12, 8))
    moved = arc._replace(path=((5, 3), *arc.path[1:]))
    diag = diag._replace(arcs=(moved, *diag.arcs[1:]))
    fault = ("arc 0 (B) starts at (0.416667, 0.375000), "
             "not at its bridge point 2 (0.3333333333333333, 0.375)")
    assert endpoint_faults(diag) == [fault]
    with pytest.raises(DiagramError) as refused:
        bridge_params(diag)
    assert str(refused.value) == fault
    cert = certify(diag)
    assert cert.params is None and cert.fault == f"diagram has 1 endpoint faults, first: {fault}"


def test_check_transverse_locates_bad_segment():
    points = (
        BridgePoint(2, 6, -1),
        BridgePoint(2, 3, 1),
    )
    # A arc heading downward, on a lattice of tenths: every segment violates
    arc = Arc("A", 0, 1, ((2, 6), (2, 3)))
    diag = TorusDiagram(2, (10, 10), points, (arc,))
    v = check_transverse(diag)[0]
    assert (v.arc_index, v.color, v.segment_index) == (0, "A", 0)


def _shift_range(a1, b1, a2, b2, n):
    """Integer m for which [min(a2, b2) + m n, max(a2, b2) + m n] meets
    [min(a1, b1), max(a1, b1)]."""
    lo = math.ceil(Fraction(min(a1, b1) - max(a2, b2), n))
    return range(lo, math.floor(Fraction(max(a1, b1) - min(a2, b2), n)) + 1)


def _all_pairs_crossings(diag, color="A"):
    """Reference for ``a_crossings``: test every pair of segments of
    ``color``, over every shift by whole periods in x and y that brings their
    bounding boxes together."""
    nx, ny = diag.scale
    segs = []
    for ai, arc in enumerate(diag.arcs):
        if arc.color != color:
            continue
        for si, (p, q) in enumerate(zip(arc.path, arc.path[1:])):
            segs.append((ai, si, p, q, q[0] != p[0]))
    out = []
    for u in range(len(segs)):
        ai, si, p, q, diag1 = segs[u]
        for v in range(u + 1, len(segs)):
            bi, sj, r, s, diag2 = segs[v]
            if not (diag1 or diag2):
                continue
            for mx in _shift_range(p[0], q[0], r[0], s[0], nx):
                for my in _shift_range(p[1], q[1], r[1], s[1], ny):
                    dx, dy = mx * nx, my * ny
                    hit = _proper_crossing(p, q, (r[0] + dx, r[1] + dy), (s[0] + dx, s[1] + dy))
                    if hit is not None:
                        t, pt = hit
                        out.append((ai, si, t, bi, pt))
    return out


def _orientation(a, b, c):
    """Sign of the turn a -> b -> c: +1 left, -1 right, 0 collinear."""
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (cross > 0) - (cross < 0)


def _proper_crossing(p, q, r, s):
    """(t, point) where pq and rs cross at a point interior to both, else None.

    Proper crossing by the four orientation signs: r and s lie strictly on
    opposite sides of pq, and p and q strictly on opposite sides of rs.  t
    solves p + t (q - p) = r + u (s - r) by Cramer's rule.
    """
    if _orientation(p, q, r) * _orientation(p, q, s) >= 0:
        return None
    if _orientation(r, s, p) * _orientation(r, s, q) >= 0:
        return None
    a, c = q[0] - p[0], q[1] - p[1]
    b, e = r[0] - s[0], r[1] - s[1]
    fx, fy = r[0] - p[0], r[1] - p[1]
    t = Fraction(fx * e - b * fy, a * e - b * c)
    return t, (p[0] + t * a, p[1] + t * c)


# On a lattice of 1000 per period, quarter-period values repeat often, which
# gives horizontal, vertical, touching and collinear segments; the range
# wraps both axes and allows segments a whole period or more long.  A y
# period of 500 makes the lattice anisotropic.
_coord = st.one_of(
    st.integers(-6, 10).map(lambda k: 250 * k),
    st.integers(-1500, 2500),
)
_polyline = st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_polyline, min_size=1, max_size=5), st.sampled_from([1000, 500]),
       st.sampled_from([1000, 500]))
def test_a_crossings_matches_all_pairs_oracle(paths, ny, nx):
    arcs = tuple(Arc("A", 0, 0, tuple(path)) for path in paths)
    diag = TorusDiagram(2, (nx, ny), (), arcs)
    assert a_crossings(diag) == _all_pairs_crossings(diag)


def test_candidate_pairs_meet_in_both_axes_and_are_not_parallel():
    diag = assemble(standard_factorization(4))
    nx, ny = diag.scale
    segs = [
        (ai, si, p, q, sorted((p[0], q[0])), sorted((p[1], q[1])))
        for ai, arc in enumerate(diag.arcs)
        if arc.color == "A"
        for si, (p, q) in enumerate(zip(arc.path, arc.path[1:]))
    ]
    meet_y, expected = [], []
    for u in range(len(segs)):
        *_, p, q, _x1, _y1 = segs[u]
        for v in range(u + 1, len(segs)):
            *_, r, s, _x2, _y2 = segs[v]
            if _shift_range(p[1], q[1], r[1], s[1], ny):
                meet_y.append((u, v))
                parallel = (q[0] - p[0]) * (s[1] - r[1]) == (q[1] - p[1]) * (s[0] - r[0])
                if _shift_range(p[0], q[0], r[0], s[0], nx) and not parallel:
                    expected.append((u, v))
    assert _candidate_pairs(segs, nx, ny) == expected
    assert 0 < len(expected) < len(meet_y)  # the y sweep alone would pass more


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_a_crossings_matches_oracle_on_standard(d):
    diag = assemble(standard_factorization(d))
    assert a_crossings(diag) == _all_pairs_crossings(diag) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: one C–C crossing per tile")
@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_colour_shadow_is_embedded_on_standard(d):
    diag = assemble(standard_factorization(d))
    assert {c: _all_pairs_crossings(diag, c) for c in "ABC"} == {"A": [], "B": [], "C": []}


def _rotations(diag):
    """The certificates (no source) of ``diag`` and of its first two rotations."""
    once = rotate(diag)
    return certify(diag), certify(once), certify(rotate(once))


def test_rotation_keeps_endpoints_and_transversality_and_permutes_params():
    """The order-3 rotation of ``support.rotate`` maps each colour's rule to
    the next one's, so it keeps the endpoint and transversality verdicts and
    sends (b; c1, c2, c3) to (b; c3, c1, c2).  The second rotation's A arcs
    are the original's B arcs, which do not cross."""
    for f in [standard_factorization(d) for d in range(2, 7)] + _acceptance_corpus():
        certs = _rotations(assemble(f))
        b, c1, c2, c3 = certs[0].params[:4]
        assert [c.params[:4] for c in certs] == [(b, c1, c2, c3), (b, c3, c1, c2),
                                                (b, c2, c3, c1)]
        assert {(c.payload["endpoints"], c.payload["transverse"]) for c in certs} == {(True, True)}
        assert certs[2].payload["a_crossings"] == 0


@pytest.mark.parametrize("d, crossings", [(2, 2), (3, 6)])
def test_first_rotation_shows_the_c_crossings_as_a_crossings(d, crossings):
    diag = assemble(standard_factorization(d))
    assert len(a_crossings(rotate(diag))) == len(_all_pairs_crossings(diag, "C")) == crossings


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: one C–C crossing per tile")
def test_first_rotation_keeps_the_crossing_verdict():
    for d in range(2, 6):
        certs = _rotations(assemble(standard_factorization(d)))
        assert certs[1].payload["a_crossings"] == certs[0].payload["a_crossings"] == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: touching or overlapping A arcs")
def test_a_crossings_reports_touching_and_overlapping_arcs():
    # on a lattice of (10, 10) a vertical A arc meets the second arc at its
    # vertex (5, 5), and overlaps the third along x = 5
    vertical = Arc("A", 0, 0, ((5, 1), (5, 9)))
    others = (((1, 3), (5, 5), (9, 7)), ((5, 2), (5, 8)))
    diags = [TorusDiagram(2, (10, 10), (), (vertical, Arc("A", 0, 0, path))) for path in others]
    assert [bool(a_crossings(diag)) for diag in diags] == [True, True]


def test_a_crossings_across_both_seams():
    # arcs 0 and 1 cross only after shifting arc 1 by (+1, 0); arcs 2 and 3
    # only after shifting arc 3 by (0, +1)
    # only after shifting arc 3 by (0, +1); on a lattice of (10, 20)
    arcs = (
        Arc("A", 0, 0, ((9, 4), (11, 12))),
        Arc("A", 0, 0, ((1, 4), (-1, 12))),
        Arc("A", 0, 0, ((5, 18), (5, 22))),
        Arc("A", 0, 0, ((4, 0), (6, 2))),
    )
    diag = TorusDiagram(2, (10, 20), (), arcs)
    found = a_crossings(diag)
    assert found == _all_pairs_crossings(diag)
    assert [(ai, bi) for (ai, _si, _t, bi, _pt) in found] == [(0, 1), (2, 3)]
    assert found[0][4] == (10, 8) and found[1][4] == (5, 21)
    assert (found[0][2], found[1][2]) == (Fraction(1, 2), Fraction(3, 4))


def test_a_crossings_finds_an_arc_crossing_a_translate_of_its_neighbouring_segment():
    # segment 1 moved one period down crosses segment 0 of the same arc
    arcs = (Arc("A", 0, 1, ((0, 0), (10, 15), (0, 16))),)
    diag = TorusDiagram(2, (10, 10), (), arcs)
    found = a_crossings(diag)
    assert found == _all_pairs_crossings(diag)
    assert found == [(0, 0, Fraction(3, 8), 0, (Fraction(15, 4), Fraction(45, 8)))]


def test_exact_tests_decide_what_a_tolerance_could_not():
    # an A segment climbing one row of 10**12, and a C segment along the
    # slope-1 foliation to the last lattice step
    n = 10**12
    points = (BridgePoint(0, 0, -1), BridgePoint(0, 1, 1))
    arcs = (
        Arc("A", 0, 1, ((0, 0), (n // 2, 1))),
        Arc("C", 0, 1, ((0, 0), (n, n + 1), (2 * n, 2 * n + 1))),
    )
    violations = check_transverse(TorusDiagram(2, (n, n), points, arcs))
    assert [(v.color, v.segment_index) for v in violations] == [("C", 0), ("C", 1)]
    # two A segments crossing 10**-12 of the way along the first
    arcs = (Arc("A", 0, 0, ((0, 0), (n, n))), Arc("A", 0, 0, ((2, 0), (0, 2))))
    found = a_crossings(TorusDiagram(2, (n, n), (), arcs))
    assert [(ai, t, bi, pt) for (ai, _si, t, bi, pt) in found] == [(0, Fraction(1, n), 1, (1, 1))]
