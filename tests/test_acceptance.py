"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion; the assertions
make pytest agree with the printed verdict.
"""

import json
import random
import time

import pytest

from braidshadow.diagram import (
    Arc,
    BridgeParams,
    BridgePoint,
    TorusDiagram,
    assemble,
    bridge_params,
    certify,
    check_transverse,
)
from braidshadow.documents import (
    parse_diagram,
    parse_factorization,
    serialize_diagram,
    serialize_factorization,
)
from braidshadow.factorization import (
    BandFactor,
    Factorization,
    expand,
    factorization_key,
    hurwitz_move,
    hurwitz_orbit,
    standard_factorization,
    validate,
)
from braidshadow.garside import equal
from braidshadow.handles import words_equal
from braidshadow.invariants import genus_expected, make_ledger, transverse_sl
from braidshadow.svg import export_svg
from braidshadow.words import BraidWord, full_twist, identity
from support import random_factorization


def _verdict(criterion: int, label: str, ok: bool) -> bool:
    print(f"CRITERION {criterion} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    """Shared diagram corpus: standard d = 2..4 plus 100 random d = 3."""
    rng = random.Random(0xB51D)
    entries = []
    for d in (2, 3, 4):
        f = standard_factorization(d)
        entries.append((f, assemble(f)))
    for _ in range(100):
        f = random_factorization(3, rng, moves=rng.randint(1, 15), max_conjugator_length=4)
        entries.append((f, assemble(f)))
    return entries


def test_criterion_1_standard_factorizations_validate():
    start = time.perf_counter()
    ok = True
    for d in range(2, 8):
        f = standard_factorization(d)
        report = validate(f)
        ok = ok and report.valid
        ok = ok and report.factor_count == d * d - d
        ok = ok and report.exponent_total == d * (d - 1)
        # independent cross-check of the product via handle reduction
        ok = ok and words_equal(expand(f), full_twist(d))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _verdict(1, f"standard d=2..7 validate, {elapsed:.2f}s", ok)


def test_criterion_2_parameter_formula():
    ok = True
    for d in (2, 3, 4):
        f = standard_factorization(d)
        diag = assemble(f)
        params = bridge_params(diag)
        s = 2 * sum(len(g.conjugator) for g in f.factors)
        ok = ok and params.s == s
        n = d * (d - 1)
        ok = ok and params.tuple3() == (2 * n + s, d, n + s, d)
        if d == 2:
            ok = ok and s == 0 and params.tuple3() == (4, 2, 2, 2)
    assert _verdict(2, "parameter tuple (2d(d-1)+s; d, d(d-1)+s, d)", ok)


def test_criterion_3_euler_and_genus(corpus):
    ok = True
    for f, diag in corpus:
        d = f.strands
        params = bridge_params(diag)
        ok = ok and params.euler() == 3 * d - d * d
        ok = ok and 2 - params.euler() == 2 * genus_expected(d)
    assert _verdict(3, f"Euler/genus on {len(corpus)} diagrams", ok)


def test_criterion_4_self_linking(corpus):
    ok = True
    for f, diag in corpus:
        d = f.strands
        cert = certify(diag, f)
        params = cert.params
        ok = ok and cert.ok
        # L1 closes the trivial d-braid
        sl1 = transverse_sl(identity(d))
        ok = ok and sl1 == -d == -params.c1
        ok = ok and make_ledger(params, d, f).checks["sl1_matches_braid_word"]
        # total self-linking identity at the Bennequin-equality values
        # sl_lambda = -c_lambda: sl1 + sl2 + sl3 = d^2 - 3d - b, insensitive
        # to extra stabilizations
        for extra in (0, 1, 5, 23):
            bumped = BridgeParams(
                params.b + extra, params.c1, params.c2 + extra, params.c3,
                params.s + extra,
            )
            ok = ok and -(bumped.c1 + bumped.c2 + bumped.c3) == d * d - 3 * d - bumped.b
    assert _verdict(4, "sl(L1) = -d and sum identity", ok)


def _violating_fixtures():
    """Ten hand-built diagrams, each with one known-bad segment, on a
    lattice of tenths."""
    fixtures = []

    def one_arc(color, path, expect_seg):
        points = (
            BridgePoint(0, path[0][0] % 10, path[0][1] % 10, -1),
            BridgePoint(1, path[-1][0] % 10, path[-1][1] % 10, 1),
        )
        diag = TorusDiagram(2, (10, 10), points, (Arc(color, 0, 1, tuple(path)),))
        fixtures.append((diag, 0, expect_seg))

    one_arc("A", [(2, 6), (2, 3)], 0)                   # descends
    one_arc("A", [(3, 2), (3, 2)], 0)                   # stalls
    one_arc("A", [(1, 1), (1, 5), (4, 4)], 1)           # turns down
    one_arc("B", [(8, 5), (9, 4)], 0)                   # moves right
    one_arc("B", [(8, 5), (8, 3)], 0)                   # vertical
    one_arc("B", [(9, 5), (5, 5), (6, 4)], 1)           # backtracks
    one_arc("C", [(2, 5), (1, 7)], 0)                   # y-x grows
    one_arc("C", [(2, 5), (3, 6)], 0)                   # y-x constant
    one_arc("C", [(2, 8), (6, 7), (5, 9)], 1)           # second leg bad
    one_arc("A", [(5, 1), (6, 4), (9, 4)], 1)           # flat top
    return fixtures


def test_criterion_5_transversality(corpus):
    ok = all(not check_transverse(diag) for _, diag in corpus)
    # singular tiles (k = 2) must pass as well
    cusp = Factorization(2, (BandFactor(identity(2), exponent=2),))
    ok = ok and not check_transverse(assemble(cusp))
    fixtures = _violating_fixtures()
    ok = ok and len(fixtures) == 10
    for diag, arc_idx, seg_idx in fixtures:
        violations = check_transverse(diag)
        located = any(
            v.arc_index == arc_idx and v.segment_index == seg_idx
            for v in violations
        )
        ok = ok and bool(violations) and located
    assert _verdict(5, "transverse on corpus, 10 violating fixtures located", ok)


def test_criterion_6_triviality_and_mutation(corpus):
    ok = True
    for f, diag in corpus:
        ok = ok and certify(diag, f).payload.get("trivial") == {"L1": True, "L2": True, "L3": True}
    # mutation: append sigma_2 to one conjugator after assembly; the source must fail
    rng = random.Random(606)
    failures = 0
    trials = 0
    bases = []
    for d in (3, 4):
        f = standard_factorization(d)
        bases.append((f, assemble(f)))
    for _ in range(8):
        f = random_factorization(3, rng, moves=6, max_conjugator_length=4)
        bases.append((f, assemble(f)))
    while trials < 100:
        f, diag = bases[trials % len(bases)]
        idx = rng.randrange(len(f.factors))
        factors = list(f.factors)
        g = factors[idx].conjugator
        factors[idx] = BandFactor(
            BraidWord(f.strands, g.letters + (2,)),
            factors[idx].exponent,
            factors[idx].sign,
        )
        mutated = Factorization(f.strands, tuple(factors))
        # the counts still match, but the product is no longer the full twist
        cert = certify(diag, mutated)
        if cert.fault == "factorization does not multiply to the full twist":
            failures += 1
        trials += 1
    ok = ok and failures == 100
    assert _verdict(6, f"triviality certificates, mutation failed {failures}/100", ok)


def test_criterion_7_hurwitz_properties():
    rng = random.Random(77)
    f = standard_factorization(3)
    target = full_twist(3)
    # 1000 random moves; moves whose conjugators would explode in length
    # are resampled (the walk stays inside the same Hurwitz orbit either way)
    moves = 0
    ok = True
    while moves < 1000:
        i = rng.randint(1, len(f.factors) - 1)
        nxt = hurwitz_move(f, i, rng.choice(("left", "right")))
        if any(len(g.conjugator) > 12 for g in nxt.factors):
            continue
        f = nxt
        moves += 1
        if moves % 100 == 0:
            ok = ok and equal(expand(f), target)
    ok = ok and equal(expand(f), target)
    orbit = hurwitz_orbit(standard_factorization(2), 50)
    ok = ok and orbit.size == 1 and not orbit.truncated
    runs = [
        tuple(
            factorization_key(e)
            for e in hurwitz_orbit(standard_factorization(3), 30).elements
        )
        for _ in range(5)
    ]
    ok = ok and len(set(runs)) == 1
    assert _verdict(7, "1000 moves preserve product; singleton orbit; deterministic", ok)


def test_criterion_8_oracle_agreement():
    rng = random.Random(0xFACADE)
    start = time.perf_counter()
    agree = 0
    total = 10_000
    for _ in range(total):
        d = rng.randint(2, 6)
        n1, n2 = rng.randint(0, 40), rng.randint(0, 40)
        a = BraidWord(d, tuple(rng.choice((1, -1)) * rng.randint(1, d - 1) for _ in range(n1)))
        if rng.random() < 0.5:
            b = BraidWord(d, tuple(rng.choice((1, -1)) * rng.randint(1, d - 1) for _ in range(n2)))
        else:
            # equal pair: pad a with a trivial relator
            i = rng.randint(1, d - 2) if d > 2 else 1
            pad = (i, -i) if d == 2 else (i, i + 1, i, -(i + 1), -i, -(i + 1))
            b = BraidWord(d, a.letters + pad)
        if equal(a, b) == words_equal(a, b):
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == total and elapsed < 60.0
    assert _verdict(8, f"{agree}/{total} oracle agreement in {elapsed:.1f}s", ok)


def _random_diagram_document(rng):
    nx, ny = rng.randint(1, 10**6), rng.randint(1, 10**6)
    npts = rng.randrange(2, 8) * 2
    points = tuple(
        BridgePoint(i, rng.randrange(nx), rng.randrange(ny), 1 if i % 2 == 0 else -1)
        for i in range(npts)
    )
    arcs = []
    for _ in range(rng.randrange(1, 6)):
        start, end = rng.randrange(npts), rng.randrange(npts)
        path = tuple(
            (rng.randint(-2 * nx, 3 * nx), rng.randint(-2 * ny, 3 * ny))
            for _ in range(rng.randrange(2, 5))
        )
        arcs.append(Arc(rng.choice("ABC"), start, end, path))
    return TorusDiagram(rng.randrange(2, 6), (nx, ny), points, tuple(arcs))


def test_criterion_9_io_round_trips():
    rng = random.Random(909)
    ok = True
    for _ in range(1000):
        d = rng.randint(2, 5)
        factors = tuple(
            BandFactor(
                BraidWord(
                    d,
                    tuple(
                        rng.choice((1, -1)) * rng.randint(1, d - 1)
                        for _ in range(rng.randrange(5))
                    ),
                ),
                exponent=rng.randint(1, 3),
                sign=rng.choice((1, -1)),
            )
            for _ in range(rng.randrange(5))
        )
        f = Factorization(d, factors)
        ok = ok and parse_factorization(serialize_factorization(f)) == f
    for _ in range(1000):
        diag = _random_diagram_document(rng)
        loaded, _ = parse_diagram(serialize_diagram(diag))
        ok = ok and loaded == diag
    # built diagrams round-trip with their source embedded
    for d in (2, 3):
        f = standard_factorization(d)
        diag = assemble(f)
        loaded, source = parse_diagram(serialize_diagram(diag, source=f))
        ok = ok and loaded == diag and source == f
        ok = ok and export_svg(diag) == export_svg(loaded)
    assert _verdict(9, "2000 document round-trips, SVG deterministic", ok)
