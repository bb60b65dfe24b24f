import json
import os
import subprocess
import sys

import pytest

import braidshadow
from braidshadow.cli import run_cli
from braidshadow.diagram import Arc, BridgePoint, TorusDiagram, assemble
from braidshadow.documents import serialize_diagram, serialize_factorization
from braidshadow.factorization import BandFactor, Factorization, standard_factorization
from braidshadow.words import identity


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_standard_3(capsys):
    code, out, _ = run(capsys, ["verify", "--standard", "3"])
    assert code == 0
    assert "n = 6" in out and "product = full twist: ok" in out


def test_verify_invalid_factorization_exits_1(capsys, tmp_path):
    f = Factorization(2, (BandFactor(identity(2)),))
    path = tmp_path / "one.json"
    path.write_text(serialize_factorization(f))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert "INVALID" in out


def test_build_then_check_pipe(capsys, monkeypatch):
    code, diagram_text, _ = run(capsys, ["build", "--standard", "2"])
    assert code == 0
    code, out, _ = run(capsys, ["check", "-"], stdin=diagram_text, monkeypatch=monkeypatch)
    assert code == 0
    assert "(4; 2, 2, 2)" in out
    assert "triviality L3: ok" in out


def test_check_json_output(capsys, monkeypatch):
    _, diagram_text, _ = run(capsys, ["build", "--standard", "3"])
    code, out, _ = run(
        capsys, ["check", "-", "--json"], stdin=diagram_text, monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["params"] == {"b": 24, "c1": 3, "c2": 18, "c3": 3, "s": 12}


def test_invariants_verb(capsys, monkeypatch):
    _, diagram_text, _ = run(capsys, ["build", "--standard", "2"])
    code, out, _ = run(
        capsys, ["invariants", "-", "--json"], stdin=diagram_text, monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["genus_expected"] == 0 and doc["sl"] == [-2, -2, -2]


def test_orbit_verb(capsys):
    code, out, _ = run(capsys, ["orbit", "--standard", "2", "--budget", "10"])
    assert code == 0
    assert "orbit size: 1" in out


def test_export_verb(capsys, monkeypatch, tmp_path):
    _, diagram_text, _ = run(capsys, ["build", "--standard", "2"])
    out_path = tmp_path / "d2.svg"
    code, _, _ = run(
        capsys,
        ["export", "-", "-o", str(out_path)],
        stdin=diagram_text,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out_path.read_text().startswith("<?xml")


def test_unknown_verb_exits_2(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


def test_missing_input_exits_2(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2
    assert "no input" in err


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_reports_are_deterministic(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, ["verify", "--standard", "3", "--json"])
        outs.add(out)
    assert len(outs) == 1


def test_standard_below_two_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["build", "--standard", "1"])
    assert code == 2
    assert "--standard" in err and "Traceback" not in err


def test_orbit_zero_budget_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["orbit", "--standard", "3", "--budget", "0"])
    assert code == 2
    assert "--budget" in err


def _diagram_text(points, arcs):
    return json.dumps({"format_version": "1", "type": "diagram", "strands": 2,
                       "stabilization_count": 0, "bridge_points": points, "arcs": arcs})


def test_non_object_bridge_point_exits_2(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["check", "-"], stdin=_diagram_text([5], []), monkeypatch=monkeypatch
    )
    assert code == 2
    assert "diagram.bridge_points[0]: expected an object" in err


def test_check_fails_empty_diagram(capsys, monkeypatch):
    code, out, _ = run(capsys, ["check", "-"], stdin=_diagram_text([], []), monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: FAIL" in out and "no bridge points" in out


def test_check_fails_moved_bridge_point(capsys, monkeypatch):
    _, diagram_text, _ = run(capsys, ["build", "--standard", "2"])
    doc = json.loads(diagram_text)
    doc["bridge_points"][0].update(x=0.9, y=0.1)
    code, out, _ = run(capsys, ["check", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: FAIL" in out and "not at its bridge point 0" in out
    assert "transversality: ok" in out and "A crossings: none" in out


def test_invariants_refuses_empty_diagram(capsys, monkeypatch):
    code, out, err = run(
        capsys, ["invariants", "-"], stdin=_diagram_text([], []), monkeypatch=monkeypatch
    )
    assert code == 1 and out == ""
    assert "endpoint faults, first: diagram has no bridge points" in err


def test_invariants_refuses_moved_bridge_point(capsys, monkeypatch):
    _, diagram_text, _ = run(capsys, ["build", "--standard", "2"])
    doc = json.loads(diagram_text)
    doc["bridge_points"][0].update(x=0.9, y=0.1)
    code, out, err = run(
        capsys, ["invariants", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 1 and out == ""
    assert "endpoint faults, first: arc" in err and "not at its bridge point 0" in err


def test_invariants_refuses_non_transverse_diagram(capsys, monkeypatch):
    points = (BridgePoint(0, 0.2, 0.6, -1), BridgePoint(1, 0.2, 0.3, 1))
    arcs = (
        Arc("A", 0, 1, ((0.2, 0.6), (0.2, 1.3))),
        Arc("B", 0, 1, ((0.2, 0.6), (-0.8, 1.3))),
        Arc("C", 0, 1, ((0.2, 0.6), (0.2, 1.3))),
    )
    text = serialize_diagram(TorusDiagram(2, points, arcs))
    code, out, _ = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: ok" in out and "transversality: FAIL" in out
    code, out, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert "not transverse (1 violations), first: arc 2 (C) segment 0" in err


def _assert_both_refuse_crossing(capsys, monkeypatch, points, arcs, report):
    text = serialize_diagram(TorusDiagram(2, points, arcs))
    code, out, _ = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: ok" in out and "transversality: ok" in out
    assert "A crossings: FAIL (1)" in out
    assert report in out
    code, _, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert report in err


def test_check_and_invariants_refuse_a_crossing(capsys, monkeypatch):
    # two A arcs crossing once at (0.3, 0.4); B and C arcs close them up
    points = (
        BridgePoint(0, 0.2, 0.2, -1),
        BridgePoint(1, 0.4, 0.6, 1),
        BridgePoint(2, 0.4, 0.2, -1),
        BridgePoint(3, 0.2, 0.6, 1),
    )
    arcs = (
        Arc("A", 0, 1, ((0.2, 0.2), (0.4, 0.6))),
        Arc("A", 2, 3, ((0.4, 0.2), (0.2, 0.6))),
        Arc("B", 0, 3, ((0.2, 0.2), (-0.8, 0.6))),
        Arc("B", 2, 1, ((0.4, 0.2), (-0.6, 0.6))),
        Arc("C", 0, 1, ((0.2, 0.2), (1.4, 0.6))),
        Arc("C", 2, 3, ((0.4, 0.2), (1.2, 0.6))),
    )
    _assert_both_refuse_crossing(
        capsys, monkeypatch, points, arcs, "A arcs 0 and 1 cross at (0.300000, 0.400000)"
    )


def test_check_and_invariants_refuse_a_crossing_across_the_x_seam(capsys, monkeypatch):
    # A arcs 0 -> 1 and 2 -> 3 cross once at (0, 0.4), on the x = 0 seam
    points = (
        BridgePoint(0, 0.9, 0.2, -1),
        BridgePoint(1, 0.1, 0.6, 1),
        BridgePoint(2, 0.1, 0.2, -1),
        BridgePoint(3, 0.9, 0.6, 1),
    )
    arcs = (
        Arc("A", 0, 1, ((0.9, 0.2), (1.1, 0.6))),
        Arc("A", 2, 3, ((0.1, 0.2), (-0.1, 0.6))),
        Arc("B", 0, 3, ((0.9, 0.2), (-0.1, 0.6))),
        Arc("B", 2, 1, ((0.1, 0.2), (-0.9, 0.6))),
        Arc("C", 0, 1, ((0.9, 0.2), (2.1, 0.6))),
        Arc("C", 2, 3, ((0.1, 0.2), (0.9, 0.6))),
    )
    _assert_both_refuse_crossing(
        capsys, monkeypatch, points, arcs, "A arcs 0 and 1 cross at (0.000000, 0.400000)"
    )


def test_standard_5_build_check_invariants(capsys, monkeypatch):
    d = 5
    f = standard_factorization(d)
    n = len(f.factors)
    s = 2 * sum(len(fac.conjugator) for fac in f.factors)
    expected = {"b": 2 * n + s, "c1": d, "c2": n + s, "c3": d, "s": s}
    code, diagram_text, _ = run(capsys, ["build", "--standard", str(d)])
    assert code == 0
    code, out, _ = run(
        capsys, ["check", "-", "--json"], stdin=diagram_text, monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["a_crossings"] == 0 and doc["params"] == expected
    code, out, _ = run(
        capsys, ["invariants", "-", "--json"], stdin=diagram_text, monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and all(doc["checks"].values()) and doc["params"] == expected


def _standard_2():
    f = standard_factorization(2)
    return assemble(f), f


def _standard_2_document():
    return json.loads(serialize_diagram(*_standard_2()))


@pytest.mark.parametrize("value", [5, []])
@pytest.mark.parametrize("verb", ["check", "invariants", "export"])
def test_non_object_source_factorization_exits_2(capsys, monkeypatch, verb, value):
    doc = _standard_2_document()
    doc["source_factorization"] = value
    code, out, err = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: diagram.source_factorization: expected an object\n"


def test_boolean_wraps_exit_2(capsys, monkeypatch):
    doc = _standard_2_document()
    doc["arcs"][0]["wraps"][1] = [True, False]
    code, out, err = run(capsys, ["check", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: diagram.arcs[0].wraps[1]: expected [wx, wy] integers\n"


@pytest.mark.parametrize(
    "path, message",
    [
        (("arcs", 0, "wraps", 1, 0), "diagram.arcs[0].wraps[1]: "
         "expected [wx, wy] integers, got one too large for a float"),
        (("arcs", 0, "path", 1, 0), "diagram.arcs[0].path[1]: "
         "expected a number, got an integer too large for a float"),
        (("bridge_points", 0, "x"), "diagram.bridge_points[0].x: "
         "expected a number, got an integer too large for a float"),
    ],
)
def test_integer_too_large_for_a_float_exits_2(capsys, monkeypatch, path, message):
    doc = _standard_2_document()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10**400
    code, out, err = run(capsys, ["check", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("verb", ["check", "invariants"])
def test_negative_stabilization_count_exits_2(capsys, monkeypatch, verb):
    doc = _standard_2_document()
    doc["stabilization_count"] = -1
    code, out, err = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == (
        "error: diagram.stabilization_count: expected a non-negative integer, got -1\n"
    )


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(braidshadow.__file__)))


def _fresh_process(argv, cwd, stdin=""):
    env = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "braidshadow", *argv],
        input=stdin, capture_output=True, text=True, encoding="utf-8", cwd=cwd, env=env,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_many_calls(capsys, monkeypatch, tmp_path):
    text = serialize_diagram(*_standard_2())
    calls = [
        (["check", "-", "--json"], text),
        (["check", "-"], text),
        (["build", "--standard", "2", "-o", "d2.json"], ""),
        (["build", "--standard", "2"], ""),
        ([], ""),
        (["check", "-"], text),
        (["orbit", "--standard", "2", "--budget", "0"], ""),
        (["orbit", "--standard", "2", "--budget", "5", "--json"], ""),
        (["frobnicate"], ""),
        (["verify", "--standard", "3"], ""),
    ]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    monkeypatch.chdir(tmp_path)
    for argv, stdin in calls:
        in_process = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert in_process == _fresh_process(argv, fresh, stdin), argv
    assert (tmp_path / "d2.json").read_text() == (fresh / "d2.json").read_text() == text
