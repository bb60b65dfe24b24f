import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import braidshadow
from braidshadow import garside
from braidshadow.cli import run_cli
from braidshadow.diagram import (
    Arc,
    BridgePoint,
    DiagramError,
    TorusDiagram,
    assemble,
    bridge_params,
    certify,
)
from braidshadow.documents import (
    DocumentError,
    parse_diagram,
    serialize_diagram,
    serialize_factorization,
)
from braidshadow.factorization import (
    MAX_EXPONENT,
    BandFactor,
    Factorization,
    hurwitz_move,
    standard_factorization,
)
from braidshadow.words import BraidWord, identity
from support import CUSP_3, FLIPPED_3, band, random_factorization, renumber
from test_diagram import _acceptance_corpus

_TESTS = os.path.dirname(os.path.abspath(__file__))


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_package_exports_resolve_sorted_and_unique():
    names = braidshadow.__all__
    assert [name for name in names if not hasattr(braidshadow, name)] == []
    assert names == sorted(set(names))


def _readme_python(needle):
    """The README's Python example that contains ``needle``."""
    with open(os.path.join(_TESTS, os.pardir, "README.md"), encoding="utf-8") as fh:
        blocks = [b.split("```", 1)[0] for b in fh.read().split("```python\n")[1:]]
    return next(b for b in blocks if needle in b)


def test_readme_library_example_runs():
    exec(_readme_python("certify("), {})


def test_readme_orbit_example_runs():
    exec(_readme_python("hurwitz_orbit("), {})


def test_readme_migration_of_a_version_2_document_gives_build_output(capsys):
    # the README's edit of the version-2 ``build --standard 2`` document
    namespace = {}
    exec(_readme_python('"stabilization_count"'), namespace)
    old = pathlib.Path(_TESTS, "v2_standard_2.json").read_text(encoding="utf-8")
    code, built, _ = run(capsys, ["build", "--standard", "2"])
    assert code == 0
    assert namespace["to_version_3"](old) == built


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_verify_standard(capsys, d):
    code, out, _ = run(capsys, ["verify", "--standard", str(d)])
    assert code == 0
    assert f"n = {d * d - d}" in out and "product = full twist: ok" in out
    assert out.splitlines()[-1] == "result: valid"


def test_verify_json_keys(capsys):
    code, out, _ = run(capsys, ["verify", "--standard", "3", "--json"])
    assert code == 0
    assert set(json.loads(out)) == {
        "exponent_total", "factor_count", "smooth", "strands", "valid",
    }


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
    for text, message in [
        ("[]", "top level: expected a JSON object"),
        ('{"format_version":"1","strands":0,"factors":[]}',
         "factorization.strands: expected an integer >= 1, got 0"),
    ]:
        path.write_text(text)
        assert run(capsys, ["verify", str(path)]) == (2, "", f"error: {message}\n")


_NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize("verb", ["verify", "build", "orbit", "check", "invariants", "export"])
def test_input_that_is_not_utf8_exits_2(capsys, tmp_path, verb):
    path = tmp_path / "bad.json"
    path.write_bytes(_NOT_UTF8)
    code, out, err = run(capsys, [verb, str(path)])
    assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text (byte offset 0)\n")


@pytest.mark.parametrize("verb", ["check", "invariants"])
def test_fact_file_that_is_not_utf8_exits_2(capsys, monkeypatch, tmp_path, verb):
    _, diagram_text, _ = run(capsys, ["build", "--standard", "2"])
    path = tmp_path / "bad.json"
    path.write_bytes(b"{}" + _NOT_UTF8)
    argv = [verb, "-", "--fact", str(path)]
    code, out, err = run(capsys, argv, stdin=diagram_text, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text (byte offset 2)\n")


def test_stdin_that_is_not_utf8_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(_NOT_UTF8), encoding="utf-8"))
    code, out, err = run(capsys, ["check", "-"])
    assert (code, out, err) == (2, "", "error: stdin: not UTF-8 text (byte offset 0)\n")


@pytest.mark.parametrize("verb", ["check", "verify"])
@pytest.mark.parametrize("data, offset", [(_NOT_UTF8, 0), ('{"é": "'.encode() + b'\xff"}', 8)])
def test_stdin_decoded_with_surrogateescape_is_refused(capsys, monkeypatch, verb, data, offset):
    # the offset counts bytes, not characters, up to the first bad byte
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, [verb, "-"])
    assert (code, out, err) == (2, "", f"error: stdin: not UTF-8 text (byte offset {offset})\n")


@pytest.mark.parametrize("through_file", [True, False])
def test_deeply_nested_json_exits_2(capsys, monkeypatch, tmp_path, through_file):
    text = "[" * 200000 + "]" * 200000
    if through_file:
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, ["check", str(path)])
    else:
        code, out, err = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: invalid JSON: nested too deeply\n")


def test_reports_are_deterministic(capsys, monkeypatch, tmp_path):
    # str hashes are salted per process, so only fresh processes under two
    # hash seeds show an output that follows hash order
    _, document, _ = run(capsys, ["build", "--standard", "4"])
    (tmp_path / "d4.json").write_text(document, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in (["build", "--standard", "4"], ["check", "--json", "d4.json"],
                 ["invariants", "--json", "d4.json"], ["export", "d4.json"],
                 ["orbit", "--standard", "3", "--budget", "200", "--json"]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        for seed in ("1", "2"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            assert _fresh_process(argv, tmp_path) == (0, out, ""), (argv, seed)


def test_standard_below_two_is_a_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, ["build", "--standard", "1"])
    assert code == 2
    assert "--standard" in err and "Traceback" not in err
    # a one-strand document is read: it is valid, but assembly refuses it
    one = '{"format_version":"1","type":"factorization","strands":1,"factors":[]}'
    assert run(capsys, ["build", "-"], stdin=one, monkeypatch=monkeypatch) == (
        1, "", "failed: diagram assembly needs at least 2 strands\n")
    code, out, _ = run(capsys, ["verify", "-"], stdin=one, monkeypatch=monkeypatch)
    assert (code, out.splitlines()[-1]) == (0, "result: valid")
    # above the strand bound, refused before a band is built
    monkeypatch.setattr("braidshadow.cli.standard_factorization",
                        lambda d: pytest.fail(f"standard_factorization({d}) was called"))
    for verb in ("verify", "build", "orbit"):
        assert run(capsys, [verb, "--standard", "1001"]) == (
            2, "", "error: --standard: expected an integer <= 1000\n")


def test_orbit_zero_budget_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["orbit", "--standard", "3", "--budget", "0"])
    assert code == 2
    assert "--budget" in err


def _diagram_text(points, arcs):
    return json.dumps({"format_version": "3", "type": "diagram", "strands": 2, "scale": [1, 1],
                       "bridge_points": points, "arcs": arcs})


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
    assert doc["scale"] == [12, 8]
    doc["bridge_points"][0].update(x=10, y=1)
    code, out, _ = run(capsys, ["check", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: FAIL" in out
    assert "not at its bridge point 0 (0.8333333333333334, 0.125)" in out
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
    doc["bridge_points"][0].update(x=10, y=1)
    code, out, err = run(
        capsys, ["invariants", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 1 and out == ""
    assert "endpoint faults, first: arc" in err and "not at its bridge point 0" in err


def test_invariants_refuses_non_transverse_diagram(capsys, monkeypatch):
    # on a lattice of tenths
    points = (BridgePoint(2, 6, -1), BridgePoint(2, 3, 1))
    arcs = (
        Arc("A", 0, 1, ((2, 6), (2, 13))),
        Arc("B", 0, 1, ((2, 6), (-8, 13))),
        Arc("C", 0, 1, ((2, 6), (2, 13))),
    )
    text = serialize_diagram(TorusDiagram(2, (10, 10), points, arcs))
    code, out, _ = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: ok" in out and "transversality: FAIL" in out
    code, out, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err == (
        "failed: diagram is not transverse (1 violations), first: arc 2 (C) segment 0: "
        "C segment not moving strictly down-right [(0.2, 0.6) -> (0.2, 1.3)]\n"
    )


def _assert_both_refuse_crossing(capsys, monkeypatch, points, arcs, report):
    text = serialize_diagram(TorusDiagram(2, (10, 10), points, arcs))
    code, out, _ = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: ok" in out and "transversality: ok" in out
    assert "A crossings: FAIL (1)" in out
    assert report in out
    code, _, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert report in err


def test_check_and_invariants_refuse_a_crossing(capsys, monkeypatch):
    # two A arcs crossing once at (0.3, 0.4), on a lattice of tenths; B and
    # C arcs close them up
    points = (
        BridgePoint(2, 2, -1),
        BridgePoint(4, 6, 1),
        BridgePoint(4, 2, -1),
        BridgePoint(2, 6, 1),
    )
    arcs = (
        Arc("A", 0, 1, ((2, 2), (4, 6))),
        Arc("A", 2, 3, ((4, 2), (2, 6))),
        Arc("B", 0, 3, ((2, 2), (-8, 6))),
        Arc("B", 2, 1, ((4, 2), (-6, 6))),
        Arc("C", 0, 1, ((2, 2), (14, 6))),
        Arc("C", 2, 3, ((4, 2), (12, 6))),
    )
    _assert_both_refuse_crossing(
        capsys, monkeypatch, points, arcs, "A arcs 0 and 1 cross at (0.300000, 0.400000)"
    )


def test_check_and_invariants_refuse_a_crossing_across_the_x_seam(capsys, monkeypatch):
    # A arcs 0 -> 1 and 2 -> 3 cross once at (0, 0.4), on the x = 0 seam
    points = (
        BridgePoint(9, 2, -1),
        BridgePoint(1, 6, 1),
        BridgePoint(1, 2, -1),
        BridgePoint(9, 6, 1),
    )
    arcs = (
        Arc("A", 0, 1, ((9, 2), (11, 6))),
        Arc("A", 2, 3, ((1, 2), (-1, 6))),
        Arc("B", 0, 3, ((9, 2), (-1, 6))),
        Arc("B", 2, 1, ((1, 2), (-9, 6))),
        Arc("C", 0, 1, ((9, 2), (21, 6))),
        Arc("C", 2, 3, ((1, 2), (9, 6))),
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


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("strands", [1001, 10**3999])
@pytest.mark.parametrize("verb", ["verify", "build", "orbit", "check", "invariants", "export"])
def test_strand_count_above_the_bound_exits_2(capsys, monkeypatch, verb, strands):
    if verb in ("verify", "build", "orbit"):
        doc = {"format_version": "1", "type": "factorization", "strands": strands, "factors": []}
        docs = [(doc, "factorization.strands")]
    else:
        diagram, embedded = _standard_2_document(), _standard_2_document()
        diagram["strands"] = strands
        embedded["source_factorization"]["strands"] = strands
        docs = [(diagram, "diagram.strands"), (embedded, "diagram.source_factorization.strands")]
    for doc, path in docs:
        code, out, err = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", f"error: {path}: expected an integer <= 1000\n")


@pytest.mark.parametrize("strands", [0, -3])
@pytest.mark.parametrize("verb", ["verify", "build", "orbit", "check", "invariants", "export"])
def test_strand_count_below_one_exits_2(capsys, monkeypatch, verb, strands):
    # refused before any factor is read, so the band's own refusal is never reached
    factors = [{"conjugator": [1], "exponent": 1, "sign": 1}]
    if verb in ("verify", "build", "orbit"):
        doc = {"format_version": "1", "type": "factorization", "strands": strands,
               "factors": factors}
        path = "factorization.strands"
    else:
        doc = _standard_2_document()
        doc["source_factorization"].update(strands=strands, factors=factors)
        path = "diagram.source_factorization.strands"
    code, out, err = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: {path}: expected an integer >= 1, got {strands}\n")


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(braidshadow.__file__)))


def _fresh_process(argv, cwd, stdin=""):
    env = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "braidshadow", *argv],
        input=stdin, capture_output=True, text=True, encoding="utf-8", cwd=cwd, env=env,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("errors", ["surrogateescape", "strict"])
def test_build_piped_into_check_between_processes(errors):
    env = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               PYTHONIOENCODING=f"utf-8:{errors}")
    command = [sys.executable, "-m", "braidshadow"]
    build = subprocess.Popen(command + ["build", "--standard", "2"], stdout=subprocess.PIPE,
                             env=env)
    check = subprocess.run(command + ["check", "-"], stdin=build.stdout, capture_output=True,
                           env=env, timeout=60)
    build.stdout.close()
    assert build.wait(timeout=60) == 0
    assert (check.returncode, check.stderr) == (0, b"")
    assert check.stdout.endswith(b"result: pass\n")
    bad = subprocess.run(command + ["check", "-"], input=_NOT_UTF8, capture_output=True,
                         env=env, timeout=60)
    assert (bad.returncode, bad.stdout, bad.stderr) == (
        2, b"", b"error: stdin: not UTF-8 text (byte offset 0)\n")


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


_GOLDEN = json.loads(pathlib.Path(_TESTS, "golden_reports.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("argv", [["check"], ["check", "--json"], ["invariants"],
                                  ["invariants", "--json"]])
def test_reports_match_golden_output(capsys, monkeypatch, d, argv):
    f = standard_factorization(d)
    text = serialize_diagram(assemble(f), source=f)
    code, out, err = run(capsys, [*argv, "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == _GOLDEN[f"{d} {' '.join(argv)}"]


def _verify_golden_cases():
    s3 = standard_factorization(3)
    first = s3.factors[0]
    appended = band(3, first.conjugator.letters + (2,), first.exponent, first.sign)
    return [
        ("--standard 2", None),
        ("--standard 3", None),
        ("standard 3 without its last band", Factorization(3, s3.factors[:-1])),
        ("standard 3 with sigma_2 on band 1's conjugator",
         Factorization(3, (appended,) + s3.factors[1:])),
        ("sigma_1^2", Factorization(2, (band(2, (), 2),))),
    ]


@pytest.mark.parametrize("label, f", _verify_golden_cases())
def test_verify_matches_golden_output(capsys, monkeypatch, label, f):
    """Exit code and stdout of ``verify`` and ``verify --json`` byte for
    byte, one input per branch: both checks ok, the sum and so the product
    FAIL, the sum ok and the product FAIL, and a valid but not smooth start
    with no "(expected n)"."""
    for flags in ([], ["--json"]):
        if f is None:
            argv, stdin = ["verify", *label.split(), *flags], None
        else:
            argv, stdin = ["verify", "-", *flags], serialize_factorization(f)
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert err == ""
        assert {"exit": code, "stdout": out} == _GOLDEN[" ".join(["verify", label, *flags])]


def _move_a_vertex_half_a_period(doc):
    """Move the first interior vertex of an A arc by half a period in x."""
    for arc in doc["arcs"]:
        if arc["color"] == "A" and len(arc["path"]) > 2:
            arc["path"][1][0] += doc["scale"][0] // 2
            return


def _move_point(doc):
    p = doc["bridge_points"][0]
    p["x"] = (p["x"] + 1) % doc["scale"][0]


def _append_letter(doc):
    source = doc["source_factorization"]
    source["factors"][0]["conjugator"].append(2 if source["strands"] > 2 else 1)


_NEXT_COLOR = {"A": "B", "B": "C", "C": "A"}

_CORRUPTIONS = (
    lambda doc: doc["bridge_points"][0].update(sign=-doc["bridge_points"][0]["sign"]),
    _move_point,
    lambda doc: doc["arcs"].pop(),
    lambda doc: doc["arcs"][0].update(color=_NEXT_COLOR[doc["arcs"][0]["color"]]),
    lambda doc: doc.pop("source_factorization"),
    lambda doc: doc["source_factorization"]["factors"].pop(),
    _append_letter,
    _move_a_vertex_half_a_period,
)


def _pinned_documents():
    """Standard d = 2..5 and the acceptance corpus, each as built and under
    each of the eight corruptions above."""
    texts = [serialize_diagram(assemble(f), source=f)
             for f in [standard_factorization(d) for d in range(2, 6)] + _acceptance_corpus()]
    for text in texts:
        yield text
        for corrupt in _CORRUPTIONS:
            doc = json.loads(text)
            corrupt(doc)
            yield json.dumps(doc)


_REPORT_VERBS = (["check"], ["check", "--json"], ["invariants"], ["invariants", "--json"])


def _report(argv, text):
    """(exit code, stdout, stderr) of ``run_cli(argv)`` with ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _pinned_reports():
    """Each pinned document with its reports, in the order of ``_REPORT_VERBS``."""
    return tuple(
        (text, tuple(_report([*argv, "-"], text) for argv in _REPORT_VERBS))
        for text in _pinned_documents()
    )


# One sha256 per class of pinned document: as built, then each of ``_CORRUPTIONS``.
_PINNED_DIGESTS = (
    # as built
    "b361856f7ce9009baceda6eaf5b2c1237307dcf7442eb49afa9e861c36329779",
    # bridge point 0's sign flipped
    "d3512d0becde17096d89820700100cc2d744cbd887068557ccad899c45ddb6c5",
    # bridge point 0 moved
    "27f5e80b1e6aa18babc83a66ee67aff136f8ba98846ac2eef0e09ab25b14db61",
    # last arc dropped
    "dcf9b2f191a9b2ce6027ed6f16ee63c09f30a644979f3a2b299e85ae9f563a46",
    # arc 0 recoloured
    "252d01f712f05fcdeb793d2721e2cb17b589c82171aaec9030f2ac41841da6d9",
    # source dropped
    "47a0be82418f31b09587a0e7a657a7935c7c7f49f907e12740e6327b50874363",
    # source's last band dropped
    "becdce492c0df610f59a9e1c327e301460c5630c0d3f1f4c4151bc5da116d7a6",
    # letter appended to a conjugator
    "8f9909015993085a61c93089537088af585010f768e1cd472f41baa840c01563",
    # A vertex moved half a period
    "c9ac7bd2f48efba9b6bb6e039f4c09d48332880e61cce7607be60cfe79d34379",
)


def test_check_and_invariants_reports_are_pinned():
    """Exit code, stdout and stderr of ``check`` and ``invariants``, plain
    and ``--json``, on passing and refused documents alike: one sha256 per
    class of document, over its reports in order."""
    digests = [hashlib.sha256() for _ in _PINNED_DIGESTS]
    for i, (_text, reports) in enumerate(_pinned_reports()):
        for report in reports:
            digests[i % len(digests)].update(json.dumps(report).encode())
    assert tuple(digest.hexdigest() for digest in digests) == _PINNED_DIGESTS


def test_certificate_is_the_verdict_of_check_and_invariants():
    """On every pinned document the reader accepts, ``certify`` passes
    exactly when ``check`` exits 0, ``check`` prints the certificate's lines
    and payload, and ``invariants`` refuses a failing certificate with its
    first fault."""
    verdicts = set()
    for text, (check, check_json, invariants, _invariants_json) in _pinned_reports():
        try:
            diag, source = parse_diagram(text)
        except DocumentError:
            assert check[0] == 2
            continue
        cert = certify(diag, source)
        assert cert.ok == (check[0] == 0)
        result = f"result: {'pass' if cert.ok else 'FAIL'}"
        assert check[1] == "".join(f"{line}\n" for line in [*cert.lines, result])
        assert json.loads(check_json[1]) == {**cert.payload, "ok": cert.ok}
        if not cert.ok:
            assert invariants == (1, "", f"failed: {cert.fault}\n")
        verdicts.add(cert.ok)
    assert verdicts == {True, False}


def test_arcs_running_from_plus_to_minus_are_refused(capsys, monkeypatch):
    doc = _standard_2_document()
    for point in doc["bridge_points"]:
        point["sign"] = -point["sign"]
    text = json.dumps(doc)
    code, out, _ = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: FAIL" in out and "result: FAIL" in out
    assert out.splitlines()[1:3] == [
        "  arc 0 (B) starts at bridge point 2, a (+) point; arcs run from (-) to (+)",
        "  arc 0 (B) ends at bridge point 0, a (-) point; arcs run from (-) to (+)",
    ]
    code, out, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("failed: diagram has 24 endpoint faults, first: arc 0 (B) starts at")


def _refused_by_both_verbs(capsys, monkeypatch, text, misfit):
    """``check`` and ``invariants`` both exit 1 on ``text``, naming ``misfit``."""
    code, out, err = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [f"triviality: skipped (source does not fit: {misfit})",
                                     "result: FAIL"]
    assert run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch) == (
        1, "", f"failed: {misfit}\n")


def test_check_refuses_a_diagram_of_a_moved_source(capsys, monkeypatch):
    # the moved factorization has the unmoved one's counts, but longer conjugators
    source = standard_factorization(3)
    moved = hurwitz_move(hurwitz_move(source, 2, "right"), 4, "left")
    text = serialize_diagram(assemble(moved), source=source)
    _refused_by_both_verbs(capsys, monkeypatch, text,
                           "diagram scale is (16, 104), the source builds (16, 72)")


def test_check_refuses_a_c_arc_wrapped_one_period_further(capsys, monkeypatch):
    f = standard_factorization(3)
    doc = json.loads(serialize_diagram(assemble(f), source=f))
    arc = doc["arcs"][3]
    assert (arc["color"], arc["start"], arc["end"]) == ("C", 3, 0)  # m1 -> p0 of tile 1
    arc["path"][-1][0] += doc["scale"][0]
    _refused_by_both_verbs(
        capsys, monkeypatch, json.dumps(doc),
        "diagram arc 3 is Arc(color='C', start=3, end=0, path=((8, 3), (36, 1))), "
        "the source builds Arc(color='C', start=3, end=0, path=((8, 3), (20, 1)))")


def test_renumbered_points_and_arcs_keep_every_report_without_a_source():
    """Consistent renumbering, a must-pass class of ROADMAP item 10: with no
    source, ``check``, ``check --json`` and ``invariants --json`` print the
    same bytes and ``export`` draws the same points.  With the source
    embedded, item 1's exact rule names the first renumbered field, today's
    declared limit."""
    rng = random.Random(33)
    for f in [standard_factorization(d) for d in (2, 3, 4)] + _acceptance_corpus()[3:6]:
        diag = assemble(f)
        moved = renumber(diag, rng)
        assert moved != diag
        text, moved_text = serialize_diagram(diag), serialize_diagram(moved)
        assert _report(["check", "-"], text)[0] == 0
        for argv in (["check"], ["check", "--json"], ["invariants", "--json"]):
            assert _report([*argv, "-"], moved_text) == _report([*argv, "-"], text), argv
        circles = [_report(["export", "-"], t)[1].count("<circle") for t in (text, moved_text)]
        assert circles == [len(diag.bridge_points)] * 2
        code, out, _ = _report(["check", "-"], serialize_diagram(moved, source=f))
        assert code == 1
        assert out.splitlines()[-2].startswith(tuple(
            f"triviality: skipped (source does not fit: diagram {kind} "
            for kind in ("bridge point", "arc")))


def test_loop_arc_is_refused(capsys, monkeypatch):
    # three bridge points on a lattice of tenths; A arc 0 runs from point 0
    # back to itself, once around the y period
    points = (BridgePoint(2, 2, -1), BridgePoint(4, 6, 1), BridgePoint(6, 2, -1))
    arcs = (
        Arc("A", 0, 0, ((2, 2), (2, 12))),
        Arc("A", 2, 1, ((6, 2), (4, 6))),
        Arc("B", 0, 1, ((2, 2), (-6, 6))),
        Arc("C", 2, 1, ((6, 2), (14, 6))),
    )
    text = serialize_diagram(TorusDiagram(2, (10, 10), points, arcs))
    code, out, _ = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "endpoints: FAIL" in out
    assert "bridge parameters: unavailable (endpoint faults)" in out
    assert "  bridge point 0 meets 2 A arc ends, expected 1" in out.splitlines()
    code, out, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("failed: diagram has ")


def test_a_diagram_failing_every_stage_lists_each_and_faults_on_the_first(capsys, monkeypatch):
    # on a lattice of tenths: A arcs 0 and 1 cross, B arc 0 runs right, and
    # both C arcs end at point 1, so no C arc ends at point 3
    points = (
        BridgePoint(2, 2, -1),
        BridgePoint(4, 6, 1),
        BridgePoint(4, 2, -1),
        BridgePoint(2, 6, 1),
    )
    arcs = (
        Arc("A", 0, 1, ((2, 2), (4, 6))),
        Arc("A", 2, 3, ((4, 2), (2, 6))),
        Arc("B", 0, 3, ((2, 2), (12, 6))),
        Arc("B", 2, 1, ((4, 2), (-6, 6))),
        Arc("C", 0, 1, ((2, 2), (14, 6))),
        Arc("C", 2, 1, ((4, 2), (14, 6))),
    )
    diag = TorusDiagram(2, (10, 10), points, arcs)
    cert = certify(diag)
    assert cert.params is None
    assert cert.fault == ("diagram has 2 endpoint faults, "
                          "first: bridge point 1 meets 2 C arc ends, expected 1")
    assert cert.lines == [
        "endpoints: FAIL",
        "  bridge point 1 meets 2 C arc ends, expected 1",
        "  bridge point 3 meets 0 C arc ends, expected 1",
        "transversality: FAIL",
        "  arc 2 (B) segment 0: B segment not moving strictly left [(0.2, 0.2) -> (1.2, 0.6)]",
        "A crossings: FAIL (1)",
        "  A arcs 0 and 1 cross at (0.300000, 0.400000)",
        "bridge parameters: unavailable (endpoint faults)",
        "triviality: skipped (no source factorization)",
    ]
    text = serialize_diagram(diag)
    code, out, err = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    assert out == "".join(f"{line}\n" for line in [*cert.lines, "result: FAIL"])
    code, out, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", f"failed: {cert.fault}\n")


def test_check_skips_triviality_when_parameters_are_unavailable(capsys, monkeypatch):
    """Standard d = 2 with C arc 2's end moved onto bridge point 0: the
    fault is listed once, in the endpoint stage, the parameters are not
    counted, and ``bridge_params`` refuses the diagram with the stage's
    first fault."""
    doc = _standard_2_document()
    assert (doc["arcs"][2]["color"], doc["arcs"][2]["end"]) == ("C", 1)
    doc["arcs"][2]["end"] = 0  # bridge point 0 now meets two C arcs
    text = json.dumps(doc)
    code, out, err = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "endpoints: FAIL",
        "  arc 2 (C) ends at (0.666667, 0.125000), not at its bridge point 0 "
        "(0.3333333333333333, 0.125)",
        "  bridge point 0 meets 2 C arc ends, expected 1",
        "  bridge point 1 meets 0 C arc ends, expected 1",
        "transversality: ok",
        "A crossings: none",
        "bridge parameters: unavailable (endpoint faults)",
        "triviality: skipped (bridge parameters unavailable)",
        "result: FAIL",
    ]
    with pytest.raises(DiagramError) as refused:
        bridge_params(parse_diagram(text)[0])
    assert str(refused.value) == out.splitlines()[1].strip()
    code, out, err = run(capsys, ["check", "--json", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (1, "") and json.loads(out)["params"] is None


def test_export_has_no_fact_option(capsys, monkeypatch, tmp_path):
    fact = tmp_path / "f.json"
    fact.write_text(serialize_factorization(standard_factorization(2)))
    code, out, err = run(
        capsys, ["export", "-", "--fact", str(fact)],
        stdin=serialize_diagram(*_standard_2()), monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --fact" in err


@pytest.mark.parametrize("argv", [["build", "--standard", "2", "--json"],
                                  ["export", "-", "--json"]])
def test_build_and_export_have_no_json_option(capsys, monkeypatch, argv):
    code, out, err = run(capsys, argv, stdin=serialize_diagram(*_standard_2()),
                         monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("usage: braidshadow") and "unrecognized arguments: --json" in err


def _fact_file(tmp_path, f):
    path = tmp_path / "fact.json"
    path.write_text(serialize_factorization(f))
    return str(path)


@pytest.mark.parametrize("argv", [["check"], ["check", "--json"], ["invariants"],
                                  ["invariants", "--json"]])
def test_fact_option_stands_in_for_the_embedded_source(capsys, monkeypatch, tmp_path, argv):
    f = standard_factorization(3)
    diag = assemble(f)
    embedded = run(
        capsys, [*argv, "-"], stdin=serialize_diagram(diag, source=f), monkeypatch=monkeypatch
    )
    given = run(
        capsys, [*argv, "-", "--fact", _fact_file(tmp_path, f)],
        stdin=serialize_diagram(diag), monkeypatch=monkeypatch,
    )
    assert given == embedded
    assert embedded[0] == 0


_MISSES_THE_FULL_TWIST = "factorization does not multiply to the full twist"


def test_fact_option_with_a_mutated_conjugator_fails_l3(capsys, monkeypatch, tmp_path):
    f = standard_factorization(3)
    text = serialize_diagram(assemble(f))
    factors = list(f.factors)
    g = factors[0].conjugator
    factors[0] = BandFactor(BraidWord(3, g.letters + (2,)))
    fact = _fact_file(tmp_path, Factorization(3, tuple(factors)))
    code, out, _ = run(capsys, ["check", "-", "--fact", fact], stdin=text,
                       monkeypatch=monkeypatch)
    assert code == 1
    assert out.splitlines()[-2:] == [
        f"triviality: skipped (source does not fit: {_MISSES_THE_FULL_TWIST})", "result: FAIL"]


# A document whose ``type`` names the other kind is refused before its
# version is read; one without a ``type`` is still read.
_DIAGRAM_NOT_FACTORIZATION = "error: factorization.type: expected 'factorization', got 'diagram'\n"


@pytest.mark.parametrize("verb", ["check", "invariants"])
def test_fact_from_stdin_when_the_diagram_is_read_from_stdin_exits_2(capsys, monkeypatch, verb):
    text = serialize_diagram(*_standard_2())
    code, out, err = run(capsys, [verb, "-", "--fact", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: --fact: stdin is already the diagram input\n")
    assert sys.stdin.read() == text  # refused before anything was read


@pytest.mark.parametrize("verb", ["verify", "build", "orbit"])
def test_a_diagram_document_given_as_a_factorization_exits_2(capsys, tmp_path, verb):
    path = tmp_path / "d.json"
    path.write_text(serialize_diagram(*_standard_2()))
    assert run(capsys, [verb, str(path)]) == (2, "", _DIAGRAM_NOT_FACTORIZATION)


@pytest.mark.parametrize("verb", ["check", "invariants"])
def test_a_diagram_document_given_as_fact_exits_2(capsys, monkeypatch, tmp_path, verb):
    path = tmp_path / "d.json"
    path.write_text(serialize_diagram(*_standard_2()))
    code, out, err = run(capsys, [verb, "-", "--fact", str(path)],
                         stdin=serialize_diagram(_standard_2()[0]), monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", _DIAGRAM_NOT_FACTORIZATION)


@pytest.mark.parametrize("verb", ["check", "invariants", "export"])
def test_a_factorization_document_given_as_a_diagram_exits_2(capsys, tmp_path, verb):
    path = tmp_path / "f.json"
    path.write_text(serialize_factorization(standard_factorization(2)))
    assert run(capsys, [verb, str(path)]) == (
        2, "", "error: diagram.type: expected 'diagram', got 'factorization'\n")


@pytest.mark.parametrize("verb", ["check", "invariants", "export"])
@pytest.mark.parametrize("path, value, message", [
    ((), "factorization", "diagram.type: expected 'diagram', got 'factorization'"),
    (("source_factorization",), "diagram",
     "diagram.source_factorization.type: expected 'factorization', got 'diagram'"),
])
def test_a_document_whose_type_names_the_other_kind_exits_2(
    capsys, monkeypatch, verb, path, value, message
):
    doc = _standard_2_document()
    _set(doc, path + ("type",), value)
    code, out, err = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("verb", ["check", "invariants", "export"])
def test_documents_without_a_type_are_read(capsys, monkeypatch, verb):
    doc = _standard_2_document()
    expected = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    del doc["type"], doc["source_factorization"]["type"]
    assert run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("verb", ["check", "invariants"])
def test_fact_option_on_the_wrong_strand_count_fails(capsys, monkeypatch, tmp_path, verb):
    fact = _fact_file(tmp_path, standard_factorization(3))
    text = serialize_diagram(*_standard_2())

    def refuse(_f):
        raise AssertionError("a source on the wrong strand count is assembled")

    monkeypatch.setattr(braidshadow.diagram, "assemble", refuse)
    code, out, err = run(capsys, [verb, "-", "--fact", fact], stdin=text, monkeypatch=monkeypatch)
    misfit = "the source has 3 strands, the diagram 2"
    if verb == "invariants":
        assert (code, out, err) == (1, "", f"failed: {misfit}\n")
        return
    # check still reports every stage the diagram passed on its own
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "endpoints: ok",
        "transversality: ok",
        "A crossings: none",
        "parameters: (b; c1, c2, c3) = (4; 2, 2, 2), s = 0",
        f"triviality: skipped (source does not fit: {misfit})",
        "result: FAIL",
    ]


def _with_mutated_source(text):
    """The document with sigma_2 appended to factor 0's conjugator in its source."""
    doc = json.loads(text)
    doc["source_factorization"]["factors"][0]["conjugator"].append(2)
    return json.dumps(doc)


def test_check_fails_l3_for_a_source_that_misses_the_full_twist(capsys, monkeypatch):
    text = _with_mutated_source(serialize_diagram(*_standard_3()))
    code, out, err = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [
        f"triviality: skipped (source does not fit: {_MISSES_THE_FULL_TWIST})", "result: FAIL"]


def test_invariants_fails_for_a_source_that_misses_the_full_twist(capsys, monkeypatch):
    text = _with_mutated_source(serialize_diagram(*_standard_3()))
    code, out, err = run(capsys, ["invariants", "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err == f"failed: {_MISSES_THE_FULL_TWIST}\n"


def _standard_3():
    f = standard_factorization(3)
    return assemble(f), f


@pytest.mark.parametrize("strands", [0, -3])
@pytest.mark.parametrize("verb", ["check", "invariants", "export"])
def test_diagram_strands_below_two_exit_2(capsys, monkeypatch, verb, strands):
    doc = _standard_2_document()
    del doc["source_factorization"]
    doc["strands"] = strands
    code, out, err = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: diagram.strands: expected an integer >= 2, got {strands}\n"


@pytest.mark.parametrize("argv", [["check"], ["check", "--json"], ["invariants"],
                                  ["invariants", "--json"], ["export"]])
def test_version_1_documents_are_refused(capsys, argv):
    # ``build --standard 2`` as written in version 1, before the integer
    # lattice, and in version 2, with a declared s and point ids
    for version in ("1", "2"):
        path = os.path.join(_TESTS, f"v{version}_standard_2.json")
        code, out, err = run(capsys, [*argv, path])
        assert (code, out) == (2, "")
        assert err == f"error: diagram: unsupported format_version '{version}' (expected '3')\n"


@pytest.mark.parametrize("argv", [["check"], ["invariants", "--json"], ["export"]])
def test_version_2_fields_in_a_version_3_document_are_named(capsys, monkeypatch, argv):
    # the version-2 ``build --standard 2`` with only format_version set to "3"
    doc = json.loads(pathlib.Path(_TESTS, "v2_standard_2.json").read_text(encoding="utf-8"))
    doc["format_version"] = "3"

    def refusal():
        return run(capsys, [*argv, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)

    assert refusal() == (2, "", "error: diagram.stabilization_count: a version 3 document "
                                "does not declare s; it is counted from the arcs\n")
    del doc["stabilization_count"]
    assert refusal() == (2, "", "error: diagram.bridge_points[0].id: a version 3 bridge point "
                                "has no id; its position in the list is its id\n")
    # without the ids it is the version-3 document, and other unknown keys are ignored
    for point in doc["bridge_points"]:
        del point["id"]
        point["note"] = "ignored"
    doc["note"] = "ignored"
    assert refusal()[0] == 0


def test_export_draws_one_circle_per_bridge_point(capsys, monkeypatch):
    code, out, _ = run(capsys, ["export", "-"], stdin=serialize_diagram(*_standard_3()),
                       monkeypatch=monkeypatch)
    assert code == 0 and out.count("<circle") == 48


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("scale",), [12, 0], "diagram.scale: expected [Nx, Ny] positive integers"),
        (("scale",), [12.0, 8], "diagram.scale: expected [Nx, Ny] positive integers"),
        (("bridge_points", 0, "x"), 0.25,
         "diagram.bridge_points[0].x: expected an integer, got 0.25"),
        (("bridge_points", 0, "y"), 8, "diagram.bridge_points[0]: coordinates must lie in "
         "[0,12) x [0,8)"),
        (("arcs", 0, "path", 1), [-8, True], "diagram.arcs[0].path[1]: expected [X, Y] integers"),
        (("arcs", 0, "path", 1), True, "diagram.arcs[0].path[1]: expected [X, Y] integers"),
        (("arcs", 0, "path"), [[4, 3]], "diagram.arcs[0].path: expected a list of >= 2 vertices"),
        # X / Nx would overflow a float, though X itself is read exactly
        (("arcs", 0, "path", 1, 0), -12 * 2**1024, "diagram.arcs[0].path[1]: expected [X, Y] "
         "integers, got one too large for a float"),
        # any version but the reader's own is refused
        (("format_version",), "4", "diagram: unsupported format_version '4' "
         "(expected '3')"),
    ],
    ids=["scale-zero", "scale-float", "point-float", "point-outside", "vertex-bool",
         "vertex-true", "one-vertex", "vertex-overflow", "version-3"],
)
def test_version_2_refusals_name_the_field(capsys, monkeypatch, path, value, message):
    doc = _standard_2_document()
    _set(doc, path, value)
    code, out, err = run(capsys, ["check", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# Replacements for the fuzz below.  Path coordinates are never replaced by a
# value many periods away that the reader accepts: the A-crossing and SVG
# loops run once per period a segment spans, so 10**20 would run for hours.
def _cli_replacements(value, in_path):
    wrong_kind = [None, "1", [], {}, True, 0.5]
    if isinstance(value, bool):
        near = [not value, 0, 1]
    elif isinstance(value, int):
        near = [value - 1, value + 1, -value, 0, 1, -1, 2, 12, 8, 10**400]
        if value.bit_length() <= 1000:  # 10**400 is too large for a float
            near.append(float(value))
        if not in_path:
            near.append(10**20)
    elif isinstance(value, str):
        near = ["A", "B", "C", "D", "", "1", "2", 1]
    elif isinstance(value, list):
        near = [value[:-1], value + value[-1:], value[::-1], [True, False], [1, 2, 3], 5]
    else:
        near = [5]
    return near + wrong_kind


@st.composite
def _mutated_documents(draw):
    doc = _standard_2_document()
    for _ in range(draw(st.integers(1, 3))):
        fields = []
        stack = [(doc, ())]
        while stack:
            node, trail = stack.pop()
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            for key in keys:
                fields.append((node, key, "path" in trail or key == "path"))
                if isinstance(node[key], (dict, list)):
                    stack.append((node[key], trail + (key,)))
        node, key, in_path = draw(st.sampled_from(fields))
        if isinstance(node, dict) and draw(st.integers(0, 9)) == 0:
            del node[key]
        else:
            node[key] = draw(st.sampled_from(_cli_replacements(node[key], in_path)))
    return json.dumps(doc)


@given(_mutated_documents())
@settings(max_examples=200, deadline=None)
def test_mutated_version_2_documents_exit_0_1_or_2(text):
    for argv in (["check", "-"], ["invariants", "-"], ["export", "-"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            saved, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                code = run_cli(argv)
            finally:
                sys.stdin = saved
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("verb", ["check", "invariants"])
def test_a_source_band_exponent_too_large_to_expand_fails(capsys, monkeypatch, verb):
    # its exponent sum is wrong, and the band is still refused where it is read
    doc = _standard_2_document()
    doc["source_factorization"]["factors"][0]["exponent"] = 10**60
    code, out, err = run(capsys, [verb, "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: diagram.source_factorization.factors[0]: band "
                                       f"exponent must be <= 1000000, got {10**60}\n")


def _huge_exponent_source():
    """Standard d = 2 with bands at exponents 10**20 and -(10**20 - 2): its
    exponent sum is right, so deciding it would expand both bands."""
    doc = json.loads(serialize_factorization(standard_factorization(2)))
    doc["factors"][0]["exponent"] = 10**20
    doc["factors"][1].update(exponent=10**20 - 2, sign=-1)
    return doc


_TOO_LARGE = ".factors[0]: band exponent must be <= 1000000, got 100000000000000000000\n"


@pytest.mark.parametrize("verb", ["verify", "orbit", "build"])
def test_a_band_exponent_too_large_to_expand_exits_2(capsys, monkeypatch, verb):
    text = json.dumps(_huge_exponent_source())
    code, out, err = run(capsys, [verb, "-"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: factorization" + _TOO_LARGE)


@pytest.mark.parametrize("verb", ["check", "invariants"])
@pytest.mark.parametrize("embedded", [True, False])
def test_a_source_band_exponent_too_large_to_expand_exits_2(capsys, monkeypatch, tmp_path,
                                                             verb, embedded):
    doc, argv, where = _standard_2_document(), [verb, "-"], "factorization"
    if embedded:
        doc["source_factorization"] = _huge_exponent_source()
        where = "diagram.source_factorization"
    else:
        fact = tmp_path / "huge.json"
        fact.write_text(json.dumps(_huge_exponent_source()))
        argv += ["--fact", str(fact)]
    code, out, err = run(capsys, argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: {where}" + _TOO_LARGE)


def test_orbit_refuses_a_band_too_large_to_key_whatever_its_sum(capsys, monkeypatch):
    # both bands at e, a wrong sum, so verify would decide it without the
    # words: every verb refuses the band all the same, with one message.  At
    # 4,300 digits the sum 2e has more digits than int-to-str converts.
    doc = json.loads(serialize_factorization(standard_factorization(2)))
    for e in (MAX_EXPONENT + 1, 10**20, 10**4300 - 1):
        doc["factors"][0]["exponent"] = doc["factors"][1]["exponent"] = e
        expected = f"error: factorization.factors[0]: band exponent must be <= 1000000, got {e}\n"
        for argv in (["verify", "-"], ["verify", "--json", "-"], ["orbit", "-"], ["build", "-"]):
            code, out, err = run(capsys, argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
            assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("verb", ["verify", "check", "--fact"])
def test_an_integer_literal_of_5000_digits_exits_2(capsys, monkeypatch, tmp_path, verb):
    # json.loads refuses a literal of more digits than int() converts with a
    # plain ValueError, not a JSONDecodeError
    def huge(text):
        return text.replace('"exponent":1', '"exponent":' + "9" * 5000, 1)

    fact = serialize_factorization(standard_factorization(2))
    diagram = serialize_diagram(*_standard_2())
    path = tmp_path / "d2.json"
    path.write_text(diagram)
    argv, stdin = {"verify": (["verify", "-"], huge(fact)),
                   "check": (["check", "-"], huge(diagram)),
                   "--fact": (["check", str(path), "--fact", "-"], huge(fact))}[verb]
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: an integer literal has too many digits\n"


# (argv, start): start is None for --standard d, else the document read from
# stdin and the label that stands for "-" in its golden output's name
_ORBIT_GOLDEN = [
    (["orbit", "--standard", "3", "--budget", "300", "--json"], None),
    (["orbit", "-", "--budget", "40", "--json"], ("random 4 seed 11", serialize_factorization(
        random_factorization(4, random.Random(11), moves=10, max_conjugator_length=4)))),
    # 24 of its 38 memo misses once moved a representative that an earlier move found
    (["orbit", "--standard", "4", "--budget", "500", "--json"], None),
    # an empty key, a one-band key with its trailing comma, and bands with
    # negative Delta powers, exponents 2 and 3 and a negative sign
    *((["orbit", "-", "--budget", "100", "--json"], start) for start in (
        ("zero bands", '{"factors":[],"format_version":"1","strands":1,"type":"factorization"}'),
        ("sigma_1^2", serialize_factorization(Factorization(2, (band(2, (), 2),)))),
        ("cusp 3", serialize_factorization(CUSP_3)),
        ("flipped 3", serialize_factorization(FLIPPED_3)),
    )),
]


def _orbit_output(capsys, monkeypatch, argv, start):
    """The verb's stdout and its golden output."""
    name, stdin = " ".join(argv), None
    if start is not None:
        label, stdin = start
        name = name.replace(" -", f" {label}", 1)
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    return out, _GOLDEN[name]


@pytest.mark.parametrize("argv, start", _ORBIT_GOLDEN)
def test_orbit_matches_golden_output(capsys, monkeypatch, argv, start):
    """Byte for byte the output of earlier orbit BFS versions: the first two
    from before the key-pair memo, standard d = 4 from the memo BFS that
    built a witness for every node, the last four from the BFS that wrote
    each key with ``repr``."""
    out, golden = _orbit_output(capsys, monkeypatch, argv, start)
    assert out == golden


@pytest.mark.parametrize("argv, start", _ORBIT_GOLDEN)
def test_orbit_output_survives_a_garside_table_rebuilt_on_every_call(capsys, monkeypatch,
                                                                     argv, start):
    """With no weighed pair kept between calls, every normal_form starts a
    new Garside table, so the orbit's own table is never the one the
    start's keys came from."""
    monkeypatch.setattr(garside, "_WEIGHT_PAIR_CACHE_SIZE", 0)
    out, golden = _orbit_output(capsys, monkeypatch, argv, start)
    assert out == golden
