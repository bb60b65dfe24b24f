"""The three workloads: their items, and the checks on every item's output.

An item is one timed operation.  ``run`` calls the program and returns its
outputs; ``judge`` turns those outputs into ``OK``, ``FAILED`` (the
operation did not do its job: a known fault) or a string naming a wrong
answer.  Judges use only facts computed here from the generated input, or
properties every correct output must have.

CLI verbs run in-process through ``braidshadow.cli.run_cli`` with
in-memory stdin and stdout, so an item costs what the program costs and not
an interpreter start.  Program functions are looked up on their module at
call time, so the traced run sees every call.
"""

from __future__ import annotations

import ast
import io
import json
import random
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

import gen

OK = "ok"
FAILED = "failed"

SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    judge: Callable[[Any], str]
    builds: bool = False  # runs build|check|invariants|export on one factorization


@dataclass
class Workload:
    items: list[Item]
    largest: str  # name of the workload's largest item
    # deliberately wrong outputs that the judges must reject: (item name, output)
    wrong_outputs: Callable[[dict[str, Any]], list[tuple[str, Any]]]


class Program:
    """The modules of ``braidshadow`` that the benchmark drives."""

    def __init__(self, cli: ModuleType, garside: ModuleType, handles: ModuleType,
                 words: ModuleType) -> None:
        self.cli, self.garside, self.handles, self.words = cli, garside, handles, words

    def run_cli(self, argv: list[str], stdin: str = "") -> tuple[int, str]:
        """One CLI call; returns (exit code, stdout).  Exceptions propagate."""
        saved = sys.stdin, sys.stdout, sys.stderr
        out = io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, io.StringIO()
        try:
            code = self.cli.run_cli(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue()


def _rejects(result: tuple[int, str]) -> str:
    """A document that must be refused: any nonzero exit without an exception."""
    return OK if result[0] != 0 else FAILED


def _json_or_none(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# -- pipeline -------------------------------------------------------------------

# Item groups, in rising cost.  The group sizes put the median and the 90th
# percentile of the item latencies in the middle of a group of like inputs,
# never on the step between two groups, so the percentiles hold still when
# the seed changes.  Pipeline: (count, conjugator letters) of random d = 3
# inputs; the controls and standard d = 2 sort below them, standard d = 3
# among the cheapest, and the three d = 4 inputs above them.
PIPELINE_D3_GROUPS = ((32, 6), (30, 7), (20, 8), (14, 9))
PIPELINE_D4_ITEMS = 2
PIPELINE_D4_TOTAL = 36


def interleave(groups: tuple[tuple[int, Any], ...]) -> list[Any]:
    """Group values round-robin, so no group runs as one block of a pass."""
    left = [[value] * count for count, value in groups]
    out = []
    while any(left):
        out += [g.pop() for g in left if g]
    return out


def _pipeline_judge(d: int, conj: list[gen.Word]) -> Callable[[Any], str]:
    n = len(conj)
    s = 2 * sum(len(g) for g in conj)
    want = {"b": 2 * n + s, "c1": d, "c2": n + s, "c3": d, "s": s}

    def judge(result: Any) -> str:
        codes = tuple(r[0] for r in result)
        if codes != (0, 0, 0, 0):
            return FAILED
        check = _json_or_none(result[1][1])
        inv = _json_or_none(result[2][1])
        if not isinstance(check, dict) or not isinstance(inv, dict):
            return "check or invariants output is not JSON"
        if check.get("params") != want:
            return f"check params {check.get('params')} != {want}"
        if not (check.get("transverse") is True and check.get("ok") is True
                and check.get("trivial") == {"L1": True, "L2": True, "L3": True}):
            return "check does not certify transversality and L1-L3"
        if inv.get("params") != want or inv.get("ok") is not True:
            return "invariants params differ or ledger not ok"
        if inv.get("euler_expected") != 3 * d - d * d:
            return "wrong Euler characteristic"
        if inv.get("genus_expected") != (d - 1) * (d - 2) // 2:
            return "wrong genus"
        if not inv.get("checks") or not all(inv["checks"].values()):
            return "an invariant check failed"
        try:
            root = ET.fromstring(result[3][1].encode("utf-8"))
        except ET.ParseError as exc:
            return f"SVG is not XML: {exc}"
        circles = sum(1 for _ in root.iter(SVG_NS + "circle"))
        if circles != 2 * want["b"]:
            return f"SVG has {circles} bridge-point circles, expected {2 * want['b']}"
        return OK

    return judge


def _pipeline_item(prog: Program, name: str, d: int, conj: list[gen.Word]) -> Item:
    doc = gen.factorization_doc(d, conj)

    def run() -> tuple:
        built = prog.run_cli(["build", "-"], doc)
        if built[0] != 0:
            return (built, (None, ""), (None, ""), (None, ""))
        diagram = built[1]
        return (
            built,
            prog.run_cli(["check", "-", "--json"], diagram),
            prog.run_cli(["invariants", "-", "--json"], diagram),
            prog.run_cli(["export", "-"], diagram),
        )

    return Item(name, run, _pipeline_judge(d, conj), builds=True)


def _check_item(prog: Program, name: str, doc: str) -> Item:
    return Item(name, lambda: prog.run_cli(["check", "-"], doc), _rejects)


def _diagram_doc(points: list, arcs: list) -> str:
    return json.dumps({"format_version": gen.FORMAT_VERSION, "type": "diagram", "strands": 2,
                       "stabilization_count": 0, "bridge_points": points, "arcs": arcs})


def pipeline(prog: Program, rng: random.Random) -> Workload:
    items = [
        _pipeline_item(prog, f"standard_d{d}", d, gen.standard_conjugators(d))
        for d in (2, 3, 4)
    ]
    for k, total in enumerate(interleave(PIPELINE_D3_GROUPS)):
        items.append(_pipeline_item(prog, f"random_d3_{k}", 3,
                                    gen.hurwitz_walk(3, rng, total, cap=2)))
    for k in range(PIPELINE_D4_ITEMS):
        items.append(_pipeline_item(prog, f"random_d4_{k}", 4,
                                    gen.hurwitz_walk(4, rng, PIPELINE_D4_TOTAL, cap=6)))

    # Known faults: each of these documents must be refused, and today is not.
    items.append(_check_item(prog, "fault_int_bridge_point", _diagram_doc([5], [])))
    items.append(_check_item(prog, "fault_empty_diagram", _diagram_doc([], [])))
    code, d2 = prog.run_cli(["build", "-"], gen.factorization_doc(2, gen.standard_conjugators(2)))
    if code != 0:
        raise RuntimeError("build of the standard d = 2 factorization failed")
    moved = json.loads(d2)
    moved["bridge_points"][0].update(x=0.9, y=0.1)
    items.append(_check_item(prog, "fault_moved_bridge_point", json.dumps(moved)))
    # Controls: malformed documents that are refused today.
    items.append(_check_item(prog, "control_bad_json", d2[: len(d2) // 2]))
    wrong_version = json.loads(d2)
    wrong_version["format_version"] = "999"
    items.append(_check_item(prog, "control_format_version", json.dumps(wrong_version)))
    missing = json.loads(d2)
    del missing["arcs"]
    items.append(_check_item(prog, "control_missing_field", json.dumps(missing)))

    def wrong_outputs(first: dict[str, Any]) -> list[tuple[str, Any]]:
        built, check, inv, svg = first["standard_d3"]
        payload = json.loads(check[1])
        payload["params"]["c2"] += 1
        return [("standard_d3", (built, (check[0], json.dumps(payload)), inv, svg))]

    return Workload(items, "standard_d4", wrong_outputs)


# -- word_problem ---------------------------------------------------------------

# Word pairs: (count, (strands, base length)); the equal word is about 1.6
# times the base length.  Longer words stay at small d, where the cost of
# handle reduction varies least from seed to seed.
WORD_GROUPS = (
    (10, (3, 64)), (10, (4, 64)), (10, (5, 64)), (10, (6, 64)),
    (10, (3, 96)), (12, (4, 96)), (12, (5, 96)), (12, (6, 96)),
    (9, (3, 128)), (9, (4, 128)),
    (16, (3, 176)),
)
VERIFY_WALKS = ((5, 150, 12), (6, 380, 20))  # (d, conjugator letters, cap)


def _pair_item(prog: Program, name: str, d: int, a: gen.Word, b: gen.Word,
               same: bool) -> Item:
    def run() -> tuple[bool, bool]:
        wa, wb = prog.words.BraidWord(d, a), prog.words.BraidWord(d, b)
        return prog.garside.equal(wa, wb), prog.handles.words_equal(wa, wb)

    def judge(result: tuple[bool, bool]) -> str:
        if result != (same, same):
            return f"oracles answered {result}, expected {same} for both"
        return OK

    return Item(name, run, judge)


def _verify_item(prog: Program, name: str, d: int, conj: list[gen.Word], valid: bool) -> Item:
    doc = gen.factorization_doc(d, conj)
    want = (0, "result: valid") if valid else (1, "result: INVALID")

    def judge(result: tuple[int, str]) -> str:
        code, out = result
        if code != want[0] or want[1] not in out:
            return f"verify exited {code}, expected {want[0]} ({want[1]})"
        return OK

    return Item(name, lambda: prog.run_cli(["verify", "-"], doc), judge)


def word_problem(prog: Program, rng: random.Random) -> Workload:
    items = []
    for k, (d, length) in enumerate(interleave(WORD_GROUPS)):
        same = k % 2 == 0
        w = gen.random_word(d, rng, length)
        other = gen.insert_relators(d, rng, w, length // 10)
        if not same:
            other = gen.flip_one_sign(rng, other)
        items.append(_pair_item(prog, f"pair_{k}_d{d}", d, w, other, same))
    walks = [(d, gen.hurwitz_walk(d, rng, total, cap)) for d, total, cap in VERIFY_WALKS]
    walks.append((7, gen.standard_conjugators(7)))
    for d, conj in walks:
        kind = "standard" if d == 7 else "random"
        items.append(_verify_item(prog, f"verify_{kind}_d{d}", d, conj, True))
        if d == 7:
            continue  # a second 1.5 s item would leave too few passes per run
        dropped = list(conj)
        del dropped[rng.randrange(len(dropped))]
        items.append(_verify_item(prog, f"verify_dropped_d{d}", d, dropped, False))

    def wrong_outputs(first: dict[str, Any]) -> list[tuple[str, Any]]:
        g, h = first["pair_0_d3"]
        return [("pair_0_d3", (not g, h))]

    return Workload(items, "verify_standard_d7", wrong_outputs)


# -- orbit ----------------------------------------------------------------------

# Orbits: (count, (strands, budget)), plus the largest item above them all.
ORBIT_GROUPS = (
    (15, (3, 10)), (15, (4, 10)), (40, (3, 30)), (12, (4, 20)), (18, (3, 80)),
)
ORBIT_START_TOTALS = {3: (10, 3), 4: (40, 6)}  # (conjugator letters, cap)
ORBIT_LARGEST_BUDGET = 300


def _half_twist(d: int) -> gen.Word:
    return tuple(j for i in range(1, d) for j in range(i, 0, -1))


def _perm_word(perm: tuple[int, ...]) -> gen.Word:
    """Positive word of a permutation braid (perm[i] = exit of the strand at i)."""
    cur = list(perm)
    out = []
    i = 0
    while i < len(cur) - 1:
        if cur[i] > cur[i + 1]:
            out.append(i + 1)
            cur[i], cur[i + 1] = cur[i + 1], cur[i]
            i = 0
        else:
            i += 1
    return tuple(out)


def decode_key(d: int, key: tuple) -> gen.Word:
    """Word of a Garside key (delta power, permutation factors)."""
    power, factors = key
    delta = _half_twist(d)
    head = delta * power if power >= 0 else gen.inv(delta) * -power
    return head + tuple(x for f in factors for x in _perm_word(f))


def _orbit_judge(prog: Program, d: int, budget: int) -> Callable[[Any], str]:
    n = d * d - d
    target_inverse = gen.inv(gen.full_twist(d))

    def judge(result: tuple[int, str]) -> str:
        code, out = result
        if code != 0:
            return FAILED
        payload = _json_or_none(out)
        if not isinstance(payload, dict):
            return "orbit output is not JSON"
        try:
            keys = [ast.literal_eval(k) for k in payload["keys"]]
        except (KeyError, TypeError, ValueError, SyntaxError):
            return "orbit keys do not parse"
        if payload.get("size") != len(keys):
            return "orbit size differs from the number of keys"
        if payload.get("truncated") and len(keys) != budget:
            return f"truncated orbit has {len(keys)} keys, budget {budget}"
        if not 1 <= len(keys) <= budget:
            return f"orbit has {len(keys)} keys for budget {budget}"
        words: dict[tuple, gen.Word] = {}
        for element in keys:
            if len(element) != n:
                return f"element with {len(element)} bands, expected {n}"
            product: list[int] = []
            for band in element:
                if band not in words:
                    words[band] = decode_key(d, band)
                    if gen.exponent_sum(words[band]) != 1:
                        return f"band {band} has exponent sum {gen.exponent_sum(words[band])}"
                product.extend(words[band])
            word = prog.words.BraidWord(d, tuple(product) + target_inverse)
            if prog.handles.handle_reduce(word).letters:
                return "an element's bands do not multiply to the full twist"
        if len(set(keys)) != len(keys):
            return "orbit keys are not distinct"
        if keys != sorted(keys):
            return "orbit keys are not sorted"
        return OK

    return judge


def _orbit_item(prog: Program, name: str, d: int, conj: list[gen.Word], budget: int) -> Item:
    doc = gen.factorization_doc(d, conj)
    argv = ["orbit", "-", "--budget", str(budget), "--json"]
    return Item(name, lambda: prog.run_cli(argv, doc), _orbit_judge(prog, d, budget))


def orbit(prog: Program, rng: random.Random) -> Workload:
    items = []
    for k, (d, budget) in enumerate(interleave(ORBIT_GROUPS)):
        total, cap = ORBIT_START_TOTALS[d]
        items.append(_orbit_item(prog, f"random_{k}_d{d}", d,
                                 gen.hurwitz_walk(d, rng, total, cap), budget))
    items.append(_orbit_item(prog, "standard_d3_large", 3, gen.standard_conjugators(3),
                             ORBIT_LARGEST_BUDGET))
    # Known fault: a zero budget must be refused, and today raises instead.
    zero = ["orbit", "--standard", "3", "--budget", "0"]
    items.append(Item("fault_zero_budget", lambda: prog.run_cli(zero), _rejects))

    def wrong_outputs(first: dict[str, Any]) -> list[tuple[str, Any]]:
        code, out = first["random_0_d3"]
        payload = json.loads(out)
        dup = dict(payload, keys=[payload["keys"][0]] + payload["keys"][:-1])
        element = ast.literal_eval(payload["keys"][0])
        power, factors = element[0]
        bumped = ((power + 1, factors),) + element[1:]
        bad_band = dict(payload, keys=[repr(bumped)] + payload["keys"][1:])
        return [("random_0_d3", (code, json.dumps(dup))),
                ("random_0_d3", (code, json.dumps(bad_band)))]

    return Workload(items, "standard_d3_large", wrong_outputs)


WORKLOADS = {"pipeline": pipeline, "word_problem": word_problem, "orbit": orbit}
