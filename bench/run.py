#!/usr/bin/env python3
"""Benchmark of braidshadow: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: ``pipeline``, ``word_problem`` and ``orbit`` (see README.md).

A run sets the workload up fifteen times, each from a fresh import of
``braidshadow`` (``setup_s`` is the median), then processes the workload's
fixed item list in whole passes until the next pass would end after
``--seconds``.  Every set-up and every item is timed between two runs of a
fixed reference loop and scaled to nominal machine speed (see speed.py);
each item's latency is its median over the passes.  The largest item
is timed LARGEST_TIMINGS times in every pass.  The first pass's
outputs are checked in full; later passes must reproduce them exactly.  With ``--trace 1`` passes alternate between untraced and traced,
and the per-layer metrics of the traced passes are reported instead of the
end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import speed
import workloads
from tracing import Tracer
from workloads import FAILED, OK, Item, Program, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# The workload's largest item runs this many times in every pass (at the
# end of the pass after the first time); largest_item_s is the median of all
# of them, wall_s and the percentiles count it once.
LARGEST_TIMINGS = 3
SETUP_REFERENCE_S = 0.02  # reference loop time on each side of a set-up

# Per-layer metrics.  A name ending in .calls, .ms or .self_ms reads the
# tracer's record of that function; any other name is a size counter or one
# of the ratios computed in layer_metrics.
PER_LAYER = (
    "diagram.assemble.self_ms", "diagram.mini_stabilize.self_ms",
    "diagram.a_crossings.calls", "diagram.a_crossings.ms", "diagram.a_segments",
    "diagram.a_pairs", "diagram.crossings_found", "diagram.a_crossings.calls_per_item",
    "diagram.bridge_params.self_ms", "diagram.check_transverse.ms",
    "diagram.pairwise_links.ms", "diagram.verify_trivial.self_ms",
    "diagram.bridge_points", "diagram.stabilizations",
    "garside.normal_form.calls", "garside.normal_form.ms", "garside.equal.calls",
    "garside.letters", "garside.inverse_letters", "garside.factors_out",
    "handles.handle_reduce.calls", "handles.handle_reduce.ms", "handles.letters",
    "factorization.validate.self_ms", "factorization.hurwitz_move.calls",
    "factorization.hurwitz_move.ms", "factorization.factorization_key.calls",
    "factorization.factorization_key.ms", "factorization.hurwitz_orbit.self_ms",
    "factorization.orbit_nodes", "factorization.moves_per_node",
    "factorization.keys_per_node",
    "words.free_reduce.calls", "words.free_reduce.ms", "words.compose.calls",
    "documents.serialize_diagram.ms", "documents.parse_diagram.ms",
    "documents.parse_factorization.ms", "documents.diagram_bytes",
    "svg.export_svg.ms", "svg.svg_bytes",
    "invariants.make_ledger.ms",
    "cli.run_cli.calls", "cli.run_cli.self_ms",
)
RATIOS = {
    "factorization.moves_per_node": ("factorization.hurwitz_move", "factorization.orbit_nodes"),
    "factorization.keys_per_node": ("factorization.factorization_key",
                                    "factorization.orbit_nodes"),
}


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name in RATIOS or name.endswith("per_item"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fresh_program() -> Program:
    """Import braidshadow anew from src/, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "braidshadow" or k.startswith("braidshadow.")]:
        del sys.modules[key]
    package = importlib.import_module("braidshadow")
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"braidshadow was imported from {package.__file__}, not {SRC}")
    mods = sys.modules
    return Program(mods["braidshadow.cli"], mods["braidshadow.garside"],
                   mods["braidshadow.handles"], mods["braidshadow.words"])


def set_up(name: str, seed: int) -> tuple[Workload, list[float]]:
    """Set the workload up SETUP_REPEATS times; return it and the set-up
    times at nominal speed."""
    times = []
    before = speed.reference_run(SETUP_REFERENCE_S)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](fresh_program(), random.Random(seed))
        took = time.perf_counter() - start
        after = speed.reference_run(SETUP_REFERENCE_S)
        around = before + after
        times.append(took * len(around) * speed.NOMINAL_S / sum(around))
        before = after
    return workload, times


@dataclass
class Pass:
    """One pass over the item list."""

    traced: bool
    latency: list[float]  # seconds at nominal speed, per item
    raw: list[float]  # seconds as measured, per item
    results: list[Any]  # outputs, per item; dropped once checked
    elapsed: float  # wall time of the whole pass, checks excluded
    slowdown: float  # median reference time over NOMINAL_S
    layers: dict[str, float]  # per-layer metrics of a traced pass


@dataclass(frozen=True)
class Raised:
    """An exception that escaped the program: the operation failed."""

    error: str


def run_pass(items: list[Item], tracer: Tracer | None, expected: list[float] | None,
             counted: int) -> Pass:
    """One pass; ``expected`` holds each item's raw latency in the last pass.
    The per-layer metrics count the first ``counted`` items."""
    latency: list[float] = []
    raw: list[float] = []
    results: list[Any] = []
    after = speed.reference_run(0.0)
    references = list(after)  # every reference time of the pass
    build_items = a_crossing_calls = 0
    layers: dict[str, float] = {}
    clock = time.perf_counter
    started = clock()
    for k, item in enumerate(items):
        if tracer and k == counted:
            layers = layer_metrics(tracer, a_crossing_calls / max(build_items, 1))
        # The reference loop runs for a share of the item's time on each side
        # of it, so that a long item's speed is not judged by one short sample.
        around = list(after)
        if expected:
            extra = speed.reference_run(speed.SHARE * expected[k] - sum(around))
            around += extra
            references += extra
        before = tracer.calls["diagram.a_crossings"] if tracer else 0
        start = clock()
        try:
            result = item.run()
        except Exception as exc:  # the benchmark outlives a crashing operation
            result = Raised(f"{type(exc).__name__}: {exc}")
        took = clock() - start
        after = speed.reference_run(speed.SHARE * took)
        around += after
        references += after
        raw.append(took)
        latency.append(took * len(around) * speed.NOMINAL_S / sum(around))
        results.append(result)
        if tracer and item.builds:
            build_items += 1
            a_crossing_calls += tracer.calls["diagram.a_crossings"] - before
    elapsed = clock() - started
    if tracer and counted == len(items):
        layers = layer_metrics(tracer, a_crossing_calls / max(build_items, 1))
    slowdown = statistics.median(references) / speed.NOMINAL_S
    return Pass(traced=tracer is not None, latency=latency, raw=raw, results=results,
                elapsed=elapsed, slowdown=slowdown, layers=layers)


def verdict(item: Item, result: Any) -> str:
    return FAILED if isinstance(result, Raised) else item.judge(result)


def digest(result: Any) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


def layer_metrics(tracer: Tracer, a_calls_per_item: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = tracer.self_time[name[: -len(".self_ms")]] * 1000.0
        elif name.endswith(".ms"):
            out[name] = tracer.total[name[: -len(".ms")]] * 1000.0
        elif name.endswith(".calls"):
            out[name] = tracer.calls[name[: -len(".calls")]]
        elif name in RATIOS:
            num, den = RATIOS[name]
            out[name] = tracer.calls[num] / tracer.sizes[den] if tracer.sizes[den] else 0.0
        elif name == "diagram.a_crossings.calls_per_item":
            out[name] = a_calls_per_item
        else:
            out[name] = tracer.sizes[name]
    return out


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[list[Pass], list[str],
                                                                     list[str]]:
    """Run whole passes; return them, the first pass's verdicts, and problems."""
    items = workload.items
    largest = [item for item in items if item.name == workload.largest]
    sequence = items + largest * (LARGEST_TIMINGS - 1)
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    problems: list[str] = []
    verdicts: list[str] = []
    digests: list[str] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            current = run_pass(sequence, tracer if traced else None,
                               passes[-1].raw if passes else None, len(items))
        finally:
            if traced:
                tracer.uninstall()
        if not passes:
            verdicts = [verdict(item, r) for item, r in zip(items, current.results)]
            digests = [digest(r) for r in current.results]
            problems += [f"{item.name}: {v}" for item, v in zip(items, verdicts)
                         if v not in (OK, FAILED)]
            first_of_largest = digests[items.index(largest[0])]
            problems += [f"{workload.largest}: output differs between its timings"
                         for h in digests[len(items):] if h != first_of_largest]
            problems += check_the_checkers(workload, current)
        else:
            problems += [f"{item.name}: output differs from the first pass"
                         for item, r, h in zip(sequence, current.results, digests)
                         if digest(r) != h]
        current.results = []  # so that peak memory is that of one pass
        passes.append(current)
        elapsed = time.perf_counter() - start
        upcoming = max(p.elapsed for p in passes[-2:])
        if len(passes) >= (2 if trace else 1) and elapsed + upcoming > seconds:
            return passes, verdicts, problems


def check_the_checkers(workload: Workload, first: Pass) -> list[str]:
    """Each judge must reject the workload's deliberately wrong outputs."""
    by_name = {item.name: (item, r) for item, r in zip(workload.items, first.results)}
    problems = []
    for name, wrong in workload.wrong_outputs({k: r for k, (_, r) in by_name.items()}):
        if by_name[name][0].judge(wrong) == OK:
            problems.append(f"{name}: the checker accepted a deliberately wrong output")
    return problems


def item_latency(workload: Workload, passes: list[Pass]) -> list[float]:
    """Each item's median latency at nominal speed over the passes (for the
    largest item, over all its timings)."""
    n = len(workload.items)
    columns = [list(column) for column in zip(*(p.latency for p in passes))]
    at = [item.name for item in workload.items].index(workload.largest)
    columns[at] += [t for column in columns[n:] for t in column]
    return [statistics.median(column) for column in columns[:n]]


def end_to_end(workload: Workload, passes: list[Pass], verdicts: list[str],
               setup_times: list[float]) -> dict[str, float]:
    best = item_latency(workload, [p for p in passes if not p.traced])
    names = [item.name for item in workload.items]
    latencies = sorted(t for t, v in zip(best, verdicts) if v != FAILED)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(best),
        "item_p50_ms": statistics.median(latencies) * 1000.0,
        "item_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        "largest_item_s": best[names.index(workload.largest)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload: Workload, passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    out = {name: statistics.median(p.layers[name] for p in traced) for name in PER_LAYER}
    out["trace.overhead_s"] = (sum(item_latency(workload, traced))
                               - sum(item_latency(workload, untraced)))
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "braidshadow" / "__init__.py").is_file():
        print(f"error: no braidshadow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed.warm_up()
    workload, setup_times = set_up(args.workload, args.seed)
    passes, verdicts, problems = measure(workload, args.seconds, bool(args.trace))
    failed_per_pass = sum(1 for v in verdicts if v == FAILED)
    if args.trace:
        values = per_layer(workload, passes)
    else:
        values = end_to_end(workload, passes, verdicts, setup_times)
    for problem in problems:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(workload.items)} items (the largest timed {LARGEST_TIMINGS} times), "
          f"{failed_per_pass} failing per pass: "
          + ", ".join(item.name for item, v in zip(workload.items, verdicts) if v == FAILED))
    print("  machine slowdown per pass (reference loop over its nominal time): "
          + ", ".join(f"{p.slowdown:.3f}" for p in passes))
    metrics = {}
    for name, value in values.items():
        unit = unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:40s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": (len(workload.items) + LARGEST_TIMINGS - 1) * len(passes),
        "failed": failed_per_pass * len(passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
