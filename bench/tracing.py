"""Per-layer tracing from outside the program.

``install`` wraps every public function of each ``braidshadow`` module, at
every module that binds it (``from .garside import equal`` makes a second
binding), so calls between modules are seen too.  A wrapper records calls,
total time and self time (total minus the time of traced calls made inside
it), plus the size counters of ``SIZE_HOOKS``.  ``uninstall`` restores the
original functions.  Nothing in the program is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("words", "garside", "handles", "factorization", "diagram", "documents",
          "svg", "invariants", "cli")

Hook = Callable[[Counter, tuple, dict, Any], None]


def _a_segments(args: tuple) -> int:
    return sum(len(a.path) - 1 for a in args[0].arcs if a.color == "A")


def _a_crossings(sizes: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    segs = _a_segments(args)
    sizes["diagram.a_segments"] += segs
    sizes["diagram.a_pairs"] += segs * (segs - 1) // 2
    sizes["diagram.crossings_found"] += len(result)


def _mini_stabilize(sizes: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    sizes["diagram.bridge_points"] += len(result.bridge_points)
    sizes["diagram.stabilizations"] += result.stabilization_count - args[0].stabilization_count


def _normal_form(sizes: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    letters = args[0].letters
    sizes["garside.letters"] += len(letters)
    sizes["garside.inverse_letters"] += sum(1 for x in letters if x < 0)
    sizes["garside.factors_out"] += len(result.factors)


def _handle_reduce(sizes: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    sizes["handles.letters"] += len(args[0].letters)


def _hurwitz_orbit(sizes: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    sizes["factorization.orbit_nodes"] += result.size


def _serialize_diagram(sizes: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    sizes["documents.diagram_bytes"] += len(result.encode("utf-8"))


def _export_svg(sizes: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    sizes["svg.svg_bytes"] += len(result.encode("utf-8"))


SIZE_HOOKS: dict[str, Hook] = {
    "diagram.a_crossings": _a_crossings,
    "diagram.mini_stabilize": _mini_stabilize,
    "garside.normal_form": _normal_form,
    "handles.handle_reduce": _handle_reduce,
    "factorization.hurwitz_orbit": _hurwitz_orbit,
    "documents.serialize_diagram": _serialize_diagram,
    "svg.export_svg": _export_svg,
}


class Tracer:
    """Call counts, total and self seconds, and size counters per function."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.sizes: Counter = Counter()
        self._children: list[float] = []  # traced-child seconds of each open call
        self._restore: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        for c in (self.calls, self.total, self.self_time, self.sizes):
            c.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = SIZE_HOOKS.get(name)
        children = self._children
        calls, total, self_time, sizes = self.calls, self.total, self.self_time, self.sizes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - inner
            if hook is not None:
                hook(sizes, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at each of their bindings."""
        modules = [m for key, m in sys.modules.items()
                   if key == "braidshadow" or key.startswith("braidshadow.")]
        for layer in LAYERS:
            home = sys.modules[f"braidshadow.{layer}"]
            for attr, fn in list(vars(home).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != home.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for module in modules:
                    for bound, obj in list(vars(module).items()):
                        if obj is fn:
                            setattr(module, bound, wrapper)
                            self._restore.append((module, bound, fn))

    def uninstall(self) -> None:
        for module, bound, fn in reversed(self._restore):
            setattr(module, bound, fn)
        self._restore.clear()
