"""JSON document formats for factorizations and torus diagrams.

Both documents carry an explicit ``format_version``.  Generator letters
are stored exactly as in memory (positive i for sigma_i, negative for
its inverse).  Arc vertices are stored reduced into [0,1)^2 together
with integer wrap counts per vertex, so the lifted PL path is
``(x + wx, y + wy)``; coordinates are fixed to 6 decimal places.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .diagram import Arc, BridgePoint, TorusDiagram
from .factorization import BandFactor, Factorization
from .words import BraidError, BraidWord

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """Malformed document; the message names the offending field."""


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise DocumentError(f"{where}: missing required field {key!r}")
    return obj[key]


def _intfield(obj: dict, key: str, where: str) -> int:
    v = _require(obj, key, where)
    if not isinstance(v, int) or isinstance(v, bool):
        raise DocumentError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise DocumentError("top level: expected a JSON object")
    return doc


def _check_version(doc: dict, where: str) -> None:
    version = _require(doc, "format_version", where)
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"{where}: unsupported format_version {version!r} (expected {FORMAT_VERSION!r})"
        )


# -- factorizations ---------------------------------------------------------


def factorization_to_dict(f: Factorization) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "type": "factorization",
        "strands": f.strands,
        "factors": [
            {
                "conjugator": list(factor.conjugator.letters),
                "exponent": factor.exponent,
                "sign": factor.sign,
            }
            for factor in f.factors
        ],
    }


def serialize_factorization(f: Factorization) -> str:
    return json.dumps(factorization_to_dict(f), indent=2, sort_keys=True) + "\n"


def factorization_from_dict(doc: dict, where: str = "factorization") -> Factorization:
    _check_version(doc, where)
    strands = _intfield(doc, "strands", where)
    raw_factors = _require(doc, "factors", where)
    if not isinstance(raw_factors, list):
        raise DocumentError(f"{where}.factors: expected a list")
    factors = []
    for i, raw in enumerate(raw_factors):
        loc = f"{where}.factors[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{loc}: expected an object")
        letters = _require(raw, "conjugator", loc)
        if not isinstance(letters, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in letters
        ):
            raise DocumentError(f"{loc}.conjugator: expected a list of integers")
        try:
            conj = BraidWord(strands, tuple(letters))
            factors.append(
                BandFactor(
                    conj,
                    exponent=_intfield(raw, "exponent", loc),
                    sign=_intfield(raw, "sign", loc),
                )
            )
        except BraidError as exc:
            raise DocumentError(f"{loc}: {exc}") from exc
    try:
        return Factorization(strands, tuple(factors))
    except BraidError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def parse_factorization(text: str) -> Factorization:
    """Structural load; does not check the product against the full twist."""
    return factorization_from_dict(_load_json(text))


# -- diagrams ---------------------------------------------------------------


def _vertex_out(x: float, y: float) -> tuple[list[float], list[int]]:
    wx, wy = math.floor(x), math.floor(y)
    return [round(x - wx, 6), round(y - wy, 6)], [int(wx), int(wy)]


def diagram_to_dict(
    diag: TorusDiagram, source: Factorization | None = None
) -> dict:
    arcs = []
    for arc in diag.arcs:
        path, wraps = [], []
        for (x, y) in arc.path:
            v, w = _vertex_out(x, y)
            path.append(v)
            wraps.append(w)
        arcs.append(
            {
                "color": arc.color,
                "start": arc.start,
                "end": arc.end,
                "path": path,
                "wraps": wraps,
            }
        )
    doc = {
        "format_version": FORMAT_VERSION,
        "type": "diagram",
        "strands": diag.strands,
        "stabilization_count": diag.stabilization_count,
        "bridge_points": [
            {"id": p.ident, "x": p.x, "y": p.y, "sign": p.sign}
            for p in diag.bridge_points
        ],
        "arcs": arcs,
    }
    if source is not None:
        doc["source_factorization"] = factorization_to_dict(source)
    return doc


def serialize_diagram(diag: TorusDiagram, source: Factorization | None = None) -> str:
    return json.dumps(diagram_to_dict(diag, source), indent=2, sort_keys=True) + "\n"


def _coord(v: Any, loc: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise DocumentError(f"{loc}: expected a number, got {v!r}")
    return float(v)


def diagram_from_dict(doc: dict) -> tuple[TorusDiagram, Factorization | None]:
    where = "diagram"
    _check_version(doc, where)
    strands = _intfield(doc, "strands", where)
    stab = _intfield(doc, "stabilization_count", where)
    raw_points = _require(doc, "bridge_points", where)
    if not isinstance(raw_points, list):
        raise DocumentError(f"{where}.bridge_points: expected a list")
    points = []
    for i, raw in enumerate(raw_points):
        loc = f"{where}.bridge_points[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{loc}: expected an object")
        ident = _intfield(raw, "id", loc)
        if ident != i:
            raise DocumentError(f"{loc}: ids must be 0..n-1 in order, got {ident}")
        x = _coord(_require(raw, "x", loc), f"{loc}.x")
        y = _coord(_require(raw, "y", loc), f"{loc}.y")
        if not (0 <= x < 1 and 0 <= y < 1):
            raise DocumentError(f"{loc}: coordinates must lie in [0,1)")
        sign = _intfield(raw, "sign", loc)
        if sign not in (1, -1):
            raise DocumentError(f"{loc}.sign: expected +1 or -1")
        points.append(BridgePoint(ident, x, y, sign))
    raw_arcs = _require(doc, "arcs", where)
    if not isinstance(raw_arcs, list):
        raise DocumentError(f"{where}.arcs: expected a list")
    arcs = []
    for i, raw in enumerate(raw_arcs):
        loc = f"{where}.arcs[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{loc}: expected an object")
        color = _require(raw, "color", loc)
        if color not in ("A", "B", "C"):
            raise DocumentError(f"{loc}.color: expected 'A', 'B' or 'C'")
        start = _intfield(raw, "start", loc)
        end = _intfield(raw, "end", loc)
        for ident in (start, end):
            if not 0 <= ident < len(points):
                raise DocumentError(f"{loc}: unknown bridge point id {ident}")
        path = _require(raw, "path", loc)
        wraps = _require(raw, "wraps", loc)
        if (
            not isinstance(path, list)
            or not isinstance(wraps, list)
            or len(path) != len(wraps)
            or len(path) < 2
        ):
            raise DocumentError(f"{loc}: path and wraps must be equal-length lists (>= 2)")
        lifted = []
        for j, (v, w) in enumerate(zip(path, wraps)):
            vloc = f"{loc}.path[{j}]"
            if not (isinstance(v, list) and len(v) == 2):
                raise DocumentError(f"{vloc}: expected [x, y]")
            if not (isinstance(w, list) and len(w) == 2 and all(isinstance(t, int) for t in w)):
                raise DocumentError(f"{loc}.wraps[{j}]: expected [wx, wy] integers")
            x, y = _coord(v[0], vloc), _coord(v[1], vloc)
            if not (0 <= x < 1 and 0 <= y < 1):
                raise DocumentError(f"{vloc}: base coordinates must lie in [0,1)")
            lifted.append((round(x + w[0], 6), round(y + w[1], 6)))
        arcs.append(Arc(color, start, end, tuple(lifted)))
    diag = TorusDiagram(strands, tuple(points), tuple(arcs), stab)
    source = None
    if "source_factorization" in doc:
        source = factorization_from_dict(
            doc["source_factorization"], f"{where}.source_factorization"
        )
    return diag, source


def parse_diagram(text: str) -> tuple[TorusDiagram, Factorization | None]:
    return diagram_from_dict(_load_json(text))
