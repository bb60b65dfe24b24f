"""JSON document formats for factorizations and torus diagrams.

Both documents carry an explicit ``format_version``.  Generator letters
are stored exactly as in memory (positive i for sigma_i, negative for
its inverse).  Arc vertices are stored reduced into [0,1)^2 together
with integer wrap counts per vertex, so the lifted PL path is
``(x + wx, y + wy)``; coordinates are fixed to 6 decimal places.

Documents are written directly, in exactly the text that
``json.dumps(..., indent=2, sort_keys=True)`` gives for them, because the
``json`` module cannot use its C encoder for indented output.
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


# -- writing ----------------------------------------------------------------


def _number(v: Any) -> str:
    """A scalar as ``json.dumps`` writes it; ints and finite floats directly."""
    t = type(v)
    if t is int or (t is float and math.isfinite(v)):
        return repr(v)
    return json.dumps(v)


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already indented items; ``indent`` is the array's own."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _factorization_text(f: Factorization, indent: str) -> str:
    i1, i2, i3, i4 = (indent + "  " * k for k in (1, 2, 3, 4))
    factors = [
        f"{i2}{{\n"
        f'{i3}"conjugator": '
        f"{_array([i4 + _number(x) for x in factor.conjugator.letters], i3)},\n"
        f'{i3}"exponent": {_number(factor.exponent)},\n'
        f'{i3}"sign": {_number(factor.sign)}\n'
        f"{i2}}}"
        for factor in f.factors
    ]
    return (
        "{\n"
        f'{i1}"factors": {_array(factors, i1)},\n'
        f'{i1}"format_version": {json.dumps(FORMAT_VERSION)},\n'
        f'{i1}"strands": {_number(f.strands)},\n'
        f'{i1}"type": "factorization"\n'
        f"{indent}}}"
    )


# -- factorizations ---------------------------------------------------------


def serialize_factorization(f: Factorization) -> str:
    return _factorization_text(f, "") + "\n"


def factorization_from_dict(doc: dict, where: str = "factorization") -> Factorization:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
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


def serialize_diagram(diag: TorusDiagram, source: Factorization | None = None) -> str:
    # keys at every level in sorted order, as sort_keys=True writes them
    arcs = []
    for arc in diag.arcs:
        path, wraps = [], []
        for x, y in arc.path:
            wx, wy = math.floor(x), math.floor(y)
            path.append(
                f"        [\n          {_number(round(x - wx, 6))},\n"
                f"          {_number(round(y - wy, 6))}\n        ]"
            )
            wraps.append(f"        [\n          {wx},\n          {wy}\n        ]")
        arcs.append(
            "    {\n"
            f'      "color": {json.dumps(arc.color)},\n'
            f'      "end": {_number(arc.end)},\n'
            f'      "path": {_array(path, "      ")},\n'
            f'      "start": {_number(arc.start)},\n'
            f'      "wraps": {_array(wraps, "      ")}\n'
            "    }"
        )
    points = [
        "    {\n"
        f'      "id": {_number(p.ident)},\n'
        f'      "sign": {_number(p.sign)},\n'
        f'      "x": {_number(p.x)},\n'
        f'      "y": {_number(p.y)}\n'
        "    }"
        for p in diag.bridge_points
    ]
    source_line = (
        "" if source is None
        else f'  "source_factorization": {_factorization_text(source, "  ")},\n'
    )
    return (
        "{\n"
        f'  "arcs": {_array(arcs, "  ")},\n'
        f'  "bridge_points": {_array(points, "  ")},\n'
        f'  "format_version": {json.dumps(FORMAT_VERSION)},\n'
        f"{source_line}"
        f'  "stabilization_count": {_number(diag.stabilization_count)},\n'
        f'  "strands": {_number(diag.strands)},\n'
        '  "type": "diagram"\n'
        "}\n"
    )


def _coord(v: Any, loc: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise DocumentError(f"{loc}: expected a number, got {v!r}")
    return float(v)


def _bridge_point(raw: Any, i: int, loc: str) -> BridgePoint:
    """Bridge point ``i``, every field checked in order."""
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
    return BridgePoint(ident, x, y, sign)


def _arc_fields(raw: Any, loc: str, n_points: int) -> tuple[str, int, int, list, list]:
    """An arc's color, ends, path and wraps, every field checked in order."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{loc}: expected an object")
    color = _require(raw, "color", loc)
    if color not in ("A", "B", "C"):
        raise DocumentError(f"{loc}.color: expected 'A', 'B' or 'C'")
    start = _intfield(raw, "start", loc)
    end = _intfield(raw, "end", loc)
    for ident in (start, end):
        if not 0 <= ident < n_points:
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
    return color, start, end, path, wraps


def diagram_from_dict(doc: dict) -> tuple[TorusDiagram, Factorization | None]:
    # The loops test the common case inline and hand anything else to the
    # field-by-field checks, which raise the error or accept the odd value.
    where = "diagram"
    _check_version(doc, where)
    strands = _intfield(doc, "strands", where)
    stab = _intfield(doc, "stabilization_count", where)
    if stab < 0:
        raise DocumentError(
            f"{where}.stabilization_count: expected a non-negative integer, got {stab}"
        )
    raw_points = _require(doc, "bridge_points", where)
    if not isinstance(raw_points, list):
        raise DocumentError(f"{where}.bridge_points: expected a list")
    points = []
    for i, raw in enumerate(raw_points):
        if isinstance(raw, dict):
            x, y, sign = raw.get("x"), raw.get("y"), raw.get("sign")
            ident = raw.get("id")
            if (
                type(ident) is int and ident == i
                and type(x) is float and type(y) is float
                and 0 <= x < 1 and 0 <= y < 1
                and type(sign) is int and (sign == 1 or sign == -1)
            ):
                points.append(BridgePoint(i, x, y, sign))
                continue
        points.append(_bridge_point(raw, i, f"{where}.bridge_points[{i}]"))
    n_points = len(points)
    raw_arcs = _require(doc, "arcs", where)
    if not isinstance(raw_arcs, list):
        raise DocumentError(f"{where}.arcs: expected a list")
    arcs = []
    for i, raw in enumerate(raw_arcs):
        color = start = end = path = wraps = None
        if isinstance(raw, dict):
            color, start, end = raw.get("color"), raw.get("start"), raw.get("end")
            path, wraps = raw.get("path"), raw.get("wraps")
        if not (
            (color == "A" or color == "B" or color == "C")
            and type(start) is int and 0 <= start < n_points
            and type(end) is int and 0 <= end < n_points
            and isinstance(path, list) and isinstance(wraps, list)
            and len(path) == len(wraps) and len(path) >= 2
        ):
            color, start, end, path, wraps = _arc_fields(raw, f"{where}.arcs[{i}]", n_points)
        lifted = []
        for j, (v, w) in enumerate(zip(path, wraps)):
            if not (isinstance(v, list) and len(v) == 2):
                raise DocumentError(f"{where}.arcs[{i}].path[{j}]: expected [x, y]")
            if not (isinstance(w, list) and len(w) == 2 and type(w[0]) is int and type(w[1]) is int):
                raise DocumentError(f"{where}.arcs[{i}].wraps[{j}]: expected [wx, wy] integers")
            x, y = v
            if type(x) is not float:
                x = _coord(x, f"{where}.arcs[{i}].path[{j}]")
            if type(y) is not float:
                y = _coord(y, f"{where}.arcs[{i}].path[{j}]")
            if not (0 <= x < 1 and 0 <= y < 1):
                raise DocumentError(
                    f"{where}.arcs[{i}].path[{j}]: base coordinates must lie in [0,1)"
                )
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
