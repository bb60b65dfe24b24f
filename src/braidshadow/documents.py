"""JSON document formats for factorizations and torus diagrams.

Both documents carry an explicit ``format_version`` and a ``type``
(``"factorization"`` or ``"diagram"``).  A document whose type names the
other kind is refused; one without a type is still read.  Generator
letters are stored exactly as in memory (positive i for sigma_i, negative
for its inverse).  A diagram document (version 3) stores its lattice
``scale`` [Nx, Ny] and every coordinate as a lattice integer, arc
vertices lifted, exactly as in memory, and nothing its arcs determine: a
bridge point is its position in the list, which arcs' ``start`` and
``end`` index, and s is counted by ``diagram.bridge_params``; version 2's
``stabilization_count`` and bridge point ``id`` are refused by name.
Factorization documents, alone or embedded, are version 1.

Each bridge point and arc is read by one function, in one pass: its
fields are checked one rule at a time, in document order, and the first
bad field is named.  A message is built only for an item that fails.

Documents are written compactly and directly, in exactly the text that
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` gives for them
(every number in them is an integer), which is faster than building a
dict for the ``json`` module.  ``python -m json.tool FILE`` lays one out
for reading.
"""

from __future__ import annotations

import json
from typing import Any

from .diagram import Arc, BridgePoint, TorusDiagram
from .factorization import BandFactor, Factorization
from .words import BraidError, BraidWord

FORMAT_VERSION = "1"
DIAGRAM_VERSION = "3"
MAX_STRANDS = 1000  # a document's bound: Garside's letter table grows as d^2
# the largest float plus half its spacing: X / N rounds to a finite float
# exactly when |X| < N * _FLOAT_BOUND
_FLOAT_BOUND = 2**1024 - 2**970


class DocumentError(ValueError):
    """Malformed document; the message names the offending field."""


_MISSING = object()


def _fault(value: Any, key: str, expected: str | None = None) -> str:
    """The end of a message naming field ``key``: missing, or not ``expected`` (an integer)."""
    if value is _MISSING:
        return f": missing required field {key!r}"
    return f".{key}: {expected or f'expected an integer, got {value!r}'}"


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise DocumentError(where + _fault(_MISSING, key))
    return obj[key]


def _intfield(obj: dict, key: str, where: str) -> int:
    v = obj.get(key, _MISSING)
    if type(v) is not int:
        raise DocumentError(where + _fault(v, key))
    return v


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond int()'s digit limit
        raise DocumentError("invalid JSON: an integer literal has too many digits") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top level: expected a JSON object")
    return doc


def _check_type(doc: dict, where: str, kind: str) -> None:
    """Refuse a document whose ``type``, when it has one, names another kind."""
    if "type" in doc and doc["type"] != kind:
        raise DocumentError(f"{where}.type: expected {kind!r}, got {doc['type']!r}")


def _check_version(doc: dict, where: str, expected: str = FORMAT_VERSION) -> None:
    version = _require(doc, "format_version", where)
    if version != expected:
        raise DocumentError(
            f"{where}: unsupported format_version {version!r} (expected {expected!r})"
        )


# -- writing ----------------------------------------------------------------


def _factorization_text(f: Factorization) -> str:
    factors = ",".join(
        f'{{"conjugator":[{",".join(map(str, factor.conjugator.letters))}],'
        f'"exponent":{factor.exponent},"sign":{factor.sign}}}'
        for factor in f.factors
    )
    return (
        f'{{"factors":[{factors}],"format_version":{json.dumps(FORMAT_VERSION)},'
        f'"strands":{f.strands},"type":"factorization"}}'
    )


# -- factorizations ---------------------------------------------------------


def serialize_factorization(f: Factorization) -> str:
    return _factorization_text(f) + "\n"


def factorization_from_dict(doc: dict, where: str = "factorization") -> Factorization:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
    _check_type(doc, where, "factorization")
    _check_version(doc, where)
    strands = _intfield(doc, "strands", where)
    if strands > MAX_STRANDS:
        raise DocumentError(f"{where}.strands: expected an integer <= {MAX_STRANDS}")
    if strands < 1:
        raise DocumentError(f"{where}.strands: expected an integer >= 1, got {strands}")
    raw_factors = _require(doc, "factors", where)
    if not isinstance(raw_factors, list):
        raise DocumentError(f"{where}.factors: expected a list")
    factors = []
    for i, raw in enumerate(raw_factors):
        loc = f"{where}.factors[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{loc}: expected an object")
        letters = _require(raw, "conjugator", loc)
        if not isinstance(letters, list) or not all(type(x) is int for x in letters):
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
    return Factorization(strands, tuple(factors))


def parse_factorization(text: str) -> Factorization:
    """Structural load; does not check the product against the full twist."""
    return factorization_from_dict(_load_json(text))


# -- diagrams ---------------------------------------------------------------


def serialize_diagram(diag: TorusDiagram, source: Factorization | None = None) -> str:
    # keys at every level in sorted order, as sort_keys=True writes them
    arcs = ",".join(
        f'{{"color":{json.dumps(arc.color)},"end":{arc.end},'
        f'"path":[{",".join(f"[{x},{y}]" for x, y in arc.path)}],"start":{arc.start}}}'
        for arc in diag.arcs
    )
    points = ",".join(
        f'{{"sign":{p.sign},"x":{p.x},"y":{p.y}}}' for p in diag.bridge_points
    )
    source_field = (
        "" if source is None
        else f'"source_factorization":{_factorization_text(source)},'
    )
    return (
        f'{{"arcs":[{arcs}],"bridge_points":[{points}],'
        f'"format_version":{json.dumps(DIAGRAM_VERSION)},'
        f'"scale":[{",".join(map(str, diag.scale))}],{source_field}'
        f'"strands":{diag.strands},"type":"diagram"}}\n'
    )


def _bridge_point(raw: Any, i: int, scale: tuple[int, int]) -> BridgePoint:
    """Bridge point ``i``, its fields checked in order; the first bad one is named."""
    try:
        x, y, sign = raw["x"], raw["y"], raw["sign"]
    except KeyError:
        x, y, sign = (raw.get(k, _MISSING) for k in ("x", "y", "sign"))
    except TypeError:
        raise DocumentError(f"diagram.bridge_points[{i}]: expected an object") from None
    nx, ny = scale
    if "id" in raw:
        fault = ".id: a version 3 bridge point has no id; its position in the list is its id"
    elif type(x) is not int:
        fault = _fault(x, "x")
    elif type(y) is not int:
        fault = _fault(y, "y")
    elif not (0 <= x < nx and 0 <= y < ny):
        fault = f": coordinates must lie in [0,{nx}) x [0,{ny})"
    elif type(sign) is not int:
        fault = _fault(sign, "sign")
    elif sign not in (1, -1):
        fault = ".sign: expected +1 or -1"
    else:
        return BridgePoint(x, y, sign)
    raise DocumentError(f"diagram.bridge_points[{i}]{fault}")


def _arc(raw: Any, i: int, n_points: int, scale: tuple[int, int]) -> Arc:
    """Arc ``i``, its fields checked in order; the first bad one is named."""
    try:
        color, start, end, path = raw["color"], raw["start"], raw["end"], raw["path"]
    except KeyError:
        color, start, end, path = (raw.get(k, _MISSING) for k in ("color", "start", "end", "path"))
    except TypeError:
        raise DocumentError(f"diagram.arcs[{i}]: expected an object") from None
    if color not in ("A", "B", "C"):
        fault = _fault(color, "color", "expected 'A', 'B' or 'C'")
    elif type(start) is not int:
        fault = _fault(start, "start")
    elif type(end) is not int:
        fault = _fault(end, "end")
    elif not 0 <= start < n_points:
        fault = f": unknown bridge point id {start}"
    elif not 0 <= end < n_points:
        fault = f": unknown bridge point id {end}"
    elif type(path) is not list or len(path) < 2:
        fault = _fault(path, "path", "expected a list of >= 2 vertices")
    else:
        bx, by = scale[0] * _FLOAT_BOUND, scale[1] * _FLOAT_BOUND
        lifted = []
        for v in path:  # the first vertex not lifted is path[len(lifted)]
            try:
                x, y = v
            except (TypeError, ValueError):  # not two values
                x = y = None
            if not (type(v) is list and type(x) is type(y) is int):
                fault = f".path[{len(lifted)}]: expected [X, Y] integers"
                break
            if not (abs(x) < bx and abs(y) < by):
                fault = (f".path[{len(lifted)}]: expected [X, Y] integers, "
                         "got one too large for a float")
                break
            lifted.append((x, y))
        else:
            return Arc(color, start, end, tuple(lifted))
    raise DocumentError(f"diagram.arcs[{i}]{fault}")


def diagram_from_dict(doc: dict) -> tuple[TorusDiagram, Factorization | None]:
    where = "diagram"
    _check_type(doc, where, "diagram")
    _check_version(doc, where, DIAGRAM_VERSION)
    if "stabilization_count" in doc:
        raise DocumentError(f"{where}.stabilization_count: a version 3 document does not "
                            "declare s; it is counted from the arcs")
    strands = _intfield(doc, "strands", where)
    if strands > MAX_STRANDS:
        raise DocumentError(f"{where}.strands: expected an integer <= {MAX_STRANDS}")
    if strands < 2:
        raise DocumentError(f"{where}.strands: expected an integer >= 2, got {strands}")
    scale = _require(doc, "scale", where)
    if not (
        isinstance(scale, list) and len(scale) == 2
        and all(type(n) is int and n > 0 for n in scale)
    ):
        raise DocumentError(f"{where}.scale: expected [Nx, Ny] positive integers")
    scale = (scale[0], scale[1])
    raw_points = _require(doc, "bridge_points", where)
    if not isinstance(raw_points, list):
        raise DocumentError(f"{where}.bridge_points: expected a list")
    points = [_bridge_point(raw, i, scale) for i, raw in enumerate(raw_points)]
    raw_arcs = _require(doc, "arcs", where)
    if not isinstance(raw_arcs, list):
        raise DocumentError(f"{where}.arcs: expected a list")
    arcs = [_arc(raw, i, len(points), scale) for i, raw in enumerate(raw_arcs)]
    diag = TorusDiagram(strands, scale, tuple(points), tuple(arcs))
    source = None
    if "source_factorization" in doc:
        source = factorization_from_dict(
            doc["source_factorization"], f"{where}.source_factorization"
        )
    return diag, source


def parse_diagram(text: str) -> tuple[TorusDiagram, Factorization | None]:
    return diagram_from_dict(_load_json(text))
