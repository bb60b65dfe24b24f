import copy
import functools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from braidshadow.diagram import Arc, BridgePoint, TorusDiagram, assemble
from braidshadow.documents import (
    DocumentError,
    _check_version,
    _coord,
    _intfield,
    _require,
    diagram_from_dict,
    factorization_from_dict,
    parse_diagram,
    parse_factorization,
    serialize_diagram,
    serialize_factorization,
)
from braidshadow.factorization import (
    BandFactor,
    Factorization,
    random_factorization,
    standard_factorization,
)
from braidshadow.words import BraidWord


def factorizations():
    def build(d, raw):
        factors = tuple(
            BandFactor(BraidWord(d, tuple(ls)), exponent=k, sign=s)
            for (ls, k, s) in raw
        )
        return Factorization(d, factors)

    return st.integers(2, 5).flatmap(
        lambda d: st.lists(
            st.tuples(
                st.lists(
                    st.integers(1, d - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                    max_size=6,
                ),
                st.integers(1, 3),
                st.sampled_from([1, -1]),
            ),
            max_size=6,
        ).map(lambda raw: build(d, raw))
    )


@given(factorizations())
@settings(max_examples=200, deadline=None)
def test_factorization_round_trip(f):
    assert parse_factorization(serialize_factorization(f)) == f


def test_factorization_document_shape():
    doc = json.loads(serialize_factorization(standard_factorization(2)))
    assert doc["format_version"] == "1"
    assert doc["strands"] == 2
    assert doc["factors"][0] == {"conjugator": [], "exponent": 1, "sign": 1}


def test_parse_does_not_check_the_product():
    # empty factor list parses fine; verification is a separate step
    f = parse_factorization(
        '{"format_version": "1", "strands": 2, "factors": []}'
    )
    assert f == Factorization(2, ())


def test_parse_rejects_letter_out_of_range():
    text = json.dumps(
        {
            "format_version": "1",
            "strands": 2,
            "factors": [{"conjugator": [3], "exponent": 1, "sign": 1}],
        }
    )
    with pytest.raises(DocumentError, match=r"factors\[0\]"):
        parse_factorization(text)


def test_parse_rejects_bad_exponent_and_sign():
    base = {"format_version": "1", "strands": 2}
    with pytest.raises(DocumentError):
        parse_factorization(
            json.dumps({**base, "factors": [{"conjugator": [], "exponent": 0, "sign": 1}]})
        )
    with pytest.raises(DocumentError):
        parse_factorization(
            json.dumps({**base, "factors": [{"conjugator": [], "exponent": 1, "sign": 0}]})
        )


def test_parse_reports_json_location():
    with pytest.raises(DocumentError, match="line 2"):
        parse_factorization('{\n  "strands": }')


def test_parse_rejects_wrong_version_and_missing_fields():
    with pytest.raises(DocumentError, match="format_version"):
        parse_factorization('{"format_version": "9", "strands": 2, "factors": []}')
    with pytest.raises(DocumentError, match="missing"):
        parse_factorization('{"format_version": "1", "factors": []}')


def test_diagram_round_trip_standard():
    for d in (2, 3):
        f = standard_factorization(d)
        diag = assemble(f)
        text = serialize_diagram(diag, source=f)
        loaded, source = parse_diagram(text)
        assert loaded == diag
        assert source == f


def test_diagram_round_trip_random():
    rng = random.Random(17)
    for _ in range(4):
        f = random_factorization(rng.choice((2, 3)), rng, moves=5, max_conjugator_length=3)
        diag = assemble(f)
        loaded, source = parse_diagram(serialize_diagram(diag, source=f))
        assert loaded == diag and source == f


def test_diagram_coordinates_serialized_in_unit_square():
    diag = assemble(standard_factorization(3))
    doc = json.loads(serialize_diagram(diag))
    for arc in doc["arcs"]:
        for (x, y) in arc["path"]:
            assert 0 <= x < 1 and 0 <= y < 1
    for p in doc["bridge_points"]:
        assert 0 <= p["x"] < 1 and 0 <= p["y"] < 1


def test_diagram_parse_rejects_unknown_bridge_id():
    diag = assemble(standard_factorization(2))
    doc = json.loads(serialize_diagram(diag))
    doc["arcs"][0]["start"] = 99
    with pytest.raises(DocumentError, match="unknown bridge point id"):
        parse_diagram(json.dumps(doc))


def test_diagram_parse_rejects_out_of_range_coordinates():
    diag = assemble(standard_factorization(2))
    doc = json.loads(serialize_diagram(diag))
    doc["bridge_points"][0]["x"] = 1.5
    with pytest.raises(DocumentError, match=r"\[0,1\)"):
        parse_diagram(json.dumps(doc))


# -- the direct writer against json.dumps --------------------------------------
#
# The writer's old form, kept as the reference: build the document as a dict
# and let json.dumps(indent=2, sort_keys=True) lay it out.


def factorization_to_dict(f):
    return {
        "format_version": "1",
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


def _vertex_out(x, y):
    wx, wy = math.floor(x), math.floor(y)
    return [round(x - wx, 6), round(y - wy, 6)], [int(wx), int(wy)]


def diagram_to_dict(diag, source=None):
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
        "format_version": "1",
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


def reference_serialize_diagram(diag, source=None):
    return json.dumps(diagram_to_dict(diag, source), indent=2, sort_keys=True) + "\n"


# Hand-built diagrams: not necessarily valid, but every field has the type the
# writer expects.  Lifted coordinates, within ``reach`` of the unit square, mix
# 1e-06-style floats and integers; a large ``reach`` gives large wraps.
def _coords(reach):
    return st.one_of(
        st.floats(-reach, reach, allow_nan=False),
        st.integers(-reach, reach),
        st.sampled_from([0.0, 1e-06, 5e-07, 0.999999, 0.9999996, -1e-06, 1.0, 1 / 3]),
        st.integers(-10**6, 10**6).map(lambda k: k * 1e-06),
    )


@st.composite
def hand_built_diagrams(draw, reach=10**6):
    strands = draw(st.integers(1, 6))
    n_points = draw(st.integers(0, 6))
    points = tuple(
        BridgePoint(
            i,
            draw(st.one_of(st.floats(0, 1, exclude_max=True), st.just(0))),
            draw(st.one_of(st.floats(0, 1, exclude_max=True), st.just(0))),
            draw(st.sampled_from([1, -1])),
        )
        for i in range(n_points)
    )
    coord = _coords(reach)
    arcs = tuple(
        Arc(
            draw(st.sampled_from("ABC")),
            draw(st.integers(0, max(n_points - 1, 0))),
            draw(st.integers(0, max(n_points - 1, 0))),
            tuple(draw(st.lists(st.tuples(coord, coord), max_size=6))),
        )
        for _ in range(draw(st.integers(0, 5)))
    )
    return TorusDiagram(strands, points, arcs, draw(st.integers(0, 9)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_serialize_diagram_matches_json_reference_on_standard(d):
    f = standard_factorization(d)
    diag = assemble(f)
    assert serialize_diagram(diag) == reference_serialize_diagram(diag)
    assert serialize_diagram(diag, source=f) == reference_serialize_diagram(diag, f)


# factorizations() draws empty conjugators often
@given(hand_built_diagrams(), st.one_of(st.none(), factorizations()))
@settings(max_examples=200, deadline=None)
def test_serialize_diagram_matches_json_reference(diag, source):
    assert serialize_diagram(diag, source) == reference_serialize_diagram(diag, source)


@given(factorizations())
@settings(max_examples=200, deadline=None)
def test_serialize_factorization_matches_json_reference(f):
    expected = json.dumps(factorization_to_dict(f), indent=2, sort_keys=True) + "\n"
    assert serialize_factorization(f) == expected


def test_serialize_diagram_writes_non_finite_and_integer_points_as_json_does():
    points = (BridgePoint(0, math.nan, math.inf, 1), BridgePoint(1, 0, -math.inf, -1))
    diag = TorusDiagram(2, points, (Arc("A", 0, 1, ((0, 0), (3, -2))),))
    assert serialize_diagram(diag) == reference_serialize_diagram(diag)


# -- the reader against its old form ---------------------------------------------
#
# diagram_from_dict before its loops were inlined, kept as the reference.  It
# reads the source factorization with the current factorization_from_dict.


def reference_diagram_from_dict(doc):
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


def _outcome(read, doc):
    try:
        return ("ok", read(doc))
    except DocumentError as exc:
        return ("refused", str(exc))
    except (TypeError, ValueError, OverflowError) as exc:
        return ("raised", type(exc).__name__)


_WRAPS_REFUSAL = re.compile(r"diagram\.arcs\[(\d+)\]\.wraps\[(\d+)\]: expected \[wx, wy\] integers")


def _is_new_refusal(doc, message):
    """The refusals the reader gained: a boolean wrap, a negative count, and an
    integer too large for a float (the reference raises OverflowError)."""
    if message.startswith("diagram.stabilization_count: expected a non-negative integer"):
        return doc["stabilization_count"] < 0
    if message.endswith("too large for a float"):
        return _outcome(reference_diagram_from_dict, doc) == ("raised", "OverflowError")
    m = _WRAPS_REFUSAL.fullmatch(message)
    if m is None:
        return False
    w = doc["arcs"][int(m[1])]["wraps"][int(m[2])]
    return any(type(t) is bool for t in w)


@functools.cache
def _standard_document(d):
    f = standard_factorization(d)
    return serialize_diagram(assemble(f), source=f)


def _fields(doc):
    """(container, key) of every value in the document, at every depth."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


_DELETE = object()


def _replacements(value, n_points):
    """Values near ``value`` and of the wrong kind, plus deletion."""
    wrong_kind = [None, "1", [], {}, True]
    if isinstance(value, bool):
        near = [not value, 0, 1]
    elif isinstance(value, int):
        near = [value - 1, value + 1, -value, 0, 1, -1, 2, n_points - 1, n_points,
                10**20, 10**400, False]
        if value.bit_length() <= 1000:  # 10**400 is too large for a float
            near.append(float(value))
    elif isinstance(value, float):
        near = [value + 1, value - 1, -value, 0.0, 1.0, 0.999999, -1e-06, math.nan,
                math.inf, 0, int(value) if math.isfinite(value) else 0, 10**400]
    elif isinstance(value, str):
        near = ["A", "B", "C", "D", "", "2", 1]
    elif isinstance(value, list):
        near = [value[:-1], value + value[-1:], value[::-1], [True, False], [0.5, 0.5],
                [1, 2, 3], 5]
    else:
        near = [5]
    return near + wrong_kind + [_DELETE]


def _compare_readers(doc):
    new = _outcome(diagram_from_dict, doc)
    old = _outcome(reference_diagram_from_dict, doc)
    if new != old:
        assert new[0] == "refused" and _is_new_refusal(doc, new[1]), (new, old)


def test_diagram_from_dict_matches_reference_reader_on_each_field_change():
    # every single-field change to the standard d = 2 document
    doc = json.loads(_standard_document(2))
    n_points = len(doc["bridge_points"])
    for node, key in _fields(doc):
        kept = node[key]
        for value in _replacements(kept, n_points):
            if value is _DELETE:
                if not isinstance(node, dict):
                    continue
                del node[key]
            else:
                node[key] = copy.deepcopy(value)
            _compare_readers(doc)
            node[key] = kept


@st.composite
def mutated_documents(draw):
    if draw(st.booleans()):
        doc = json.loads(_standard_document(draw(st.sampled_from([2, 3]))))
    else:
        doc = json.loads(serialize_diagram(draw(hand_built_diagrams())))
    n_points = len(doc["bridge_points"])
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(_fields(doc)))
        value = draw(st.sampled_from(_replacements(node[key], n_points)))
        if value is _DELETE:
            if isinstance(node, dict):
                del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return doc


@given(mutated_documents())
@settings(max_examples=200, deadline=None)
def test_diagram_from_dict_matches_reference_reader(doc):
    _compare_readers(doc)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_diagram_from_dict_matches_reference_reader_on_standard(d):
    f = standard_factorization(d)
    doc = json.loads(serialize_diagram(assemble(f), source=f))
    assert diagram_from_dict(doc) == reference_diagram_from_dict(doc)
