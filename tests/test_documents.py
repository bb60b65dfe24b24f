import copy
import enum
import functools
import itertools
import json
import operator
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from braidshadow import documents
from braidshadow.diagram import Arc, BridgePoint, TorusDiagram, assemble
from braidshadow.documents import (
    _FLOAT_BOUND,
    DIAGRAM_VERSION,
    MAX_STRANDS,
    DocumentError,
    _check_version,
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
    MAX_EXPONENT,
    BandFactor,
    Factorization,
    standard_factorization,
)
from braidshadow.words import BraidWord
from support import random_factorization
from test_cli import _cli_replacements, _set


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
    # an int subclass, which JSON never gives, is refused like any other non-integer
    exponent = enum.IntEnum("Exponent", "ONE").ONE
    with pytest.raises(DocumentError, match=r"^factorization\.factors\[0\]\.exponent: expected "
                                            rf"an integer, got {re.escape(repr(exponent))}$"):
        factorization_from_dict({**base, "factors": [{"conjugator": [], "exponent": exponent,
                                                      "sign": 1}]})


def _d2_with_exponents(top, bottom, sign):
    return {"format_version": "1", "strands": 2, "factors": [
        {"conjugator": [], "exponent": top, "sign": 1},
        {"conjugator": [], "exponent": bottom, "sign": sign}]}


def test_exponents_are_read_up_to_the_expansion_bound_when_the_sum_is_right():
    # s1^E s1^-(E-2) has the full twist's exponent sum
    f = factorization_from_dict(_d2_with_exponents(MAX_EXPONENT, MAX_EXPONENT - 2, -1))
    assert [b.exponent for b in f.factors] == [MAX_EXPONENT, MAX_EXPONENT - 2]
    doc = _d2_with_exponents(MAX_EXPONENT + 1, MAX_EXPONENT - 1, -1)
    with pytest.raises(DocumentError, match=r"^source\.factors\[0\]: band exponent must be "
                                            r"<= 1000000, got 1000001$"):
        factorization_from_dict(doc, "source")
    # the first bad factor in document order is named
    doc = _d2_with_exponents(1, MAX_EXPONENT + 1, 1)
    doc["factors"].insert(0, {"conjugator": [1], "exponent": MAX_EXPONENT, "sign": -1})
    doc["factors"].append({"conjugator": [], "exponent": MAX_EXPONENT + 2, "sign": 1})
    with pytest.raises(DocumentError, match=r"^factorization\.factors\[2\]: band exponent must "
                                            r"be <= 1000000, got 1000001$"):
        factorization_from_dict(doc)


def test_an_exponent_above_the_bound_is_refused_whatever_the_sum():
    for top, bottom, sign in ((10**60, 1, 1), (MAX_EXPONENT + 1, 1, 1), (10**60, 10**60, -1)):
        with pytest.raises(DocumentError, match=r"^factorization\.factors\[0\]: band exponent "
                                                rf"must be <= 1000000, got {top}$"):
            parse_factorization(json.dumps(_d2_with_exponents(top, bottom, sign)))
    assert parse_factorization(serialize_factorization(standard_factorization(3))) == \
        standard_factorization(3)


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
    # in fractions of a period: bridge points and the first vertex of every
    # arc lie in [0, 1)^2
    diag = assemble(standard_factorization(3))
    doc = json.loads(serialize_diagram(diag))
    nx, ny = doc["scale"]
    assert (nx, ny) == diag.scale == (16, 72)  # Ny = 4(n + s)
    for arc in doc["arcs"]:
        x, y = arc["path"][0]
        assert 0 <= x < nx and 0 <= y < ny
    for p in doc["bridge_points"]:
        assert 0 <= p["x"] < nx and 0 <= p["y"] < ny


def test_diagram_parse_rejects_unknown_bridge_id():
    diag = assemble(standard_factorization(2))
    doc = json.loads(serialize_diagram(diag))
    doc["arcs"][0]["start"] = 99
    with pytest.raises(DocumentError, match="unknown bridge point id"):
        parse_diagram(json.dumps(doc))


def test_diagram_parse_rejects_out_of_range_coordinates():
    diag = assemble(standard_factorization(2))
    doc = json.loads(serialize_diagram(diag))
    doc["bridge_points"][0]["x"] = 12
    with pytest.raises(DocumentError, match=r"\[0,12\) x \[0,8\)"):
        parse_diagram(json.dumps(doc))


def test_vertices_are_read_while_their_period_count_fits_a_float():
    doc = json.loads(serialize_diagram(assemble(standard_factorization(2))))
    bound = 12 * (2**1024 - 2**970)  # Nx = 12
    for x in (bound - 1, -bound + 1):
        x / 12  # fits a float
        doc["arcs"][0]["path"][1][0] = x
        assert diagram_from_dict(doc)[0].arcs[0].path[1][0] == x
    for x in (bound, -bound):
        with pytest.raises(OverflowError):
            x / 12
        doc["arcs"][0]["path"][1][0] = x
        with pytest.raises(DocumentError, match=r"arcs\[0\]\.path\[1\]: .* too large for a float$"):
            diagram_from_dict(doc)


# -- the direct writer against json.dumps --------------------------------------
#
# The writer's old form, kept as the reference: build the document as a dict
# and let json.dumps(sort_keys=True, separators=(",", ":")) lay it out.


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


def diagram_to_dict(diag, source=None):
    doc = {
        "format_version": "3",
        "type": "diagram",
        "strands": diag.strands,
        "scale": list(diag.scale),
        "bridge_points": [{"x": p.x, "y": p.y, "sign": p.sign} for p in diag.bridge_points],
        "arcs": [
            {"color": arc.color, "start": arc.start, "end": arc.end,
             "path": [list(v) for v in arc.path]}
            for arc in diag.arcs
        ],
    }
    if source is not None:
        doc["source_factorization"] = factorization_to_dict(source)
    return doc


def reference_serialize_diagram(diag, source=None):
    return json.dumps(diagram_to_dict(diag, source), sort_keys=True, separators=(",", ":")) + "\n"


# Hand-built diagrams: not necessarily valid, but every field has the type the
# writer expects.  Lifted lattice coordinates lie within ``reach`` periods of
# the unit square and gather at the period edges; a large ``reach`` gives
# vertices many periods away.
def _coords(n, reach):
    return st.one_of(
        st.integers(-reach * n, reach * n),
        st.sampled_from([0, 1, n - 1, n, n + 1, -1, -n, 2 * n]),
    )


@st.composite
def hand_built_diagrams(draw, reach=10**6):
    strands = draw(st.integers(1, 6))
    scale = tuple(draw(st.one_of(st.sampled_from([1, 4, 12, 10**6]), st.integers(1, 10**4)))
                  for _ in range(2))
    n_points = draw(st.integers(0, 6))
    points = tuple(
        BridgePoint(
            i,
            draw(st.integers(0, scale[0] - 1)),
            draw(st.integers(0, scale[1] - 1)),
            draw(st.sampled_from([1, -1])),
        )
        for i in range(n_points)
    )
    vertex = st.tuples(_coords(scale[0], reach), _coords(scale[1], reach))
    arcs = tuple(
        Arc(
            draw(st.sampled_from("ABC")),
            draw(st.integers(0, max(n_points - 1, 0))),
            draw(st.integers(0, max(n_points - 1, 0))),
            tuple(draw(st.lists(vertex, max_size=6))),
        )
        for _ in range(draw(st.integers(0, 5)))
    )
    return TorusDiagram(strands, scale, points, arcs)


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


@given(hand_built_diagrams())
@settings(max_examples=200, deadline=None)
def test_hand_built_diagrams_round_trip(diag):
    readable = diag.strands >= 2 and all(
        len(arc.path) >= 2 and arc.start < len(diag.bridge_points) for arc in diag.arcs
    )
    if readable:
        assert parse_diagram(serialize_diagram(diag)) == (diag, None)


@given(factorizations())
@settings(max_examples=200, deadline=None)
def test_serialize_factorization_matches_json_reference(f):
    expected = json.dumps(factorization_to_dict(f), sort_keys=True, separators=(",", ":")) + "\n"
    assert serialize_factorization(f) == expected


def test_serialize_diagram_writes_extreme_integer_points_as_json_does():
    points = (BridgePoint(0, 0, 10**400 - 1, 1), BridgePoint(1, 0, -(2**64), -1))
    arcs = (Arc("A", 0, 1, ((0, -(10**400)), (3 * 10**30, -2))),)
    diag = TorusDiagram(2, (1, 10**400), points, arcs)
    assert serialize_diagram(diag) == reference_serialize_diagram(diag)


# -- the one-pass readers against the per-item readers --------------------------
#
# The per-item readers as they were before each took a one-test path for a
# well-formed item, kept as the reference, with the branch of
# ``diagram_from_dict`` that ran them.  Today's readers check each field once,
# in the reference's order, and must name the same first bad field.


def _outcome(read, doc):
    try:
        return ("ok", read(doc))
    except DocumentError as exc:
        return ("refused", str(exc))
    except (TypeError, ValueError, OverflowError) as exc:
        return ("raised", type(exc).__name__)


def _is_type_refusal(doc, message):
    """The refusal of a document, or of its embedded source, whose ``type``
    names another kind."""
    for where, node, kind in (("diagram", doc, "diagram"),
                              ("diagram.source_factorization",
                               doc.get("source_factorization"), "factorization")):
        if message.startswith(f"{where}.type: "):
            return (isinstance(node, dict) and node.get("type", kind) != kind
                    and message == f"{where}.type: expected {kind!r}, got {node['type']!r}")
    return False


def reference_bridge_point(raw, i, loc, scale):
    """Bridge point ``i``, every field checked in order."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{loc}: expected an object")
    nx, ny = scale
    x, y = _intfield(raw, "x", loc), _intfield(raw, "y", loc)
    if not (0 <= x < nx and 0 <= y < ny):
        raise DocumentError(f"{loc}: coordinates must lie in [0,{nx}) x [0,{ny})")
    sign = _intfield(raw, "sign", loc)
    if sign not in (1, -1):
        raise DocumentError(f"{loc}.sign: expected +1 or -1")
    return BridgePoint(i, x, y, sign)


def reference_arc(raw, loc, n_points, scale):
    """An arc, every field checked in order."""
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
    if not (isinstance(path, list) and len(path) >= 2):
        raise DocumentError(f"{loc}.path: expected a list of >= 2 vertices")
    nx, ny = scale
    bx, by = nx * _FLOAT_BOUND, ny * _FLOAT_BOUND
    lifted = []
    for j, w in enumerate(path):
        if not (type(w) is list and len(w) == 2 and type(w[0]) is int and type(w[1]) is int):
            raise DocumentError(f"{loc}.path[{j}]: expected [X, Y] integers")
        x, y = w
        if not (-bx < x < bx and -by < y < by):
            raise DocumentError(
                f"{loc}.path[{j}]: expected [X, Y] integers, got one too large for a float"
            )
        lifted.append((x, y))
    return Arc(color, start, end, tuple(lifted))


def reference_item_by_item(doc):
    """``diagram_from_dict`` as it read every item with the readers above."""
    where = "diagram"
    _check_version(doc, where, DIAGRAM_VERSION)
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
    points = [
        reference_bridge_point(raw, i, f"{where}.bridge_points[{i}]", scale)
        for i, raw in enumerate(raw_points)
    ]
    raw_arcs = _require(doc, "arcs", where)
    if not isinstance(raw_arcs, list):
        raise DocumentError(f"{where}.arcs: expected a list")
    arcs = [
        reference_arc(raw, f"{where}.arcs[{i}]", len(points), scale)
        for i, raw in enumerate(raw_arcs)
    ]
    diag = TorusDiagram(strands, scale, tuple(points), tuple(arcs))
    source = None
    if "source_factorization" in doc:
        source = factorization_from_dict(
            doc["source_factorization"], f"{where}.source_factorization"
        )
    return diag, source


def _assert_reads_as_the_reference(doc):
    """The same diagram, or the same message, as the reference.  The one
    refusal the reader gained, a ``type`` naming another kind, is checked
    first; with the types put right, the rest reads as the reference does."""
    new, old = _outcome(diagram_from_dict, doc), _outcome(reference_item_by_item, doc)
    if new != old:
        assert new[0] == "refused" and _is_type_refusal(doc, new[1]), (new, old)
        doc = copy.deepcopy(doc)
        doc.pop("type", None)
        if isinstance(doc.get("source_factorization"), dict):
            doc["source_factorization"].pop("type", None)
        assert _outcome(diagram_from_dict, doc) == old


@functools.cache
def _standard_text(d):
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
    elif isinstance(value, str):
        near = ["A", "B", "C", "D", "", "2", 1]
    elif isinstance(value, list):
        near = [value[:-1], value + value[-1:], value[::-1], [True, False], [0.5, 0.5],
                [1, 2, 3], 5]
    else:
        near = [5]
    return near + wrong_kind + [_DELETE]


def test_diagram_from_dict_matches_reference_reader_on_each_field_change():
    # every single-field change to the standard d = 2 document
    doc = json.loads(_standard_text(2))
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
            _assert_reads_as_the_reference(doc)
            node[key] = kept


def _change(doc, path, value):
    """Set the field at ``path`` to a copy of ``value``, or delete it."""
    node = functools.reduce(operator.getitem, path[:-1], doc)
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)


_POINT_FIELDS = [("bridge_points", 1, key) for key in ("x", "y", "sign")]
_ARC_FIELDS = [("arcs", 0, key) for key in ("color", "start", "end", "path")] + [
    ("arcs", 0, "path", 1)]


def test_diagram_from_dict_matches_reference_reader_on_two_changed_fields_of_an_item():
    # which of two bad fields of one item is named first; a field is changed
    # to the first two of its _replacements (the same kind where there is
    # one), to True (the wrong kind) or deleted (not path[1])
    text = _standard_text(2)
    n_points = len(json.loads(text)["bridge_points"])
    outcomes = set()
    for fields in (_POINT_FIELDS, _ARC_FIELDS):
        for pair in itertools.combinations(fields, 2):
            deep, shallow = sorted(pair, key=len, reverse=True)  # path[1] before path
            for first in range(4):
                for second in range(4):
                    doc = json.loads(text)
                    for path, k in ((deep, first), (shallow, second)):
                        value = functools.reduce(operator.getitem, path, doc)
                        changes = _replacements(value, n_points)[:2] + [True, _DELETE]
                        if changes[k] is _DELETE and isinstance(path[-1], int):
                            break  # a vertex is changed, not deleted
                        _change(doc, path, changes[k])
                    else:
                        new = _outcome(diagram_from_dict, doc)
                        assert new == _outcome(reference_item_by_item, doc), (pair, first, second)
                        outcomes.add(new[0] if new[0] != "refused" else new[1].split(":")[0])
    assert outcomes >= {"ok", "diagram.bridge_points[1]", "diagram.bridge_points[1].x",
                        "diagram.arcs[0]", "diagram.arcs[0].path[1]"}


@st.composite
def mutated_documents(draw):
    """Standard d = 2 or 3 with one to three fields replaced or deleted."""
    doc = json.loads(_standard_text(draw(st.sampled_from([2, 3]))))
    for _ in range(draw(st.integers(1, 3))):
        fields = []
        stack = [(doc, False)]
        while stack:
            node, in_path = stack.pop()
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            for key in keys:
                fields.append((node, key, in_path or key == "path"))
                if isinstance(node[key], (dict, list)):
                    stack.append((node[key], in_path or key == "path"))
        node, key, in_path = draw(st.sampled_from(fields))
        if isinstance(node, dict) and draw(st.integers(0, 9)) == 0:
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(_cli_replacements(node[key], in_path))))
    return doc


# The next two keep the names they had when they tested a whole-list check
# that ran before the per-item readers; they test the single-path item
# readers now, which check each field once, in order.
@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_whole_list_check_matches_the_per_item_readers(doc):
    # equal diagrams, or the message of the first bad field in document order
    _assert_reads_as_the_reference(doc)


@pytest.mark.parametrize("d", range(2, 9))
def test_whole_list_check_reads_standard_diagrams(d):
    doc = json.loads(_standard_text(d))
    f = standard_factorization(d)
    assert diagram_from_dict(doc) == reference_item_by_item(doc) == (assemble(f), f)


def _built_documents():
    """``build`` output for standard d = 2..8 and 30 seeded random walks at d = 3, 4."""
    rng = random.Random(20)
    fs = [standard_factorization(d) for d in range(2, 9)]
    fs += [random_factorization(rng.choice((3, 4)), rng, moves=8, max_conjugator_length=4)
           for _ in range(30)]
    return [serialize_diagram(assemble(f), source=f) for f in fs]


def test_built_documents_take_the_one_test_path():
    # named for the combined accept test the item readers had; with one path
    # now, a built document must still make no item-located _require or
    # _intfield call, which would build a location for every item
    with mock.patch.object(documents, "_require", wraps=documents._require) as require, \
            mock.patch.object(documents, "_intfield", wraps=documents._intfield) as intfield:
        for text in _built_documents():
            parse_diagram(text)
    wheres = [c.args[2] for c in require.call_args_list + intfield.call_args_list]
    assert wheres and not [w for w in wheres if "bridge_points[" in w or "arcs[" in w]


_BOUND_X = 12 * _FLOAT_BOUND  # Nx * _FLOAT_BOUND for standard d = 2


@pytest.mark.parametrize(
    "path, value, read",
    [
        (("bridge_points", 0, "sign"), True, False),
        (("bridge_points", 0, "x"), True, False),
        (("bridge_points", 0, "y"), False, False),
        (("bridge_points", 0, "x"), 1.0, False),
        (("bridge_points", 0, "sign"), -1, True),
        (("arcs", 0, "path", 1, 0), True, False),
        (("arcs", 0, "path", 1), [1, 2, 3], False),
        (("arcs", 0, "path", 1), {"X": 1, "Y": 2}, False),
        (("arcs", 0, "path", 1), "12", False),
        (("arcs", 0, "path", 1), (1, 2), False),
        (("arcs", 0, "path"), None, False),
        (("arcs", 0, "path"), [[1, 2]], False),
        (("arcs", 0, "path", 1, 0), _BOUND_X, False),
        (("arcs", 0, "path", 1, 0), -_BOUND_X, False),
        (("arcs", 0, "path", 1, 0), _BOUND_X - 1, True),
        (("arcs", 0, "color"), "a", False),
        (("arcs", 0, "end"), 8, False),  # n_points
        (("arcs", 0, "end"), 7, True),
        (("arcs", 0, "start"), -1, False),
    ],
    ids=["sign-true", "x-true", "y-false", "x-float", "sign-minus",
         "vertex-true", "vertex-3-ints", "vertex-object", "vertex-string", "vertex-tuple",
         "path-null", "path-1-vertex", "vertex-at-bound", "vertex-at-minus-bound",
         "vertex-inside-bound", "color-lower", "end-n-points", "end-last-point", "start-minus"],
)
def test_one_test_boundary_reads_as_the_reference(path, value, read):
    doc = json.loads(_standard_text(2))
    assert len(doc["bridge_points"]) == 8 and doc["scale"][0] == 12
    _set(doc, path, value)
    new = _outcome(diagram_from_dict, doc)
    assert new == _outcome(reference_item_by_item, doc)
    assert new[0] == ("ok" if read else "refused")
