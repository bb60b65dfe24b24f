import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from braidshadow.diagram import Arc, BridgePoint, TorusDiagram, assemble
from braidshadow.factorization import (
    BandFactor,
    Factorization,
    standard_factorization,
)
from braidshadow.svg import export_svg
from braidshadow.words import identity
from test_diagram import _acceptance_corpus
from test_documents import hand_built_diagrams


def test_standard_d2_svg_contents():
    diag = assemble(standard_factorization(2))
    svg = export_svg(diag)
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == 8
    assert svg.count("<polyline") >= 12
    for color in ("red", "blue", "green"):
        assert f'stroke="{color}"' in svg


def test_svg_is_deterministic():
    diag = assemble(standard_factorization(3))
    assert export_svg(diag) == export_svg(diag)


def test_empty_diagram_renders_frame_only():
    diag = TorusDiagram(2, (12, 8), (), ())
    svg = export_svg(diag)
    assert "<rect" in svg
    assert "<circle" not in svg and "<polyline" not in svg


def test_cusp_tile_has_blue_and_green_wrapping_arcs():
    f = Factorization(2, (BandFactor(identity(2), exponent=2),))
    svg = export_svg(assemble(f))
    # the k=2 band's C arc wraps twice, so green segments are drawn in
    # several translated copies
    assert svg.count('stroke="green"') > svg.count('stroke="blue"')


def _edge_diagram():
    """Segments ending exactly on y = 0, on y = Ny and on x = Nx, and one
    spanning more than a period in x, on a (10, 8) lattice."""
    points = (BridgePoint(2, 3, -1), BridgePoint(6, 5, 1))
    arcs = (
        Arc("A", 0, 1, ((2, 3), (5, 0))),
        Arc("A", 0, 1, ((2, 3), (4, 8))),
        Arc("B", 0, 1, ((2, 3), (10, 5))),
        Arc("C", 0, 1, ((2, 3), (27, 1), (36, -3))),
    )
    return TorusDiagram(2, (10, 8), points, arcs)


def test_export_svg_is_pinned():
    """``export`` output bytes (sha256 over the SVGs in order) for standard
    d = 2..6, the acceptance corpus, the d = 2 cusp and a diagram whose
    segments end on the frame."""
    cusp = Factorization(2, (BandFactor(identity(2), exponent=2),))
    inputs = [standard_factorization(d) for d in range(2, 7)] + _acceptance_corpus() + [cusp]
    digest = hashlib.sha256()
    for diag in [assemble(f) for f in inputs] + [_edge_diagram()]:
        digest.update(export_svg(diag).encode())
    assert digest.hexdigest() == (
        "5e070726f52005a9b9427ca60d426fa3fa7606ae572164689a02e5322a17360d"
    )


# export_svg's loop before _px/_py were inlined, kept as the reference; it
# tests every translate of a segment by whole periods and draws those that
# meet the closed square.

_SIZE = 400.0
_MARGIN = 20.0
_COLORS = {"A": "red", "B": "blue", "C": "green"}


def _px(x, nx):
    return f"{_MARGIN + x / nx * _SIZE:.2f}"


def _py(y, ny):
    return f"{_MARGIN + (ny - y) / ny * _SIZE:.2f}"


def reference_export_svg(diag):
    nx, ny = diag.scale
    total = 2 * _MARGIN + _SIZE
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total:.0f}" height="{total:.0f}" '
        f'viewBox="0 0 {total:.0f} {total:.0f}">',
        "<defs>",
        f'<clipPath id="square"><rect x="{_MARGIN:.2f}" y="{_MARGIN:.2f}" '
        f'width="{_SIZE:.2f}" height="{_SIZE:.2f}"/></clipPath>',
        "</defs>",
        f'<rect x="{_MARGIN:.2f}" y="{_MARGIN:.2f}" width="{_SIZE:.2f}" '
        f'height="{_SIZE:.2f}" fill="white" stroke="black" stroke-width="1"/>',
        '<g clip-path="url(#square)" fill="none" stroke-width="1.5">',
    ]
    for arc in diag.arcs:
        color = _COLORS[arc.color]
        for (p, q) in zip(arc.path, arc.path[1:]):
            mx_lo = math.floor(Fraction(-max(p[0], q[0]), nx))
            mx_hi = math.ceil(Fraction(nx - min(p[0], q[0]), nx))
            my_lo = math.floor(Fraction(-max(p[1], q[1]), ny))
            my_hi = math.ceil(Fraction(ny - min(p[1], q[1]), ny))
            for mx in range(mx_lo, mx_hi + 1):
                for my in range(my_lo, my_hi + 1):
                    x1, y1 = p[0] + mx * nx, p[1] + my * ny
                    x2, y2 = q[0] + mx * nx, q[1] + my * ny
                    if max(x1, x2) < 0 or min(x1, x2) > nx:
                        continue
                    if max(y1, y2) < 0 or min(y1, y2) > ny:
                        continue
                    out.append(
                        f'<polyline stroke="{color}" points="'
                        f'{_px(x1, nx)},{_py(y1, ny)} {_px(x2, nx)},{_py(y2, ny)}"/>'
                    )
    out.append("</g>")
    for i, pt in enumerate(diag.bridge_points):
        fill = "black" if pt.sign > 0 else "white"
        out.append(
            f'<circle cx="{_px(pt.x, nx)}" cy="{_py(pt.y, ny)}" r="3" '
            f'fill="{fill}" stroke="black" stroke-width="1"/>'
        )
        label = "+" if pt.sign > 0 else "−"
        out.append(
            f'<text x="{_px(pt.x, nx)}" y="{float(_py(pt.y, ny)) - 5:.2f}" '
            f'font-size="9" text-anchor="middle">{label}{i}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_svg_matches_reference_on_standard(d):
    diag = assemble(standard_factorization(d))
    assert export_svg(diag) == reference_export_svg(diag)


def test_svg_matches_reference_on_cusp_tile():
    diag = assemble(Factorization(2, (BandFactor(identity(2), exponent=2),)))
    assert export_svg(diag) == reference_export_svg(diag)


# both loops visit every translate of a segment, so keep segments short
@given(hand_built_diagrams(reach=4))
@settings(max_examples=200, deadline=None)
def test_svg_matches_reference(diag):
    assert export_svg(diag) == reference_export_svg(diag)
