from braidshadow.diagram import TorusDiagram, assemble
from braidshadow.factorization import (
    Factorization,
    singular_factor,
    standard_factorization,
)
from braidshadow.svg import export_svg
from braidshadow.words import identity


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
    diag = TorusDiagram(2, (), ())
    svg = export_svg(diag)
    assert "<rect" in svg
    assert "<circle" not in svg and "<polyline" not in svg


def test_cusp_tile_has_blue_and_green_wrapping_arcs():
    f = Factorization(2, (singular_factor(identity(2), 2),))
    svg = export_svg(assemble(f))
    # the k=2 band's C arc wraps twice, so green segments are drawn in
    # several translated copies
    assert svg.count('stroke="green"') > svg.count('stroke="blue"')
