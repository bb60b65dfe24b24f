"""SVG rendering of torus diagrams.

The unit square is drawn with a frame (opposite sides identified); A, B
and C arcs are polylines in red, blue and green.  Lifted arc segments
are drawn once per translate by whole periods whose bounding box meets
the square, decided on the integer lattice, clipped to the frame, so
wrapping arcs reappear on the opposite side.  Each lattice coordinate's
text is formatted once per export, in one dict per axis, for segments
spanning at most one period: their drawn ends lie within one period of
the square, so each dict holds at most 3N + 1 texts.  Longer segments
format their own.  Output is byte-identical for identical diagrams.
"""

from __future__ import annotations

from .diagram import TorusDiagram, _shifts

_SIZE = 400.0
_MARGIN = 20.0
_COLORS = {"A": "red", "B": "blue", "C": "green"}


class _Texts(dict):
    """Lattice coordinate -> its SVG text, formatted by ``text`` on first use."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, v: int) -> str:
        s = self[v] = self.text(v)
        return s


def export_svg(diag: TorusDiagram) -> str:
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
    # x maps to _MARGIN + x / Nx * _SIZE; y is flipped, since diagram y
    # grows upward and SVG y downward
    nx, ny = diag.scale
    xtext = _Texts(lambda x: f"{_MARGIN + x / nx * _SIZE:.2f}")
    ytext = _Texts(lambda y: f"{_MARGIN + (ny - y) / ny * _SIZE:.2f}")
    for arc in diag.arcs:
        head = f'<polyline stroke="{_COLORS[arc.color]}" points="'
        path = arc.path
        for (px, py), (qx, qy) in zip(path, path[1:]):
            xlo, xhi = (px, qx) if px <= qx else (qx, px)
            ylo, yhi = (py, qy) if py <= qy else (qy, py)
            # the texts of a segment longer than a period are not kept
            fx = xtext.__getitem__ if xhi - xlo <= nx else xtext.text
            fy = ytext.__getitem__ if yhi - ylo <= ny else ytext.text
            # every translate of the segment that meets the closed square
            ys = [(fy(py + dy), fy(qy + dy)) for dy in _shifts(0, ny, ylo, yhi, ny)]
            for dx in _shifts(0, nx, xlo, xhi, nx):
                sx1, sx2 = fx(px + dx), fx(qx + dx)
                for sy1, sy2 in ys:
                    out.append(f'{head}{sx1},{sy1} {sx2},{sy2}"/>')
    out.append("</g>")
    for i, pt in enumerate(diag.bridge_points):
        fill = "black" if pt.sign > 0 else "white"
        sx, sy = xtext[pt.x], ytext[pt.y]
        out.append(
            f'<circle cx="{sx}" cy="{sy}" r="3" '
            f'fill="{fill}" stroke="black" stroke-width="1"/>'
        )
        label = "+" if pt.sign > 0 else "−"
        out.append(
            f'<text x="{sx}" y="{float(sy) - 5:.2f}" '
            f'font-size="9" text-anchor="middle">{label}{i}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
