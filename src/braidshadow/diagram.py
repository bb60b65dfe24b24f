"""Torus shadow diagrams of bridge-trisected surfaces.

The flat torus is the unit square with opposite sides identified.  Every
coordinate is an integer on the diagram's lattice of ``scale = (Nx, Ny)``
points per period, (X, Y) standing for (X/Nx, Y/Ny), so the verifiers
below decide with integer arithmetic alone.  A diagram built from a band
factorization stacks one rectangular tile per band, in reverse order
(last factor on top), so that reading the diagram top to bottom spells
g_n s1^{-k_n} g_n^{-1} ... g_1 s1^{-k_1} g_1^{-1}.  ``assemble`` draws
each tile once, straight into diagram coordinates, cutting the A strands
in place at the tile's bridge points.

A bridge point is its position in ``bridge_points``, which an arc's
``start`` and ``end`` index.  Arc paths are stored as PL vertex lists in
*lifted* coordinates: the first vertex lies in [0,Nx) x [0,Ny) and later
vertices may leave it; reducing mod (Nx, Ny) gives the torus picture.
Every arc is oriented from its (-) bridge point to its (+) bridge point.
Transversality is the color-wise monotonicity of those oriented arcs: A
strictly up, B strictly left, C strictly decreasing in y - x.

Orientation convention: within a tile the (+) pair sits on the lower
band level and the (-) pair above it, and each mini-stabilization cuts
an A strand with its (+) point below its (-) point.  So every A arc
runs monotonically up from a (-) point to the next (+) point on its
strand.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .factorization import Factorization, validate

Point = tuple[int, int]


class DiagramError(ValueError):
    """Raised when a diagram is malformed or an operation's input is unusable."""


class BridgePoint(NamedTuple):
    x: int  # in [0, Nx)
    y: int  # in [0, Ny)
    sign: int  # +1 or -1


class Arc(NamedTuple):
    color: str  # 'A', 'B' or 'C'
    start: int  # index in bridge_points of the (-) endpoint
    end: int  # index in bridge_points of the (+) endpoint
    path: tuple[Point, ...]  # lifted PL vertices, path[0] at the (-) point


class TorusDiagram(NamedTuple):
    strands: int
    scale: tuple[int, int]  # (Nx, Ny): lattice points per period
    bridge_points: tuple[BridgePoint, ...]
    arcs: tuple[Arc, ...]


class BridgeParams(NamedTuple):
    b: int
    c1: int
    c2: int
    c3: int
    s: int

    def euler(self) -> int:
        return self.c1 + self.c2 + self.c3 - self.b

    def text(self) -> str:
        return f"({self.b}; {self.c1}, {self.c2}, {self.c3}), s = {self.s}"


# Tile layout: column p sits at X = 4(p + 1) of Nx = 4(d + 1).  Each
# braid-box letter, and the band between the two boxes, takes a step of 4
# rows cut at rows 1 and 3, so the quarter points of a letter's diagonal
# are lattice points, and a tile with conjugator g is 4(2|g| + 1) rows high.
_STEP = 4


def _column_x(pos: int) -> int:
    return _STEP * (pos + 1)


def assemble(f: Factorization) -> TorusDiagram:
    """Stack one crossing-free tile per band into a torus diagram.

    One pass draws each tile straight into diagram coordinates, factor 1
    at the bottom.  Bottom to top a tile holds a braid box with the
    letters of g, the band's step, where its four points cut the strands
    at columns 0 and 1, and a box with g reversed, which returns every
    strand to its column.  The strand moving right at a box letter's
    crossing is cut at a quarter and three quarters of the step by a
    (+, -) pair joined by a mini unknot, one B arc wrapping left and one
    C arc wrapping right, so the diagram has no A crossings and
    s = b - 2n = 2 * sum(|g_i|) mini unknots.  A cut closes the strand's
    open A arc and starts the next.  A tile adds its band's four
    points, then its stabilization pairs; then its B arcs, its C arcs and
    the A arcs its cuts closed, strand by strand.  The factorization must
    validate (product equal to the full twist) and every band must be
    positive: a negative band's tile cannot keep the tangles positively
    transverse to the disk foliations.
    """
    if f.strands < 2:
        raise DiagramError("diagram assembly needs at least 2 strands")
    if not f.all_positive():
        raise DiagramError("diagram assembly rejects negative band factors")
    report = validate(f)
    if not report.valid:
        raise DiagramError("factorization does not multiply to the full twist")

    d = f.strands
    nx = _column_x(d)
    x0, x1 = _column_x(0), _column_x(1)
    points: list[BridgePoint] = []
    arcs: list[Arc] = []
    # Per strand: the open A path, the (-) point it starts at (None while it
    # still starts at y = 0), and the piece from y = 0 to the first cut with
    # that cut's (+) point, which closes the last arc across the top edge.
    open_path: list[list[Point]] = [[(_column_x(p), 0)] for p in range(d)]
    open_start: list[int | None] = [None] * d
    head: list[tuple[list[Point], int] | None] = [None] * d
    cur = list(range(d))  # the strand at each column

    def point(x: int, y: int, sign: int) -> int:
        points.append(BridgePoint(x, y, sign))
        return len(points) - 1

    def join(color: str, minus: int, plus: int, wraps: int) -> Arc:
        """A straight arc from point ``minus`` to ``plus`` moved by ``wraps`` periods in x."""
        (mx, my, _), (px, py, _) = points[minus], points[plus]
        return Arc(color, minus, plus, ((mx, my), (px + wraps * nx, py)))

    def add(strand: int, x: int, y: int) -> None:
        if open_path[strand][-1] != (x, y):
            open_path[strand].append((x, y))

    def cut(strand: int, plus: int, minus: int) -> None:
        """End the strand's open path at point ``plus`` and start the next at ``minus``."""
        path = open_path[strand]
        path.append(points[plus][:2])
        if open_start[strand] is None:
            head[strand] = (path, plus)
        else:
            closed[strand].append(Arc("A", open_start[strand], plus, tuple(path)))
        open_path[strand] = [points[minus][:2]]
        open_start[strand] = minus

    def run_box(word: tuple[int, ...], y: int) -> None:
        """Draw a braid box from row y, stabilizing each letter's crossing."""
        for letter in word:
            i = abs(letter) - 1
            xa, xb = _column_x(i), _column_x(i + 1)
            right, left = cur[i], cur[i + 1]
            add(right, xa, y)
            plus, minus = point(xa + 1, y + 1, 1), point(xa + 3, y + 3, -1)
            b_arcs.append(join("B", minus, plus, -1))
            c_arcs.append(join("C", minus, plus, 1))
            cut(right, plus, minus)
            add(right, xb, y + _STEP)
            add(left, xb, y)
            add(left, xa, y + _STEP)
            cur[i], cur[i + 1] = left, right
            y += _STEP

    y0 = 0
    for factor in f.factors:
        g = factor.conjugator.letters
        # the band's step sits between the boxes, cut like a letter's
        y_plus, y_minus = y0 + _STEP * len(g) + 1, y0 + _STEP * len(g) + 3
        p0, p1 = point(x0, y_plus, 1), point(x1, y_plus, 1)
        m0, m1 = point(x0, y_minus, -1), point(x1, y_minus, -1)
        b_arcs = [join("B", m0, p0, -1), join("B", m1, p1, -1)]
        c_arcs = [join("C", m0, p1, 1), join("C", m1, p0, factor.exponent)]
        closed: list[list[Arc]] = [[] for _ in range(d)]
        run_box(g, y0)
        cut(cur[0], p0, m0)
        cut(cur[1], p1, m1)
        run_box(g[::-1], y0 + _STEP * (len(g) + 1))
        y0 += _STEP * (2 * len(g) + 1)
        for p in range(d):
            add(p, _column_x(p), y0)
        arcs.extend(b_arcs + c_arcs)
        for strand_arcs in closed:
            arcs.extend(strand_arcs)

    # validate leaves no strand uncut: it would link no other, and Delta^2 links every pair
    for strand in range(d):
        first, plus = head[strand]
        for (x, y) in first:
            add(strand, x, y + y0)
        arcs.append(Arc("A", open_start[strand], plus, tuple(open_path[strand])))

    return TorusDiagram(d, (nx, y0), tuple(points), tuple(arcs))


# ---------------------------------------------------------------------------
# crossings


def _shifts(lo1: int, hi1: int, lo2: int, hi2: int, n: int) -> range:
    """Shifts by whole periods n that bring [lo2, hi2] to meet [lo1, hi1]."""
    return range(-((hi2 - lo1) // n) * n, ((hi1 - lo2) // n + 1) * n, n)


def _candidate_pairs(segs, nx: int, ny: int):
    """Index pairs (u, v), u < v, of segments that are not parallel and whose
    closed x- and y-intervals both meet mod (Nx, Ny), as the sweep finds them.

    Each interval is moved by whole periods so its low end lies in
    [0, Nx) or [0, Ny).  A sweep up y keeps the open y-intervals; a y-
    interval that reaches Ny is entered again one period down, so pairs
    meeting across the y = 0 seam meet too, and may be found twice.  Each
    opening pairs with the open ones whose x-intervals meet it under some
    shift by whole periods (the test of ``_shifts``) and whose direction is
    not parallel to its own.  A segment spanning a whole period of y is
    entered once, below every other entry, and never leaves, so it meets
    every other in y; the two entries of any other segment are disjoint.
    """
    xs = []  # per segment: its x-interval, low end in [0, Nx), and direction
    events = []
    for u, (_ai, _si, p, q, (xlo, xhi), (lo, hi)) in enumerate(segs):
        x0 = xlo % nx
        xs.append((x0, x0 + (xhi - xlo), q[0] - p[0], q[1] - p[1]))
        if hi - lo >= ny:
            events.append((-ny, 0, u))  # opens before every other entry, never closes
            continue
        lo0 = lo % ny
        hi0 = lo0 + (hi - lo)
        events += [(lo0, 0, u), (hi0, 1, u)]
        if hi0 >= ny:
            events += [(lo0 - ny, 0, u), (hi0 - ny, 1, u)]
    events.sort()  # at equal heights intervals open before others close
    active: set[int] = set()
    for _y, closing, u in events:
        if closing:
            active.remove(u)
            continue
        lo1, hi1, dx1, dy1 = xs[u]
        for v in active:
            lo2, hi2, dx2, dy2 = xs[v]
            if (hi1 - lo2) // nx >= -((hi2 - lo1) // nx) and dx1 * dy2 != dy1 * dx2:
                yield (v, u) if v < u else (u, v)
        active.add(u)


def a_crossings(diag: TorusDiagram):
    """All transverse crossings among A arcs on the torus.

    Returns a list of (arc_i, seg_i, t_i, arc_j, point): segment seg_i of
    arc_i crosses a segment of arc_j at the Fraction t_i along seg_i, with
    the point in the lifted lattice coordinates of arc_i's segment (a pair
    of Fractions).  Each pair that the sweep of ``_candidate_pairs`` yields
    is decided where it is found, over every shift by whole periods that
    brings the two bounding boxes together, by integer cross products: only
    a hit builds Fractions.  Hits are kept per pair, so a pair yielded twice
    counts once; the list is ordered by (segment of arc_i, segment of arc_j,
    x shift, y shift), segments numbered in arc order, so arc_i <= arc_j.
    """
    nx, ny = diag.scale
    segs = []
    for ai, arc in enumerate(diag.arcs):
        if arc.color == "A":
            for si, (p, q) in enumerate(zip(arc.path, arc.path[1:])):
                segs.append((ai, si, p, q, (p[0], q[0]) if p[0] <= q[0] else (q[0], p[0]),
                             (p[1], q[1]) if p[1] <= q[1] else (q[1], p[1])))
    hits = {}  # (u, v) -> its crossings, by x shift, then y shift
    for u, v in _candidate_pairs(segs, nx, ny):
        ai, si, (px, py), (qx, qy), (xlo1, xhi1), (ylo1, yhi1) = segs[u]
        bi, _sj, (rx, ry), (sx, sy), (xlo2, xhi2), (ylo2, yhi2) = segs[v]
        d1x, d1y, d2x, d2y = qx - px, qy - py, sx - rx, sy - ry
        denom = d1x * d2y - d1y * d2x  # not 0, as the pair is not parallel
        lo, hi = (0, denom) if denom > 0 else (denom, 0)
        out = []
        dys = _shifts(ylo1, yhi1, ylo2, yhi2, ny)
        # neighbours on one arc share a vertex only at zero shift, where
        # tn or un is 0: not a proper crossing
        for dx in _shifts(xlo1, xhi1, xlo2, xhi2, nx):
            ex = rx + dx - px
            for dy in dys:
                ey = ry + dy - py
                tn = ex * d2y - ey * d2x
                un = ex * d1y - ey * d1x
                if lo < tn < hi and lo < un < hi:
                    t = Fraction(tn, denom)
                    out.append((ai, si, t, bi, (px + t * d1x, py + t * d1y)))
        if out:
            hits[u, v] = out
    return [c for pair in sorted(hits) for c in hits[pair]]


# ---------------------------------------------------------------------------
# transversality


class Violation(NamedTuple):
    arc_index: int
    color: str
    segment_index: int
    start: Point
    end: Point


def _unit(v: tuple, scale: tuple[int, int]) -> tuple[float, float]:
    """Lattice coordinates as fractions of a period."""
    return (v[0] / scale[0], v[1] / scale[1])


def _crossing_text(crossing: tuple, scale: tuple[int, int]) -> str:
    ai, _si, _t, bi, pt = crossing
    x, y = (float(c % 1) for c in _unit(pt, scale))
    return f"A arcs {ai} and {bi} cross at ({x:.6f}, {y:.6f})"


def _violation_text(v: Violation, scale: tuple[int, int]) -> str:
    return (
        f"arc {v.arc_index} ({v.color}) segment {v.segment_index}: "
        f"{v.color} segment not moving strictly {_RISING[v.color][2]} "
        f"[{_unit(v.start, scale)} -> {_unit(v.end, scale)}]"
    )


# per colour, the functional a*x + b*y (unit coordinates) that its arcs
# strictly increase, and the way that is worded
_RISING = {"A": (0, 1, "upward"), "B": (-1, 0, "left"), "C": (1, -1, "down-right")}


def check_transverse(diag: TorusDiagram) -> list[Violation]:
    """Color-wise monotonicity of every oriented arc; the violations found.

    A arcs (oriented - to +) must strictly gain height y, B arcs strictly
    lose x, and C arcs strictly lose y - x (the slope-1 foliation
    coordinate): each strictly raises its colour's functional in
    ``_RISING``, which is a * dX * Ny + b * dY * Nx on the lattice.
    """
    nx, ny = diag.scale
    rising = {color: (a * ny, b * nx) for color, (a, b, _way) in _RISING.items()}
    violations: list[Violation] = []
    for ai, arc in enumerate(diag.arcs):
        a, b = rising[arc.color]
        for si, (p, q) in enumerate(zip(arc.path, arc.path[1:])):
            if a * (q[0] - p[0]) + b * (q[1] - p[1]) <= 0:
                violations.append(Violation(ai, arc.color, si, p, q))
    return violations


def _read_ends(diag: TorusDiagram) -> tuple[list[str], dict[str, list[int]]]:
    """Every arc end read once: the endpoint faults, one message each, and,
    per color, each bridge point's partner, the other end of its arc of that
    color (the lists are the color's tangle only when there is no fault).

    The diagram must be nonempty, each arc end must name one of its bridge
    points (an end that does not is checked no further), each arc's first
    and last vertex must be congruent mod (Nx, Ny) to its start and end
    points, each arc must run from a (-) point to a (+) point, and each
    point must meet exactly one arc end of each color.  ``bridge_params``
    counts only a diagram with no fault.
    """
    n = len(diag.bridge_points)
    if not n:
        return ["diagram has no bridge points"], {}
    nx, ny = diag.scale
    faults = []
    partners = {color: [0] * n for color in "ABC"}
    ends = [{"A": 0, "B": 0, "C": 0} for _ in diag.bridge_points]
    for ai, arc in enumerate(diag.arcs):
        for i, other, (x, y), sign, role in (
            (arc.start, arc.end, arc.path[0], -1, "starts"),
            (arc.end, arc.start, arc.path[-1], 1, "ends"),
        ):
            if not 0 <= i < n:
                faults.append(f"arc {ai} ({arc.color}) {role} at bridge point {i}, "
                              f"not one of the {n} points")
                continue
            p = diag.bridge_points[i]
            if (x - p.x) % nx or (y - p.y) % ny:
                faults.append(
                    f"arc {ai} ({arc.color}) {role} at ({x % nx / nx:.6f}, {y % ny / ny:.6f}), "
                    f"not at its bridge point {i} ({p.x / nx}, {p.y / ny})"
                )
            if p.sign != sign:
                faults.append(
                    f"arc {ai} ({arc.color}) {role} at bridge point {i}, "
                    f"a ({'+' if p.sign > 0 else '-'}) point; arcs run from (-) to (+)"
                )
            partners[arc.color][i] = other
            ends[i][arc.color] += 1
    for i, counts in enumerate(ends):
        for color, count in counts.items():
            if count != 1:
                faults.append(f"bridge point {i} meets {count} {color} arc ends, expected 1")
    return faults, partners


# ---------------------------------------------------------------------------
# bridge parameters


def _pair_components(a: list[int], b: list[int]) -> list[int]:
    """Closed components of the union of two tangle shadows, given their
    partner lists: the number of bridge points on each.  A component
    alternates between arcs of a and b, so node -> b[a[node]] walks it
    two points a step."""
    seen = bytearray(len(a))
    sizes = []
    for start in range(len(a)):
        node, size = start, 0
        while not seen[node]:
            seen[node] = seen[a[node]] = 1
            size += 2
            node = b[a[node]]
        if size:
            sizes.append(size)
    return sizes


def _count(diag: TorusDiagram, partners: dict[str, list[int]]) -> BridgeParams:
    a, b, c = (partners[color] for color in "ABC")
    l2 = _pair_components(b, c)
    return BridgeParams(len(diag.bridge_points) // 2, len(_pair_components(a, b)), len(l2),
                        len(_pair_components(c, a)), l2.count(2))


def bridge_params(diag: TorusDiagram) -> BridgeParams:
    """Count (b; c1, c2, c3) and s by walking the colors' partner lists.

    The lists are read with the endpoint faults, and a diagram with any
    fault is refused with a ``DiagramError`` naming the first.  s is the
    number of mini unknots: components of L2 = B u C through exactly two
    bridge points; no document declares it.  The counts are the bridge
    parameters only when the diagram has no A crossings; ``certify``
    checks that first.
    """
    faults, partners = _read_ends(diag)
    if faults:
        raise DiagramError(faults[0])
    return _count(diag, partners)


# ---------------------------------------------------------------------------
# the certificate


class Certificate(NamedTuple):
    """What ``certify`` found: ``params`` (None when ``bridge_params`` refused
    the diagram: the endpoint stage failed), the report of ``check`` but its
    result line, the ``check --json`` payload and the first failing stage's
    ``fault`` ("" when all passed)."""

    params: BridgeParams | None
    lines: list[str]
    payload: dict
    fault: str

    @property
    def ok(self) -> bool:
        return not self.fault


def _misfit(diag: TorusDiagram, source: Factorization) -> str:
    """The first field in which ``diag`` differs from ``assemble(source)``,
    with both values, or "": strands, scale, the point and arc counts, then
    each bridge point and each arc.  The strand counts are compared before
    ``assemble`` validates the source; its refusal is the misfit."""
    if source.strands != diag.strands:
        return f"the source has {source.strands} strands, the diagram {diag.strands}"
    try:
        built = assemble(source)
    except DiagramError as exc:
        return str(exc)
    fields = [
        ("scale", diag.scale, built.scale),
        ("bridge point count", len(diag.bridge_points), len(built.bridge_points)),
        ("arc count", len(diag.arcs), len(built.arcs)),
    ]
    for kind, mine, theirs in (("bridge point", diag.bridge_points, built.bridge_points),
                               ("arc", diag.arcs, built.arcs)):
        if mine != theirs:  # items are named one by one only when the lists differ
            fields += ((f"{kind} {i}", *pair) for i, pair in enumerate(zip(mine, theirs)))
    return next((f"diagram {name} is {mine}, the source builds {theirs}"
                 for name, mine, theirs in fields if mine != theirs), "")


def certify(diag: TorusDiagram, source: Factorization | None = None) -> Certificate:
    """Endpoints, transversality, A crossings, parameters (counted as
    ``bridge_params`` counts them, from the partner lists read with the
    endpoints, and only when the endpoint stage passed) and, when the
    diagram is exactly the one its source builds (``assemble`` validates
    the source), the triviality of L1, L2 and L3: the tiles fix L1 and L2,
    and L3 is trivial because the bands multiply to the full twist.  Each
    stage appends its line, each item it found and, when it fails, its
    fault, in order."""
    scale, lines, faults = diag.scale, [], []

    def stage(line: str, found: tuple | list = (), count: str = "", fault: str = "") -> None:
        """A listing stage's fault is its ``count`` and first item found."""
        lines.extend([line, *(f"  {item}" for item in found)])
        faults.append(f"{count}, first: {found[0]}" if found else fault)

    ends, partners = _read_ends(diag)
    violations = [_violation_text(v, scale) for v in check_transverse(diag)]
    crossings = [_crossing_text(c, scale) for c in a_crossings(diag)]
    stage(f"endpoints: {'FAIL' if ends else 'ok'}", ends,
          f"diagram has {len(ends)} endpoint faults")
    stage(f"transversality: {'FAIL' if violations else 'ok'}", violations,
          f"diagram is not transverse ({len(violations)} violations)")
    stage(f"A crossings: {f'FAIL ({len(crossings)})' if crossings else 'none'}", crossings,
          f"diagram has {len(crossings)} A crossings")
    params = None if ends else _count(diag, partners)
    stage(f"parameters: (b; c1, c2, c3) = {params.text()}" if params
          else "bridge parameters: unavailable (endpoint faults)")
    payload = {"endpoints": not ends, "transverse": not violations,
               "a_crossings": len(crossings), "params": params._asdict() if params else None}
    if source is None or params is None:
        reason = "no source factorization" if source is None else "bridge parameters unavailable"
        stage(f"triviality: skipped ({reason})")
    elif misfit := _misfit(diag, source):
        stage(f"triviality: skipped (source does not fit: {misfit})", fault=misfit)
    else:
        payload["trivial"] = {"L1": True, "L2": True, "L3": True}
        for link in ("L1", "L2", "L3"):
            stage(f"triviality {link}: ok")
    return Certificate(params, lines, payload, next(filter(None, faults), ""))
