"""Fixtures shared by several test modules: a seeded generator of valid
factorizations, two non-smooth factorizations of the d = 3 full twist, the
standard bands with short conjugators, a positive word for the half twist,
and the order-3 rotation and a random renumbering of a torus diagram.  The
library never calls them; the tests use them as inputs and as independent
oracles."""

import random

from braidshadow.diagram import Arc, BridgePoint, TorusDiagram
from braidshadow.factorization import (
    BandFactor,
    Factorization,
    hurwitz_move,
    standard_factorization,
)
from braidshadow.words import BraidError, BraidWord


def random_factorization(
    d: int,
    rng: random.Random,
    moves: int = 20,
    max_conjugator_length: int | None = None,
) -> Factorization:
    """Random valid smooth factorization: a bounded Hurwitz walk from standard.

    Moves that would push a free-reduced conjugator beyond the length cap
    are rejected, so every output is a valid factorization of Delta_d^2
    with short conjugators.
    """
    f = standard_factorization(d)
    n = len(f.factors)
    done = 0
    attempts = 0
    while done < moves and attempts < 50 * moves:
        attempts += 1
        i = rng.randint(1, n - 1)
        direction = rng.choice(("right", "left"))
        nxt = hurwitz_move(f, i, direction)
        if max_conjugator_length is not None and any(
            len(factor.conjugator) > max_conjugator_length for factor in nxt.factors
        ):
            continue
        f = nxt
        done += 1
    return f


def band(d: int, conjugator: tuple[int, ...], exponent: int = 1, sign: int = 1) -> BandFactor:
    return BandFactor(BraidWord(d, conjugator), exponent, sign)


# Delta_3^2 = s1 s2 s1 . s1 s2 s1 with the middle s1 s1 as one band, then
# with that band split into s1^3 . s1^-1: non-smooth starts for orbits
CUSP_3 = Factorization(3, (band(3, ()), band(3, (1, 2)), band(3, (), 2),
                           band(3, (1, 2)), band(3, ())))
FLIPPED_3 = Factorization(3, CUSP_3.factors[:2] + (band(3, (), 3), band(3, (), 1, -1))
                          + CUSP_3.factors[3:])


def short_standard_factorization(d: int) -> Factorization:
    """The bands of ``standard_factorization(d)`` with short conjugators.

    Band j of each of the d rounds is g_j s1 g_j^{-1} = s_j, j = 1..d-1, with
    g_j = (s_{j-1} s_j)(s_{j-2} s_{j-1}) ... (s1 s2) of 2(j-1) letters in place
    of (s1 ... s_{d-1})^{j-1}.
    """
    bands = tuple(
        BandFactor(BraidWord(d, tuple(x for k in range(j - 1, 0, -1) for x in (k, k + 1))))
        for j in range(1, d)
    )
    return Factorization(d, bands * d)


def half_twist_word(d: int) -> BraidWord:
    """A positive word for the half twist Delta_d: (s1)(s2 s1)...(s_{d-1}..s1)."""
    if d < 1:
        raise BraidError(f"half twist needs d >= 1, got {d}")
    letters: list[int] = []
    for i in range(1, d):
        letters.extend(range(i, 0, -1))
    return BraidWord(d, tuple(letters))


_RECOLOUR = {"A": "B", "B": "C", "C": "A"}


def rotate(diag: TorusDiagram) -> TorusDiagram:
    """The order-3 map M(u, v) = (-v, u - v) of the torus, with each arc
    recoloured A -> B -> C -> A.

    M cycles the three foliations (A up, B left, C down-right), so a
    transverse diagram stays transverse, and (b; c1, c2, c3) becomes
    (b; c3, c1, c2).  On the lattice (X, Y) goes to (-Y, X Ny - Y Nx) at
    scale (Ny, Nx Ny); bridge points are reduced mod the scale and each
    path is moved by whole periods to start in [0, Ny) x [0, Nx Ny).
    """
    nx, ny = diag.scale
    mx, my = ny, nx * ny

    def image(x: int, y: int) -> tuple[int, int]:
        return -y, x * ny - y * nx

    points = tuple(BridgePoint(-p.y % mx, (p.x * ny - p.y * nx) % my, p.sign)
                   for p in diag.bridge_points)
    arcs = []
    for arc in diag.arcs:
        path = [image(*v) for v in arc.path]
        dx, dy = path[0][0] // mx * mx, path[0][1] // my * my
        arcs.append(Arc(_RECOLOUR[arc.color], arc.start, arc.end,
                        tuple((x - dx, y - dy) for x, y in path)))
    return TorusDiagram(diag.strands, (mx, my), points, tuple(arcs))


def renumber(diag: TorusDiagram, rng: random.Random) -> TorusDiagram:
    """The same diagram with its bridge points and its arcs listed in a
    random order drawn from ``rng``, every arc end remapped to its point's
    new position: an isotopy of the document that changes no geometry."""
    n = len(diag.bridge_points)
    order = rng.sample(range(n), n)  # position j holds the point at order[j]
    position = {i: j for j, i in enumerate(order)}
    arcs = [Arc(arc.color, position[arc.start], position[arc.end], arc.path)
            for arc in diag.arcs]
    rng.shuffle(arcs)
    points = tuple(diag.bridge_points[i] for i in order)
    return TorusDiagram(diag.strands, diag.scale, points, tuple(arcs))
