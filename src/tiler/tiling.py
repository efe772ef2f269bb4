"""Tilings, the height-difference function and height functions.

A tiling is stored as the sorted tuple of its central axes (the shared
edge of each domino's two cells).  Height functions are integer vertex
potentials with h(w0) = 0 whose difference on each arc (u, v) lies in
{-t(v, u), t(u, v)}; they are in bijection with tilings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equilibrium import ArcWeights
from .errors import (
    DominoOutsideFigure,
    Gap,
    InconsistentCycle,
    NotADomino,
    NotAHeightFunction,
    Overlap,
)
from .grid import Cell, FigureGraph

# An axis is an undirected interior edge stored as a sorted pair of lattice
# points ((x, y), (x', y')).


def domino_axis(c1, c2):
    """Central axis (shared edge) of a domino given as two adjacent cells."""
    (x1, y1), (x2, y2) = sorted((tuple(c1), tuple(c2)))
    if (x2, y2) == (x1 + 1, y1):  # horizontal domino, vertical axis
        return ((x2, y1), (x2, y1 + 1))
    if (x2, y2) == (x1, y1 + 1):  # vertical domino, horizontal axis
        return ((x1, y2), (x1 + 1, y2))
    raise NotADomino(f"cells {c1} and {c2} are not adjacent")


def axis_cells(axis):
    """The two cells of the domino whose central axis is the given edge."""
    (x1, y1), (x2, y2) = axis
    if x2 == x1 + 1:  # horizontal axis, vertical domino
        return Cell(x1, y1 - 1), Cell(x1, y1)
    return Cell(x1 - 1, y1), Cell(x1, y1)  # vertical axis, horizontal domino


@dataclass(frozen=True, slots=True)
class Tiling:
    """A tiling as the sorted tuple of its central axes."""

    axes: tuple

    @property
    def dominoes(self):
        return tuple(sorted(tuple(sorted(axis_cells(a))) for a in self.axes))

    def canonical(self):
        return self.axes


@dataclass
class HeightFunction:
    """Integer vertex potential of a tiling, normalized to 0 at w0."""

    graph: FigureGraph
    h: dict

    def __getitem__(self, v) -> int:
        return self.h[v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeightFunction)
            and same_figure(self, other)
            and self.h == other.h
        )


def same_figure(h1: HeightFunction, h2: HeightFunction) -> bool:
    return h1.graph.figure.cells == h2.graph.figure.cells


def validate_tiling(graph: FigureGraph, dominoes) -> Tiling:
    """Check that the cell pairs exactly cover the figure.

    Each axis is interned in `graph.sides`, so the tilings of one figure
    share their axis tuples.  The axes are sorted once at the end, which is
    cheap when the dominoes come nearly in order, as the decode's do.
    """
    covered = set()
    axes = []
    sides, cells = graph.sides, graph.figure.cells
    for c1, c2 in dominoes:
        c1, c2 = Cell(*c1), Cell(*c2)
        if c1 not in cells or c2 not in cells:
            raise DominoOutsideFigure(f"domino {(c1, c2)} leaves the figure")
        axis = domino_axis(c1, c2)
        axes.append(sides.setdefault(axis, axis))
        for c in (c1, c2):
            if c in covered:
                raise Overlap(f"cell {c} covered twice")
            covered.add(c)
    missing = cells - covered
    if missing:
        raise Gap(f"uncovered cells: {sorted(missing)[:4]}")
    return Tiling(axes=tuple(sorted(axes)))


def g_of_tiling(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> list:
    """Height difference g_T per arc id: t on a spin +1 arc, t - 4 on a spin
    -1 arc off the boundary; along an axis of T, minus 4 times the spin."""
    axes = set(tiling.axes)
    return [
        (tk - 4 * s if side in axes else tk) - (4 if s < 0 and not b else 0)
        for tk, s, b, side in zip(weights.t, graph.spin, graph.boundary, graph.axis)
    ]


def height_of_tiling(graph: FigureGraph, weights: ArcWeights, tiling: Tiling):
    """Integrate g_T from w0; the sum is path-independent for valid input."""
    g = g_of_tiling(graph, weights, tiling)
    t, head, rev, off, vs = weights.t, graph.head, graph.rev, graph.offsets, graph.vertices
    h = [None] * len(vs)
    h[0] = 0  # w0
    order = [0]
    for u in order:  # breadth first; order grows while it is walked
        for k in range(off[u], off[u + 1]):
            v = head[k]
            if h[v] is None:
                h[v] = h[u] + g[k]
                order.append(v)
    for u, hu in enumerate(h):
        for k in range(off[u], off[u + 1]):
            val = g[k]
            if h[head[k]] - hu != val:
                a = (vs[u], vs[head[k]])
                raise InconsistentCycle(f"g_T has a nonzero cycle through {a}")
            if val != t[k] and val != -t[rev[k]]:
                raise InconsistentCycle(f"g_T({(vs[u], vs[head[k]])}) outside {{b, t}}")
    return HeightFunction(graph, dict(zip(vs, h)))


def tiling_of_height(graph: FigureGraph, weights: ArcWeights, hf: HeightFunction) -> Tiling:
    """The unique tiling whose height function is hf: every difference is t
    or b = -t of the reversed arc, and the axes are the spin +1 arcs off t."""
    vs = graph.vertices
    h = list(map(hf.h.__getitem__, vs))
    t, head, rev, off = weights.t, graph.head, graph.rev, graph.offsets
    axes = []
    for u, hu in enumerate(h):
        for k in range(off[u], off[u + 1]):
            d = h[head[k]] - hu
            if d != t[k]:
                if d != -t[rev[k]]:
                    a = (vs[u], vs[head[k]])
                    raise NotAHeightFunction(f"difference {d} on arc {a} outside {{b, t}}")
                if graph.spin[k] > 0:
                    axes.append(graph.axis[k])
    dominoes = [axis_cells(side) for side in axes]
    return validate_tiling(graph, dominoes)
