"""Tilings, the height-difference function and height functions.

A tiling is stored as the set of its central axes (the shared edge of each
domino's two cells).  Height functions are integer vertex potentials with
h(w0) = 0 whose difference on each arc (u, v) lies in {-t(v, u), t(u, v)};
they are in bijection with tilings.
"""

from __future__ import annotations

from collections import deque
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


def arc_axis_key(a):
    u, v = a
    return tuple(sorted(((u.x, u.y), (v.x, v.y))))


@dataclass(frozen=True)
class Tiling:
    """A tiling as the frozenset of its central axes."""

    axes: frozenset

    @property
    def dominoes(self):
        return tuple(sorted(tuple(sorted(axis_cells(a))) for a in self.axes))

    def canonical(self):
        return tuple(sorted(self.axes))


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
    share their axis tuples.
    """
    covered = set()
    axes = set()
    sides = graph.sides
    for c1, c2 in dominoes:
        c1, c2 = Cell(*c1), Cell(*c2)
        if c1 not in graph.figure or c2 not in graph.figure:
            raise DominoOutsideFigure(f"domino {(c1, c2)} leaves the figure")
        axis = domino_axis(c1, c2)
        axes.add(sides.setdefault(axis, axis))
        for c in (c1, c2):
            if c in covered:
                raise Overlap(f"cell {c} covered twice")
            covered.add(c)
    missing = graph.figure.cells - covered
    if missing:
        raise Gap(f"uncovered cells: {sorted(missing)[:4]}")
    return Tiling(axes=frozenset(axes))


def g_of_tiling(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> dict:
    """Height difference g_T: t on a spin +1 arc, t - 4 on a spin -1 arc
    off the boundary; along an axis of T, minus 4 times the spin."""
    axes = tiling.axes
    t, sp = weights.t, weights.sp
    boundary = graph.boundary_arcs
    g = {}
    for a, s in sp.items():
        d = t[a] - 4 * s if arc_axis_key(a) in axes else t[a]
        g[a] = d - 4 if s < 0 and a not in boundary else d
    return g


def height_of_tiling(graph: FigureGraph, weights: ArcWeights, tiling: Tiling):
    """Integrate g_T from w0; the sum is path-independent for valid input."""
    g = g_of_tiling(graph, weights, tiling)
    h = {graph.w0: 0}
    queue = deque([graph.w0])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if v not in h:
                h[v] = h[u] + g[(u, v)]
                queue.append(v)
    for (u, v), val in g.items():
        if h[v] - h[u] != val:
            raise InconsistentCycle(f"g_T has a nonzero cycle through {(u, v)}")
        if val != weights.t[(u, v)] and val != -weights.t[(v, u)]:
            raise InconsistentCycle(f"g_T({(u, v)}) outside {{b, t}}")
    return HeightFunction(graph, h)


def tiling_of_height(graph: FigureGraph, weights: ArcWeights, hf: HeightFunction) -> Tiling:
    """The unique tiling whose height function is hf: every difference is t
    or b = -t of the reversed arc, and the axes are the spin +1 arcs off t."""
    t, sp = weights.t, weights.sp
    axes = set()
    for a, ta in t.items():
        u, v = a
        d = hf.h[v] - hf.h[u]
        if d != ta:
            if d != -t[(v, u)]:
                raise NotAHeightFunction(f"difference {d} on arc {a} outside {{b, t}}")
            if sp[a] > 0:
                axes.add(arc_axis_key(a))
    dominoes = [axis_cells(axis) for axis in axes]
    return validate_tiling(graph, dominoes)
