"""The distributive lattice of height functions: inf/sup, comparison,
distance, and the minimal and maximal tilings.

The extremal heights come from one shortest-path relaxation (Thurston 1990):
each violating vertex jumps straight to the value its neighbours force, so
the work is the number of relaxations, not the total height displacement.
The reported pass count is still that displacement in 4-steps."""

from __future__ import annotations

import enum
from collections import deque

from .equilibrium import ArcWeights
from .errors import DifferentFigures, Untileable
from .grid import FigureGraph
from .tiling import HeightFunction, Tiling, same_figure, tiling_of_height


class OrderRelation(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def inf(h1: HeightFunction, h2: HeightFunction) -> HeightFunction:
    if not same_figure(h1, h2):
        raise DifferentFigures("inf of heights on different figures")
    return HeightFunction(h1.graph, {v: min(x, h2.h[v]) for v, x in h1.h.items()})


def sup(h1: HeightFunction, h2: HeightFunction) -> HeightFunction:
    if not same_figure(h1, h2):
        raise DifferentFigures("sup of heights on different figures")
    return HeightFunction(h1.graph, {v: max(x, h2.h[v]) for v, x in h1.h.items()})


def compare(h1: HeightFunction, h2: HeightFunction) -> OrderRelation:
    if not same_figure(h1, h2):
        raise DifferentFigures("comparing heights on different figures")
    le = all(x <= h2.h[v] for v, x in h1.h.items())
    ge = all(x >= h2.h[v] for v, x in h1.h.items())
    if le and ge:
        return OrderRelation.EQUAL
    if le:
        return OrderRelation.LESS
    if ge:
        return OrderRelation.GREATER
    return OrderRelation.INCOMPARABLE


def delta(h1: HeightFunction, h2: HeightFunction, components) -> int:
    """Distance: sum over forced components of |h1 - h2| at the
    representative vertex."""
    if not same_figure(h1, h2):
        raise DifferentFigures("delta of heights on different figures")
    vs = h1.graph.vertices
    return sum(abs(h1.h[vs[r]] - h2.h[vs[r]]) for r in components.representatives)


def _boundary_heights(graph: FigureGraph, weights: ArcWeights) -> dict:
    """Integrate g_F = t along the outer contour, as vertex id -> height;
    every tiling agrees with these values."""
    t, index = weights.t, graph.index
    contour = graph.outer_contour
    h = {0: 0}  # contour[0] is w0, id 0
    for u, v in zip(contour, contour[1:]):
        val = h[index[u]] + t[graph.arc_id(u, v)]
        i = index[v]
        if h.setdefault(i, val) != val:
            msg = f"outer boundary heights are contradictory: {v} at height {val}, not {h[i]}"
            raise Untileable(msg)
    return h


def _extremal_height(graph: FigureGraph, weights: ArcWeights, sign: int):
    """Minimal (sign = +1) or maximal (sign = -1) height function by direct
    label-correcting relaxation over the signed heights g = sign * h, a list
    indexed by vertex id.

    The minimal height is the least fixed point of
    g[v] = max_u(g[u] - t(v, u)) above the tree sums of the lower
    differences -t(v, u), with the outer boundary frozen.  The maximum is
    the same least fixed point with every arc reversed, so its loops read
    t(u, v) where the minimum's read t(v, u).  A FIFO worklist sets a
    violating vertex in one step to that maximum; every arc's t is
    congruent mod 4 to the height difference, so each jump is a multiple of
    4 and the fixed point is the one that steps of 4 reach.  A frozen vertex
    that has to move, or a vertex passing its opposite bound (the tree sums
    of the upper differences), means no tiling.

    Returns (height function, passes); passes is the total displacement
    sum of |h_final - h_start| / 4, the number of 4-steps a worklist moving
    one vertex by 4 at a time makes in any order.  Raises Untileable.
    """
    t, head, rev, off = weights.t, graph.head, graph.rev, graph.offsets
    lo = sign > 0
    n = len(graph.vertices)
    # Per arc k = (v, u): `pull` is what v reads to be raised by u, `push`
    # what u reads to be raised by v.  For the minimum they are t of arc k
    # and t of its reverse; the maximum swaps them.
    t_back = [t[r] for r in rev]
    pull, push = (t, t_back) if lo else (t_back, t)
    g, bound = [0] * n, [0] * n
    for k in weights.tree:  # parents first
        v, p = head[k], head[rev[k]]
        g[v] = g[p] - push[k]
        bound[v] = bound[p] + pull[k]
    for v, val in _boundary_heights(graph, weights).items():
        g[v] = bound[v] = sign * val

    queue = deque(
        v for v in range(n)  # id order is vertex order
        if max([g[head[k]] - pull[k] for k in range(off[v], off[v + 1])]) > g[v]
    )
    inq = bytearray(n)
    for v in queue:
        inq[v] = 1
    passes = relaxations = 0
    limit = len(graph.figure) ** 2
    while queue:
        v = queue.popleft()
        inq[v] = 0
        gv = start = g[v]
        arcs = range(off[v], off[v + 1])
        for k in arcs:
            x = g[head[k]] - pull[k]
            if x > gv:
                gv = x
        if gv == start:
            continue
        passes += (gv - start) // 4
        g[v] = gv
        relaxations += 1
        if relaxations > limit:
            kind = "minimal" if lo else "maximal"
            raise AssertionError(f"{kind}-height relaxation counter exceeded n^2")
        if gv > bound[v]:
            raise Untileable(f"no tiling: height at {graph.vertices[v]} passes its bound")
        for k in arcs:
            u = head[k]
            if not inq[u] and gv - g[u] > push[k]:
                queue.append(u)
                inq[u] = 1
    if not lo:
        g = [-x for x in g]
    return HeightFunction(graph, dict(zip(graph.vertices, g))), passes


def minimal_height(graph: FigureGraph, weights: ArcWeights):
    """Minimal height function and its pass count, the displacement from
    the start values in 4-steps; raises Untileable.  Enumeration starts
    here and reaches every other tiling by flips."""
    return _extremal_height(graph, weights, 1)


def maximal_height(graph: FigureGraph, weights: ArcWeights):
    """Maximal height function and its pass count, the displacement from
    the start values in 4-steps; raises Untileable."""
    return _extremal_height(graph, weights, -1)


def min_tiling(graph: FigureGraph, weights: ArcWeights) -> Tiling:
    h, _ = minimal_height(graph, weights)
    return tiling_of_height(graph, weights, h)


def max_tiling(graph: FigureGraph, weights: ArcWeights) -> Tiling:
    h, _ = maximal_height(graph, weights)
    return tiling_of_height(graph, weights, h)
