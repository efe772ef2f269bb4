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
    return sum(abs(h1.h[v] - h2.h[v]) for v in components.representatives)


def _boundary_heights(graph: FigureGraph, weights: ArcWeights) -> dict:
    """Integrate g_F = t along the outer contour; every tiling agrees with
    these values."""
    t = weights.t
    contour = graph.outer_contour
    h = {contour[0]: 0}
    for u, v in zip(contour, contour[1:]):
        val = h[u] + t[(u, v)]
        if h.setdefault(v, val) != val:
            msg = f"outer boundary heights are contradictory: {v} at height {val}, not {h[v]}"
            raise Untileable(msg)
    return h


def _extremal_height(graph: FigureGraph, weights: ArcWeights, sign: int):
    """Minimal (sign = +1) or maximal (sign = -1) height function by direct
    label-correcting relaxation over the signed heights g = sign * h.

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
    t = weights.t
    lo = sign > 0
    g, bound = {graph.w0: 0}, {graph.w0: 0}
    for v in weights.tree_order[1:]:
        p = weights.tree_parent[v]
        up, down = t[(p, v)], t[(v, p)]
        g[v] = g[p] - (down if lo else up)
        bound[v] = bound[p] + (up if lo else down)
    for v, val in _boundary_heights(graph, weights).items():
        g[v] = bound[v] = sign * val

    adj = graph.adjacency

    def pull(v):
        # The value the neighbours of v force on it.
        if lo:
            return max(g[u] - t[(v, u)] for u in adj[v])
        return max(g[u] - t[(u, v)] for u in adj[v])

    queue = deque(v for v in sorted(graph.vertices) if pull(v) > g[v])
    inq = set(queue)
    passes = relaxations = 0
    limit = len(graph.figure) ** 2
    while queue:
        v = queue.popleft()
        inq.discard(v)
        gv = pull(v)
        if gv <= g[v]:
            continue
        passes += (gv - g[v]) // 4
        g[v] = gv
        relaxations += 1
        if relaxations > limit:
            kind = "minimal" if lo else "maximal"
            raise AssertionError(f"{kind}-height relaxation counter exceeded n^2")
        if gv > bound[v]:
            raise Untileable(f"no tiling: height at {v} passes its bound")
        for u in adj[v]:
            if u not in inq and gv - g[u] > (t[(u, v)] if lo else t[(v, u)]):
                queue.append(u)
                inq.add(u)
    return HeightFunction(graph, g if lo else {v: -x for v, x in g.items()}), passes


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
