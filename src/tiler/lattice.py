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
    """Integrate g_F = t = eq + sp along the outer contour; every tiling
    agrees with these values."""
    t = weights.t
    contour = graph.outer_contour
    h = {contour[0]: 0}
    for u, v in zip(contour, contour[1:]):
        val = h[u] + t[(u, v)]
        if v in h:
            if h[v] != val:
                raise Untileable("outer boundary heights are contradictory")
        else:
            h[v] = val
    return h


def _tree_sums(graph: FigureGraph, weights: ArcWeights, table: dict) -> dict:
    out = {graph.w0: 0}
    for v in weights.tree_order[1:]:
        p = weights.tree_parent[v]
        out[v] = out[p] + table[(p, v)]
    return out


def _extremal_height(graph: FigureGraph, weights: ArcWeights, sign: int):
    """Minimal (sign = +1) or maximal (sign = -1) height function by direct
    label-correcting relaxation.

    The minimal height is the least fixed point of
    h[v] = max_u(h[u] - t(v, u)) above the tree sums of b, with the outer
    boundary frozen.  A FIFO worklist sets a violating vertex in one step to
    that maximum; every arc's t is congruent mod 4 to the height difference,
    so each jump is a multiple of 4 and the fixed point is the one that steps
    of 4 reach.  One routine serves both extremes because
    t(u, v) = -b(v, u): reversing every arc swaps the minimum and the
    maximum.  A frozen vertex that has to move, or a vertex passing its
    opposite bound (the tree sums of t), means no tiling.

    Returns (height function, passes); passes is the total displacement
    sum of |h_final - h_start| / 4, the number of 4-steps a worklist moving
    one vertex by 4 at a time makes in any order.  Raises Untileable.
    """
    n = len(graph.figure)
    near, far = (weights.b, weights.t) if sign > 0 else (weights.t, weights.b)
    h = _tree_sums(graph, weights, near)
    bound = _tree_sums(graph, weights, far)
    for v, val in _boundary_heights(graph, weights).items():
        h[v] = bound[v] = val

    adj = graph.adjacency
    best = max if sign > 0 else min

    def pull(v):
        # The value the neighbours of v force on it.
        return best(h[u] - far[(v, u)] for u in adj[v])

    queue = deque(v for v in sorted(graph.vertices) if sign * (pull(v) - h[v]) > 0)
    inq = set(queue)
    passes = relaxations = 0
    limit = n * n
    while queue:
        v = queue.popleft()
        inq.discard(v)
        hv = pull(v)
        if sign * (hv - h[v]) <= 0:
            continue
        passes += sign * (hv - h[v]) // 4
        h[v] = hv
        relaxations += 1
        if relaxations > limit:
            kind = "minimal" if sign > 0 else "maximal"
            raise AssertionError(f"{kind}-height relaxation counter exceeded n^2")
        if sign * (hv - bound[v]) > 0:
            raise Untileable(f"no tiling: height at {v} passes its bound")
        for u in adj[v]:
            if u not in inq and sign * (hv - h[u] - far[(u, v)]) > 0:
                queue.append(u)
                inq.add(u)
    return HeightFunction(graph, h), passes


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
