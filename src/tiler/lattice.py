"""The distributive lattice of height functions: inf/sup, comparison,
distance, and the worklist algorithms for minimal and maximal tilings."""

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


def _extremal_height(graph: FigureGraph, weights: ArcWeights, sign: int, pinned=None):
    """Worklist construction of the minimal (sign = +1) or maximal
    (sign = -1) height function.

    Vertices start at their lower bound (upper for the maximum) and
    violating vertices are raised (lowered) by 4 until no arc difference
    exceeds t (falls below b); passing the opposite bound means no tiling.
    One routine serves both because t(u, v) = -b(v, u): reversing every arc
    swaps the minimum and the maximum.  `pinned` maps vertices to frozen
    height values (used by the lexicographic successor computation).
    Returns (height function, number of updates); raises Untileable.
    """
    n = len(graph.figure)
    near, far = (weights.b, weights.t) if sign > 0 else (weights.t, weights.b)
    fixed = _boundary_heights(graph, weights)
    if pinned:
        fixed.update(pinned)
    h = _tree_sums(graph, weights, near)
    bound = _tree_sums(graph, weights, far)
    for v, val in fixed.items():
        h[v] = bound[v] = val

    adj = graph.adjacency

    def violating(v):
        hv = h[v]
        return any(sign * (h[u] - hv - far[(v, u)]) > 0 for u in adj[v])

    queue = deque(v for v in sorted(graph.vertices) if violating(v))
    inq = set(queue)
    passes = 0
    limit = n * n
    step = 4 * sign
    while queue:
        v = queue.popleft()
        inq.discard(v)
        if not violating(v):
            continue
        h[v] += step
        passes += 1
        if passes > limit:
            kind = "minimal" if sign > 0 else "maximal"
            raise AssertionError(f"{kind}-height pass counter exceeded n^2")
        if sign * (h[v] - bound[v]) > 0:
            raise Untileable(f"no tiling: height at {v} passes its bound")
        if violating(v) and v not in inq:
            queue.append(v)
            inq.add(v)
        hv = h[v]
        for u in adj[v]:
            if u not in inq and sign * (hv - h[u] - far[(u, v)]) > 0:
                queue.append(u)
                inq.add(u)
    return HeightFunction(graph, h), passes


def minimal_height(graph: FigureGraph, weights: ArcWeights, pinned=None):
    """Minimal height function (with `pinned` vertices frozen) and the
    number of worklist updates; raises Untileable."""
    return _extremal_height(graph, weights, 1, pinned)


def maximal_height(graph: FigureGraph, weights: ArcWeights):
    """Maximal height function and the number of worklist updates; raises
    Untileable."""
    return _extremal_height(graph, weights, -1)


def min_tiling(graph: FigureGraph, weights: ArcWeights) -> Tiling:
    h, _ = minimal_height(graph, weights)
    return tiling_of_height(graph, weights, h)


def max_tiling(graph: FigureGraph, weights: ArcWeights) -> Tiling:
    h, _ = maximal_height(graph, weights)
    return tiling_of_height(graph, weights, h)
