"""Forced components: the strongly connected components of the tiling
graph G_T, the arcs a with g_T(a) = t(a).

They do not depend on the chosen tiling.  Each tiling orients the quotient
graph acyclically, and its component heights determine the tiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equilibrium import ArcWeights
from .grid import FigureGraph
from .tiling import HeightFunction, Tiling, g_of_tiling

INFINITY = "infinity"
SINGLE = "single"
HOLE = "hole"


def _strong_components(graph: FigureGraph, weights: ArcWeights, keep):
    """Kosaraju on the arcs k of the figure graph with keep[k], iterative,
    on the CSR arrays: the strong components as lists of vertex ids, and per
    vertex id its height less that of its component's first vertex, the sum
    of t along kept arcs (along G_T's arcs the height rises by t)."""
    t, head, rev, off = weights.t, graph.head, graph.rev, graph.offsets
    n = len(graph.vertices)
    # Pass 1: vertices in the order a depth-first search along kept arcs
    # finishes them; next_arc[v] is the first arc of v not yet tried.
    finished = []
    seen = bytearray(n)
    next_arc = off[:-1]
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [root]
        while stack:
            v = stack[-1]
            for k in range(next_arc[v], off[v + 1]):
                w = head[k]
                if keep[k] and not seen[w]:
                    next_arc[v] = k + 1
                    seen[w] = 1
                    stack.append(w)
                    break
            else:
                stack.pop()
                finished.append(v)
    # Pass 2: latest finished first, each unclaimed vertex claims what
    # reaches it along kept arcs; that is exactly its component.
    comps = []
    height = [0] * n
    claimed = bytearray(n)
    for root in reversed(finished):
        if claimed[root]:
            continue
        claimed[root] = 1
        comp = [root]
        for v in comp:  # comp grows while it is walked
            hv = height[v]
            for k in range(off[v], off[v + 1]):
                u, r = head[k], rev[k]
                if not claimed[u] and keep[r]:  # arc r runs u -> v
                    claimed[u] = 1
                    height[u] = hv - t[r]
                    comp.append(u)
        comps.append(comp)
    return comps, height


@dataclass
class ComponentGraph:
    """Forced components on vertex ids, their kinds and the quotient graph.

    Components are numbered by their least vertex, the representative, so
    w0's, the infinite component, is 0.  A tiling is fixed by H, the list
    of the representatives' heights: vertex v has height H[comp_of[v]] +
    offset[v], the same offset for every tiling.  quotient[i] holds a pair
    (j, c) per quotient edge at i: the edge points out of i iff
    H[j] - H[i] == c, else H[j] - H[i] == c - 4.
    """

    components: tuple  # per component, its vertex ids in increasing order
    comp_of: list  # vertex id -> component
    offset: list  # vertex id -> its height minus its representative's
    kinds: tuple
    representatives: tuple  # vertex ids
    quotient: tuple


def forced_components(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> ComponentGraph:
    """The strong components of G_T, with their kinds and quotient graph."""
    t, head, off, boundary = weights.t, graph.head, graph.offsets, graph.boundary
    in_gt = [g == tk for g, tk in zip(g_of_tiling(graph, weights, tiling), t)]
    comps, offset = _strong_components(graph, weights, in_gt)
    for c in comps:
        c.sort()
    comps.sort()  # by least vertex: they are disjoint
    comp = [0] * len(offset)
    for i, c in enumerate(comps):
        base = offset[c[0]]
        for v in c:
            comp[v] = i
            offset[v] -= base
    hole_vertices = {head[k] for h in graph.holes for k in h.contour}
    kinds = [SINGLE if hole_vertices.isdisjoint(c) else HOLE for c in comps]
    kinds[0] = INFINITY  # w0's
    single = (c for c, k in zip(comps, kinds) if k == SINGLE)
    assert all(len(c) == 1 for c in single), "unexpected multi-vertex non-hole component"
    # Per component, the first arc met to each other component.  Every arc
    # between two components orients the same way in every tiling, or
    # they would share a cycle of G_T, so each gives the same c.
    quotient = []
    met = [-1] * len(comps)  # the last component that met each one
    for i, c in enumerate(comps):
        pairs = []
        for u in c:
            for k in range(off[u], off[u + 1]):
                j = comp[head[k]]
                if j != i and met[j] != i:
                    assert not boundary[k], "boundary arc between components"
                    met[j] = i
                    pairs.append((j, t[k] - offset[head[k]] + offset[u]))
        quotient.append(tuple(pairs))
    return ComponentGraph(
        components=tuple(map(tuple, comps)),
        comp_of=comp,
        offset=offset,
        kinds=tuple(kinds),
        representatives=tuple(c[0] for c in comps),
        quotient=tuple(quotient),
    )


def component_heights(cg: ComponentGraph, hf: HeightFunction) -> list:
    """H of a height function: its heights at the representatives."""
    h, vs = hf.h, hf.graph.vertices
    return [h[vs[r]] for r in cg.representatives]


def height_function(graph: FigureGraph, cg: ComponentGraph, heights) -> HeightFunction:
    """The height function whose representatives have the given heights."""
    h = {v: heights[i] + o for v, i, o in zip(graph.vertices, cg.comp_of, cg.offset)}
    return HeightFunction(graph, h)


def quotient_edges(cg: ComponentGraph) -> list:
    """The quotient graph's edges (i, j), i < j, in increasing order."""
    return sorted((i, j) for i, pairs in enumerate(cg.quotient) for j, _ in pairs if i < j)
