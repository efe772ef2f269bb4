"""Critical cycles, the tiling graph G_T, forced components and the
acyclic-orientation view of a tiling.

The forced components are the strongly connected components of G_T; they do
not depend on the chosen tiling.  Each tiling orients the quotient graph
acyclically, and that orientation determines the tiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .equilibrium import ArcWeights
from .errors import ArcNotInFigure, NotACycle
from .grid import FigureGraph
from .tiling import HeightFunction, Tiling, g_of_tiling

INFINITY = "infinity"
SINGLE = "single"
HOLE = "hole"


def _in_tiling_graph(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> list:
    """Per arc id, whether the arc is in G_T, i.e. g_T = t."""
    return [g == t for g, t in zip(g_of_tiling(graph, weights, tiling), weights.t)]


def tiling_graph(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> frozenset:
    """Arcs a with g_T(a) = t(a), as GridVertex pairs; includes every
    boundary arc."""
    vs, head = graph.vertices, graph.head
    kept = zip(graph.rev, head, _in_tiling_graph(graph, weights, tiling))
    return frozenset((vs[head[r]], vs[v]) for r, v, keep in kept if keep)


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
    w0's is 0.  A tiling is fixed by H, the list of the representatives'
    heights: vertex v has height H[comp_of[v]] + offset[v], the same offset
    for every tiling.  quotient[i] holds a pair (j, c) per quotient edge at
    i: the edge points out of i iff H[j] - H[i] == c, else H[j] - H[i] == c - 4.
    """

    components: tuple  # per component, its vertex ids in increasing order
    comp_of: list  # vertex id -> component
    offset: list  # vertex id -> its height minus its representative's
    kinds: tuple
    representatives: tuple  # vertex ids
    infinity: int
    quotient: tuple


def forced_components(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> ComponentGraph:
    """The strong components of G_T, with their kinds and quotient graph."""
    t, head, off, boundary = weights.t, graph.head, graph.offsets, graph.boundary
    comps, offset = _strong_components(graph, weights, _in_tiling_graph(graph, weights, tiling))
    for c in comps:
        c.sort()
    comps.sort()  # by least vertex: they are disjoint
    comp = [0] * len(offset)
    for i, c in enumerate(comps):
        base = offset[c[0]]
        for v in c:
            comp[v] = i
            offset[v] -= base
    hole_vertices = {graph.index[v] for h in graph.holes for v in h.clockwise_contour}
    infinity = comp[0]  # w0's
    kinds = [SINGLE if hole_vertices.isdisjoint(c) else HOLE for c in comps]
    kinds[infinity] = INFINITY
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
        infinity=infinity,
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


def _cycle_arcs(graph: FigureGraph, cycle) -> list:
    """Arc ids along an elementary closed walk of the figure graph."""
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise NotACycle("cycle must be closed")
    interior = cycle[:-1]
    if len(set(interior)) != len(interior):
        raise NotACycle("cycle repeats a vertex")
    arcs = []
    for u, v in zip(cycle, cycle[1:]):
        try:
            arcs.append(graph.arc_id(u, v))
        except ArcNotInFigure:
            raise NotACycle(f"{(u, v)} is not an arc of the figure graph") from None
    return arcs


def is_critical(graph: FigureGraph, weights: ArcWeights, cycle) -> bool:
    """Elementary cycle with t(C) = 0."""
    return sum(weights.t[k] for k in _cycle_arcs(graph, cycle)) == 0


def is_strongly_critical(graph: FigureGraph, weights: ArcWeights, cycle) -> bool:
    """Critical, with spin +1 on every non-boundary arc."""
    arcs = _cycle_arcs(graph, cycle)
    if sum(weights.t[k] for k in arcs) != 0:
        return False
    return all(graph.spin[k] == 1 for k in arcs if not graph.boundary[k])


@dataclass(frozen=True)
class Orientation:
    """Acyclic orientation of the quotient graph induced by a tiling."""

    arcs: frozenset  # ordered component index pairs


def edge_direction(heights, i: int, j: int, c: int):
    """Orientation (i, j) or (j, i) of the edge that i lists as (j, c)."""
    d = heights[j] - heights[i]
    if d == c:
        return (i, j)
    # Quotient arcs are never boundary arcs, so the lower difference is c - 4.
    assert d == c - 4, "arc difference outside {c - 4, c}"
    return (j, i)


def to_orientation(cg: ComponentGraph, weights: ArcWeights, hf: HeightFunction) -> Orientation:
    """The acyclic quotient orientation of hf; `weights` is not read."""
    heights = component_heights(cg, hf)
    # Both ends of an edge list it, and give the same orientation.
    arcs = frozenset(
        edge_direction(heights, i, j, c) for i, pairs in enumerate(cg.quotient) for j, c in pairs
    )
    # Quotients of tiling graphs are acyclic.
    sorter = TopologicalSorter()
    for i, j in arcs:
        sorter.add(j, i)
    try:
        sorter.prepare()
    except CycleError:
        raise AssertionError("orientation has a cycle") from None
    return Orientation(arcs=arcs)
