"""Critical cycles, the tiling graph G_T, forced components and the
acyclic-orientation view of a tiling.

The forced components are the strongly connected components of G_T; they do
not depend on the chosen tiling.  Each tiling orients the quotient graph
acyclically, and that orientation determines the tiling.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    vs = graph.vertices
    kept = zip(graph.tails(), graph.head, _in_tiling_graph(graph, weights, tiling))
    return frozenset((vs[u], vs[v]) for u, v, keep in kept if keep)


def _strongly_connected_components(out):
    """Kosaraju: the strong components of the digraph on 0..n-1 whose
    successor lists are `out`, as lists of vertices.  Both passes are
    iterative."""
    n = len(out)
    into = [[] for _ in range(n)]
    for u, succs in enumerate(out):
        for v in succs:
            into[v].append(u)
    # Pass 1: vertices in the order a depth-first search along out finishes them.
    finished = []
    seen = bytearray(n)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(out[root]))]
        while stack:
            v, succs = stack[-1]
            for w in succs:
                if not seen[w]:
                    seen[w] = 1
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    # Pass 2: latest finished first, each unclaimed vertex claims what
    # reaches it along into; that is exactly its component.
    comps = []
    claimed = bytearray(n)
    for root in reversed(finished):
        if claimed[root]:
            continue
        claimed[root] = 1
        comp = [root]
        for v in comp:  # comp grows while it is walked
            for u in into[v]:
                if not claimed[u]:
                    claimed[u] = 1
                    comp.append(u)
        comps.append(comp)
    return comps


@dataclass
class ComponentGraph:
    """Forced components, their kinds and the quotient graph."""

    components: tuple  # frozensets of vertices
    comp_of: dict
    kinds: tuple
    representatives: tuple
    infinity: int
    # The quotient graph: per component i, (tail, head, t) per quotient edge
    # at i, tail in i, on the first figure arc met between the two components.
    neighbors: tuple


def forced_components(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> ComponentGraph:
    """The strong components of G_T, numbered by their least vertex, with
    their kinds and quotient graph; computed on vertex ids and given back
    as GridVertex."""
    t, head, rev, off, vs = weights.t, graph.head, graph.rev, graph.offsets, graph.vertices
    n = len(vs)
    keep = _in_tiling_graph(graph, weights, tiling)
    out = [[head[k] for k in range(off[u], off[u + 1]) if keep[k]] for u in range(n)]
    comps = sorted(_strongly_connected_components(out), key=min)
    comp = [0] * n
    for i, c in enumerate(comps):
        for v in c:
            comp[v] = i
    hole_vertices = {graph.index[v] for h in graph.holes for v in h.clockwise_contour}
    infinity = comp[0]  # w0's
    kinds = []
    for i, c in enumerate(comps):
        if i == infinity:
            kinds.append(INFINITY)
        elif not hole_vertices.isdisjoint(c):
            kinds.append(HOLE)
        else:
            assert len(c) == 1, "unexpected multi-vertex non-hole component"
            kinds.append(SINGLE)
    # The first arc met, in arc id order, between each pair of components.
    m = len(comps)
    first = {}
    for u in range(n):
        i = comp[u]
        for k in range(off[u], off[u + 1]):
            j = comp[head[k]]
            if i != j:
                assert not graph.boundary[k], "boundary arc between components"
                pair = i * m + j if i < j else j * m + i
                if pair not in first:
                    first[pair] = k
    neighbors = [[] for _ in comps]
    for k in first.values():
        r = rev[k]
        i, j = comp[head[r]], comp[head[k]]
        if i > j:  # orient the pair from its lower component
            i, j, k, r = j, i, r, k
        tail, tip = vs[head[r]], vs[head[k]]
        neighbors[i].append((tail, tip, t[k]))
        neighbors[j].append((tip, tail, t[r]))
    return ComponentGraph(
        components=tuple(frozenset([vs[v] for v in c]) for c in comps),
        comp_of=dict(zip(vs, comp)),
        kinds=tuple(kinds),
        representatives=tuple(vs[min(c)] for c in comps),
        infinity=infinity,
        neighbors=tuple(map(tuple, neighbors)),
    )


def quotient_edges(cg: ComponentGraph) -> list:
    """The quotient graph's edges (i, j), i < j, in increasing order."""
    pairs = ((i, cg.comp_of[v]) for i, arcs in enumerate(cg.neighbors) for _, v, _ in arcs)
    return sorted((i, j) for i, j in pairs if i < j)


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


def edge_direction(cg: ComponentGraph, h: dict, arc):
    """Orientation (i, j) of the quotient edge of triple arc = (u, v, t)."""
    u, v, t = arc
    i, j = cg.comp_of[u], cg.comp_of[v]
    d = h[v] - h[u]
    if d == t:
        return (i, j)
    # Quotient arcs are never boundary arcs, so the lower difference is t - 4.
    assert d == t - 4, "arc difference outside {t - 4, t}"
    return (j, i)


def to_orientation(cg: ComponentGraph, weights: ArcWeights, hf: HeightFunction) -> Orientation:
    """The acyclic quotient orientation of hf; `weights` is not read."""
    # Both triples of an edge give its orientation, since b(u, v) = -t(v, u).
    arcs = frozenset(edge_direction(cg, hf.h, arc) for arcs in cg.neighbors for arc in arcs)
    # Quotients of tiling graphs are acyclic.  Every quotient arc joins two
    # components, so a cycle would be a strong component of two or more.
    out = [[] for _ in cg.components]
    for i, j in arcs:
        out[i].append(j)
    assert len(_strongly_connected_components(out)) == len(out), "orientation has a cycle"
    return Orientation(arcs=arcs)
