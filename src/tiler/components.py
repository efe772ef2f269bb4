"""Critical cycles, the tiling graph G_T, forced components and the
acyclic-orientation view of a tiling.

The forced components are the strongly connected components of G_T; they do
not depend on the chosen tiling.  Each tiling orients the quotient graph
acyclically, and that orientation determines the tiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equilibrium import ArcWeights
from .errors import NotACycle
from .grid import FigureGraph
from .tiling import HeightFunction, Tiling, g_of_tiling

INFINITY = "infinity"
SINGLE = "single"
HOLE = "hole"


def tiling_graph(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> frozenset:
    """Arcs a with g_T(a) = t(a); includes every boundary arc."""
    g = g_of_tiling(graph, weights, tiling)
    return frozenset(a for a in graph.arcs if g[a] == weights.t[a])


def _strongly_connected_components(vertices, arcs):
    """Kosaraju: the strong components of the digraph (vertices, arcs), as
    lists of vertices.  Both passes are iterative."""
    out = {v: [] for v in vertices}
    into = {v: [] for v in vertices}
    for u, v in arcs:
        out[u].append(v)
        into[v].append(u)
    # Pass 1: vertices in the order a depth-first search along out finishes them.
    finished = []
    seen = set()
    for root in out:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(out[root]))]
        while stack:
            v, succs = stack[-1]
            for w in succs:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    # Pass 2: latest finished first, each unclaimed vertex claims what
    # reaches it along into; that is exactly its component.
    comps = []
    claimed = set()
    for root in reversed(finished):
        if root in claimed:
            continue
        claimed.add(root)
        comp = [root]
        for v in comp:  # comp grows while it is walked
            for u in into[v]:
                if u not in claimed:
                    claimed.add(u)
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
    comps = _strongly_connected_components(graph.vertices, tiling_graph(graph, weights, tiling))
    comps = sorted((frozenset(c) for c in comps), key=min)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    hole_vertices = {v for h in graph.holes for v in h.clockwise_contour}
    infinity = comp_of[graph.w0]
    kinds = []
    for i, c in enumerate(comps):
        if i == infinity:
            kinds.append(INFINITY)
        elif c & hole_vertices:
            kinds.append(HOLE)
        else:
            assert len(c) == 1, "unexpected multi-vertex non-hole component"
            kinds.append(SINGLE)
    neighbors = [[] for _ in comps]
    seen = set()
    t = weights.t
    for u, v in graph.arcs:
        i, j = comp_of[u], comp_of[v]
        if i == j:
            continue
        assert (u, v) not in graph.boundary_arcs, "boundary arc between components"
        if i > j:
            i, j, u, v = j, i, v, u
        if (i, j) not in seen:
            seen.add((i, j))
            neighbors[i].append((u, v, t[(u, v)]))
            neighbors[j].append((v, u, t[(v, u)]))
    return ComponentGraph(
        components=tuple(comps),
        comp_of=comp_of,
        kinds=tuple(kinds),
        representatives=tuple(min(c) for c in comps),
        infinity=infinity,
        neighbors=tuple(map(tuple, neighbors)),
    )


def quotient_edges(cg: ComponentGraph) -> list:
    """The quotient graph's edges (i, j), i < j, in increasing order."""
    pairs = ((i, cg.comp_of[v]) for i, arcs in enumerate(cg.neighbors) for _, v, _ in arcs)
    return sorted((i, j) for i, j in pairs if i < j)


def _check_cycle(graph: FigureGraph, cycle):
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise NotACycle("cycle must be closed")
    interior = cycle[:-1]
    if len(set(interior)) != len(interior):
        raise NotACycle("cycle repeats a vertex")
    for u, v in zip(cycle, cycle[1:]):
        if (u, v) not in graph.arcs:
            raise NotACycle(f"{(u, v)} is not an arc of the figure graph")


def is_critical(graph: FigureGraph, weights: ArcWeights, cycle) -> bool:
    """Elementary cycle with t(C) = 0."""
    _check_cycle(graph, cycle)
    return sum(weights.t[(u, v)] for u, v in zip(cycle, cycle[1:])) == 0


def is_strongly_critical(graph: FigureGraph, weights: ArcWeights, cycle) -> bool:
    """Critical, with spin +1 on every non-boundary arc."""
    if not is_critical(graph, weights, cycle):
        return False
    return all(
        graph.arcs[(u, v)] == 1
        for u, v in zip(cycle, cycle[1:])
        if (u, v) not in graph.boundary_arcs
    )


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
    n = len(cg.components)
    assert len(_strongly_connected_components(range(n), arcs)) == n, "orientation has a cycle"
    return Orientation(arcs=arcs)
