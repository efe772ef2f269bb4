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


def _strongly_connected_components(vertices, out):
    """Iterative Tarjan; components are returned as lists of vertices."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack.add(v)
            recurse = False
            succs = out.get(v, ())
            for i in range(pi, len(succs)):
                w = succs[i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return comps


@dataclass
class ComponentGraph:
    """Forced components, their kinds and the quotient graph."""

    graph: FigureGraph
    components: tuple  # frozensets of vertices
    comp_of: dict
    kinds: tuple
    representatives: tuple
    infinity: int
    quotient_edges: dict  # (i, j) with i < j -> representative arc from i to j
    neighbors: tuple  # per component i: (tail, head, t) per quotient edge at i, tail in i


def forced_components(graph: FigureGraph, weights: ArcWeights, tiling: Tiling) -> ComponentGraph:
    gt = tiling_graph(graph, weights, tiling)
    out = {}
    for u, v in gt:
        out.setdefault(u, []).append(v)
    comps = _strongly_connected_components(sorted(graph.vertices), out)
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
    quotient_edges = {}
    for u, v in graph.arcs:
        i, j = comp_of[u], comp_of[v]
        if i == j:
            continue
        assert (u, v) not in graph.boundary_arcs, "boundary arc between components"
        key = (min(i, j), max(i, j))
        if key not in quotient_edges:
            quotient_edges[key] = (u, v) if i < j else (v, u)
    neighbors = [[] for _ in comps]
    t = weights.t
    for (i, j), (u, v) in quotient_edges.items():
        neighbors[i].append((u, v, t[(u, v)]))
        neighbors[j].append((v, u, t[(v, u)]))
    return ComponentGraph(
        graph=graph,
        components=tuple(comps),
        comp_of=comp_of,
        kinds=tuple(kinds),
        representatives=tuple(min(c) for c in comps),
        infinity=infinity,
        quotient_edges=quotient_edges,
        neighbors=tuple(map(tuple, neighbors)),
    )


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
        weights.sp[(u, v)] == 1
        for u, v in zip(cycle, cycle[1:])
        if (u, v) not in graph.boundary_arcs
    )


@dataclass(frozen=True)
class Orientation:
    """Acyclic orientation of the quotient graph induced by a tiling."""

    arcs: frozenset  # ordered component index pairs


def edge_direction(cg: ComponentGraph, weights: ArcWeights, h: dict, key):
    """Orientation of quotient edge key = (i, j), i < j, under heights h."""
    arc = cg.quotient_edges[key]
    d = h[arc[1]] - h[arc[0]]
    if d == weights.t[arc]:
        return key
    assert d == weights.b[arc], "arc difference outside {b, t}"
    return (key[1], key[0])


def to_orientation(cg: ComponentGraph, weights: ArcWeights, hf: HeightFunction) -> Orientation:
    arcs = frozenset(
        edge_direction(cg, weights, hf.h, key) for key in cg.quotient_edges
    )
    # Quotients of tiling graphs are acyclic; verify by topological sort.
    out = [[] for _ in cg.components]
    indeg = [0] * len(cg.components)
    for i, j in arcs:
        out[i].append(j)
        indeg[j] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j in out[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    assert seen == len(cg.components), "orientation has a cycle"
    return Orientation(arcs=arcs)
