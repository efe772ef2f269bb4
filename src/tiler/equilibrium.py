"""Equilibrium functions built from cut lines and step values.

An equilibrium function is a skew-symmetric arc weight eq with eq(C) = 0
around every cell and eq(C) = -sp(C) around every clockwise hole contour.
It neutralizes holes so that height functions stay single-valued.  The
derived weight t is the upper admissible height difference per arc; the
lower one is -t of the reversed arc.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from .errors import TilerError
from .grid import Cell, E, FigureGraph, W


@dataclass(frozen=True)
class CutLine:
    """Vertical segment from the top of a hole up to the next non-figure
    cell; predecessor None means the infinite component."""

    hole_id: int
    predecessor: Optional[int]
    crossed_edges: tuple  # horizontal edges ((x,y),(x+1,y)), bottom to top


@dataclass
class EquilibriumFunction:
    """The per-hole step values, and eq by the arc ids of the figure graph
    it was built for: eq[graph.rev[k]] == -eq[k]."""

    steps: dict
    eq: list


@dataclass
class ArcWeights:
    """Per-arc upper height difference t and the eq = 0 spanning tree, by
    the arc ids of the figure graph they were made for.

    `t[k]` is t of arc k; the spin is the graph's, `graph.spin[k]`.  On
    boundary arcs t = eq + sp; elsewhere t = eq - sp + 2.  The lower
    difference of an arc is b(u, v) = -t(v, u): t itself on boundary arcs
    and t - 4 elsewhere, so b of arc k is -t[graph.rev[k]].  `tree` lists,
    in BFS order from w0, the arc from its parent into each other vertex,
    so its heads are the ids 1..V-1, each once.
    """

    t: list
    tree: array


def build_cut_lines(graph: FigureGraph):
    """One cut line per hole, issued upward from its leftmost highest cell."""
    cells = graph.figure.cells
    lines = []
    for hole in graph.holes:
        top = max(c.y for c in hole.cells)
        cx = min(c.x for c in hole.cells if c.y == top)
        k = 1
        while Cell(cx, top + k) in cells:
            k += 1
        crossed = tuple(((cx, y), (cx + 1, y)) for y in range(top + 1, top + k + 1))
        lines.append(
            CutLine(
                hole_id=hole.id,
                predecessor=graph.complement_component(Cell(cx, top + k)),
                crossed_edges=crossed,
            )
        )
    return lines


def cycle_sum(graph: FigureGraph, per_arc, cycle) -> int:
    """Sum of a list by arc id, such as `graph.spin` or eq, along a closed
    walk of GridVertex."""
    return sum(per_arc[graph.arc_id(u, v)] for u, v in zip(cycle, cycle[1:]))


def step_values(graph: FigureGraph, cutlines) -> dict:
    """Step value per hole: children's steps minus the contour spin, bottom-up
    over the predecessor tree."""
    children = {}
    for cl in cutlines:
        children.setdefault(cl.predecessor, []).append(cl.hole_id)
    steps = {}

    def compute(hid):
        if hid not in steps:
            steps[hid] = sum(compute(j) for j in children.get(hid, ())) - cycle_sum(
                graph, graph.spin, graph.holes[hid].clockwise_contour
            )
        return steps[hid]

    try:
        for hole in graph.holes:
            compute(hole.id)
    finally:
        del compute  # in its own closure: a cycle that keeps graph until collected
    return steps


def make_weights(graph: FigureGraph, eq: list):
    """Store t per arc (see ArcWeights) from eq by arc id, and the eq = 0
    spanning tree; raise TilerError if that tree does not span the graph.
    b and eq - sp are read off t and the spins where needed."""
    t = [e + s if b else e - s + 2 for e, s, b in zip(eq, graph.spin, graph.boundary)]

    off, head = graph.offsets, graph.head
    seen = bytearray(len(graph.vertices))
    seen[0] = 1
    order = [0]  # from w0, id 0
    tree = array("i")
    for u in order:  # order grows while it is walked
        for k in range(off[u], off[u + 1]):
            v = head[k]
            if not seen[v] and eq[k] == 0:
                seen[v] = 1
                order.append(v)
                tree.append(k)
    if len(order) != len(graph.vertices):
        raise TilerError("eq = 0 arcs do not span the figure graph")
    return ArcWeights(t, tree)


def build_equilibrium(graph: FigureGraph):
    """Construct the cut-line equilibrium function and its arc weights."""
    cutlines = build_cut_lines(graph)
    steps = step_values(graph, cutlines)
    eq = [0] * len(graph.head)
    crossed = set()  # arc ids: a step can be 0, so eq cannot tell
    for cl in cutlines:
        s = steps[cl.hole_id]
        for p, q in cl.crossed_edges:
            k = graph.arc_id(graph.vertex(p, E), graph.vertex(q, W))  # eastward
            assert k not in crossed, "cut lines overlap"
            crossed.add(k)
            eq[k] = s
            eq[graph.rev[k]] = -s
    return EquilibriumFunction(steps, eq), make_weights(graph, eq)


def verify_equilibrium(graph: FigureGraph, eqfn) -> bool:
    """Exhaustive check of the defining conditions: skew symmetry, and the
    sums around every cell and every hole contour."""
    eq, rev = eqfn.eq, graph.rev
    for k, val in enumerate(eq):
        if eq[rev[k]] != -val:
            return False
    for cell in graph.figure.cells:
        if cycle_sum(graph, eq, graph.cell_cycle(cell)) != 0:
            return False
    for hole in graph.holes:
        c = hole.clockwise_contour
        if cycle_sum(graph, eq, c) != -cycle_sum(graph, graph.spin, c):
            return False
    return True
