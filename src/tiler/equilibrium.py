"""Equilibrium functions built from cut lines and step values.

An equilibrium function is a skew-symmetric arc weight eq with eq(C) = 0
around every cell and eq(C) = -sp(C) around every clockwise hole contour.
It neutralizes holes so that height functions stay single-valued.  The
derived weight t is the upper admissible height difference per arc; the
lower one is -t of the reversed arc.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

from .errors import TilerError
from .grid import Cell, E, FigureGraph, W, cycle_spin


@dataclass(frozen=True)
class CutLine:
    """Vertical segment from the top of a hole up to the next non-figure
    cell; predecessor None means the infinite component."""

    hole_id: int
    predecessor: Optional[int]
    crossed_edges: tuple  # horizontal edges ((x,y),(x+1,y)), bottom to top


@dataclass
class EquilibriumFunction:
    """Sparse skew-symmetric arc weights plus the per-hole step values."""

    steps: dict
    values: dict = field(default_factory=dict)

    def __call__(self, a) -> int:
        return self.values.get(a, 0)


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


def step_values(graph: FigureGraph, cutlines) -> dict:
    """Step value per hole: children's steps minus the contour spin, bottom-up
    over the predecessor tree."""
    children = {}
    for cl in cutlines:
        children.setdefault(cl.predecessor, []).append(cl.hole_id)
    steps = {}

    def compute(hid):
        if hid not in steps:
            steps[hid] = sum(compute(j) for j in children.get(hid, ())) - cycle_spin(
                graph.holes[hid].clockwise_contour
            )
        return steps[hid]

    try:
        for hole in graph.holes:
            compute(hole.id)
    finally:
        del compute  # in its own closure: a cycle that keeps graph until collected
    return steps


def make_weights(graph: FigureGraph, eqfn: EquilibriumFunction):
    """Store t per arc (see ArcWeights) and the eq = 0 spanning tree; raise
    TilerError if that tree does not span the graph.  b and eq - sp are read
    off t and the spins where needed."""
    eq = [0] * len(graph.head)
    for (u, v), val in eqfn.values.items():
        eq[graph.arc_id(u, v)] = val
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
    values = {}
    for cl in cutlines:
        s = steps[cl.hole_id]
        for p, q in cl.crossed_edges:
            east = (graph.vertex(p, E), graph.vertex(q, W))
            west = (east[1], east[0])
            assert east not in values, "cut lines overlap"
            values[east] = s
            values[west] = -s
    eqfn = EquilibriumFunction(steps=steps, values=values)
    return eqfn, make_weights(graph, eqfn)


def cycle_eq(eqfn, cycle) -> int:
    return sum(eqfn((u, v)) for u, v in zip(cycle, cycle[1:]))


def verify_equilibrium(graph: FigureGraph, eqfn) -> bool:
    """Exhaustive check of the two defining conditions."""
    for a, val in eqfn.values.items():
        if eqfn((a[1], a[0])) != -val:
            return False
    for cell in graph.figure.cells:
        if cycle_eq(eqfn, graph.cell_cycle(cell)) != 0:
            return False
    for hole in graph.holes:
        c = hole.clockwise_contour
        if cycle_eq(eqfn, c) != -cycle_spin(c):
            return False
    return True
