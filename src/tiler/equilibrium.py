"""Equilibrium functions built from cut lines and step values.

An equilibrium function is a skew-symmetric arc weight eq with eq(C) = 0
around every cell and eq(C) = -sp(C) around every clockwise hole contour.
It neutralizes holes so that height functions stay single-valued.  The
derived weight t is the upper admissible height difference per arc; the
lower one is -t of the reversed arc.  Only t is kept: eq is read off it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count
from typing import Optional

from .errors import TilerError
from .grid import FigureGraph


@dataclass(frozen=True)
class CutLine:
    """Vertical segment from the top of a hole up to the next non-figure
    cell; predecessor None means the infinite component."""

    hole_id: int
    predecessor: Optional[int]
    crossed: tuple  # eastward arc ids of the horizontal edges crossed, bottom to top


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
    """One cut line per hole, issued upward from its leftmost highest cell.

    A hole's top sides are its contour's eastward horizontal arcs (the
    figure on their left is above them); the line starts at the highest,
    the least x on ties, which is the top side of the hole's leftmost
    highest cell.  It climbs the column in CSR order: a tail's E arc is its
    last arc and its N arc the one before, so the next crossed arc is the E
    arc of the N arc's head.  It stops at the first boundary arc past the
    hole, whose reverse lies on the contour of the component above."""
    off, head, rev, axis, boundary = (
        graph.offsets, graph.head, graph.rev, graph.axis, graph.boundary
    )
    hole_of = {k: hole.id for hole in graph.holes for k in hole.contour}
    lines = []
    for hole in graph.holes:
        k = max(
            (k for k in hole.contour if axis[k][0][1] == axis[k][1][1] and head[k] > head[rev[k]]),
            key=lambda k: (axis[k][0][1], -axis[k][0][0]),
        )
        (cx, y0), _ = axis[k]
        crossed = [k]
        for y in count(y0 + 1):
            k = off[head[k - 1] + 1] - 1
            assert axis[k] == ((cx, y), (cx + 1, y)), "cut line left its column"
            crossed.append(k)
            if boundary[k]:
                break
        lines.append(
            CutLine(hole_id=hole.id, predecessor=hole_of.get(rev[k]), crossed=tuple(crossed))
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
            steps[hid] = sum(compute(j) for j in children.get(hid, ())) - sum(
                graph.spin[k] for k in graph.holes[hid].contour
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
    """The cut-line equilibrium function as (step value per hole, arc
    weights): each cut line puts its hole's step on the eastward arcs it
    crosses and minus the step on their reverses; eq is 0 elsewhere."""
    cutlines = build_cut_lines(graph)
    steps = step_values(graph, cutlines)
    eq = [0] * len(graph.head)
    crossed = set()  # arc ids: a step can be 0, so eq cannot tell
    for cl in cutlines:
        s = steps[cl.hole_id]
        for k in cl.crossed:
            assert k not in crossed, "cut lines overlap"
            crossed.add(k)
            eq[k] = s
            eq[graph.rev[k]] = -s
    return steps, make_weights(graph, eq)


def eq_values(graph: FigureGraph, weights: ArcWeights) -> list:
    """eq by arc id, read off t (see ArcWeights): t - sp on boundary arcs,
    t + sp - 2 elsewhere."""
    return [
        tk - s if b else tk + s - 2 for tk, s, b in zip(weights.t, graph.spin, graph.boundary)
    ]


def verify_equilibrium(graph: FigureGraph, weights: ArcWeights) -> bool:
    """Exhaustive check of the defining conditions on the eq that t
    carries: skew symmetry, and the sums around every cell and every hole
    contour.  A cell's clockwise sum is the sum over the arcs with the cell
    on their right, so each nonzero eq is added into the cell right of its
    arc; a cell beside no nonzero arc sums to 0."""
    eq, spin = eq_values(graph, weights), graph.spin
    if any(eq[r] != -val for val, r in zip(eq, graph.rev)):
        return False
    vs, head, rev = graph.vertices, graph.head, graph.rev
    sums = {}
    for k in compress(range(len(eq)), eq):
        (ux, uy, _), (vx, vy, _) = vs[head[rev[k]]], vs[head[k]]
        cell = ((ux + vx + vy - uy - 1) // 2, (uy + vy + ux - vx - 1) // 2)
        sums[cell] = sums.get(cell, 0) + eq[k]
    cells = graph.figure.cells
    if any(s and c in cells for c, s in sums.items()):
        return False
    return not any(sum(eq[k] + spin[k] for k in hole.contour) for hole in graph.holes)
