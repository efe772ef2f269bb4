"""The paper's definitions that no verb computes, for the tests of the
propositions built on them: the tiling graph G_T, critical and strongly
critical cycles, the acyclic orientation of the quotient graph, spin and
disequilibrium from the cell colours, and the generalized flip graph with
its BFS distances, and the holes' cells by a flood of the complement.
They work on the arcs (u, v) of GridVertex that `grid_arcs` lists, and on
cycles as closed GridVertex walks, which `closed_walk` makes of the
graph's arc-id cycles; `tests/stepwise.py` builds its references on them.  `arc_id`, `cell_arcs`, `hole_cells` and
`hole_of` find arcs and holes by their geometry, which the package itself
never needs: it knows a hole only by its contour.
"""

import itertools
from collections import deque
from graphlib import CycleError, TopologicalSorter

from tiler.components import component_heights
from tiler.errors import TilerError
from tiler.flips import apply_flip, available_flips
from tiler.grid import Cell
from tiler.tiling import g_of_tiling

N, S, E, W = (0, 1), (0, -1), (1, 0), (-1, 0)
DIRECTIONS = (N, S, E, W)


def is_black(cell) -> bool:
    """Checkerboard coloring: cell (x, y) is black iff x + y is even."""
    return (cell[0] + cell[1]) % 2 == 0


class NotACycle(TilerError):
    """Vertex list is not an elementary closed walk of the figure graph."""


class NotClockwise(TilerError):
    """Cycle is not traversed clockwise."""


class Unreachable(TilerError):
    """No flip path between the two tilings (must not occur when tileable)."""


def grid_arcs(graph):
    """The arcs (u, v) of GridVertex in arc id order, read off the offsets
    and heads."""
    vs, off, head = graph.vertices, graph.offsets, graph.head
    return [(vs[u], vs[head[k]]) for u in range(len(vs)) for k in range(off[u], off[u + 1])]


def arc_id(graph, u, v) -> int:
    """Id of the arc u -> v between two GridVertex, through a dict of the
    arcs that `grid_arcs` reads off `graph.vertices`; KeyError if the
    figure has no such arc."""
    return {a: k for k, a in enumerate(grid_arcs(graph))}[u, v]


def cell_arcs(graph, cell) -> list:
    """The four arc ids clockwise around one cell of the figure, from its
    upper left corner: the arcs with the cell on their right, ordered by
    their tails' corners."""
    x, y = cell
    corner = {(x, y + 1): 0, (x + 1, y + 1): 1, (x + 1, y): 2, (x, y): 3}
    arcs = [None] * 4
    for k, (u, v) in enumerate(grid_arcs(graph)):
        if right_cell((u.x, u.y), (v.x - u.x, v.y - u.y)) == cell:
            arcs[corner[u.x, u.y]] = k
    assert None not in arcs, f"{cell} is not a cell of the figure"
    return arcs


def hole_cells(graph) -> list:
    """The cells of each hole, as frozensets of Cell: the finite 8-connected
    components of the figure's complement in its bounding box padded by one
    cell, numbered by least cell.  A flood over the cells alone, blind to the
    contours by which `build_graph` numbers the holes."""
    fig = graph.figure
    xs = range(fig.min_x - 1, fig.min_x + fig.width + 1)
    ys = range(fig.min_y - 1, fig.min_y + fig.height + 1)
    free = {Cell(x, y) for x in xs for y in ys} - fig.cells
    comps = []
    for start in sorted(free):  # each flood starts at its least cell
        if start not in free:
            continue
        free.remove(start)
        comp = [start]
        for x, y in comp:  # comp grows while it is walked
            for nb in itertools.product((x - 1, x, x + 1), (y - 1, y, y + 1)):
                if nb in free:
                    free.remove(nb)
                    comp.append(Cell(*nb))
        comps.append(frozenset(comp))
    # The pad ring is connected, and its corner is the least cell: the
    # first flood is the infinite component.
    return comps[1:]


def hole_of(graph, cell):
    """Id of the hole whose cells (see `hole_cells`) hold the cell, or None
    (the infinite component, or a figure cell)."""
    return next((i for i, cells in enumerate(hole_cells(graph)) if cell in cells), None)


def contour_right_cells(graph, contour) -> set:
    """The cells on the right of a contour's arcs, outside the figure."""
    vs, head, rev = graph.vertices, graph.head, graph.rev
    return {
        right_cell((u.x, u.y), (v.x - u.x, v.y - u.y))
        for u, v in ((vs[head[rev[k]]], vs[head[k]]) for k in contour)
    }


def closed_walk(graph, arcs) -> list:
    """The closed GridVertex walk of an arc-id cycle, such as a contour or
    `cell_arcs`: the tail of its first arc, then the head of every arc."""
    vs, head, rev = graph.vertices, graph.head, graph.rev
    return [vs[head[rev[arcs[0]]]]] + [vs[head[k]] for k in arcs]


def arc_t(graph, weights):
    """t keyed by the arcs (u, v) of GridVertex."""
    return dict(zip(grid_arcs(graph), weights.t))


def _moves(cycle):
    """The moves (u, v) of a closed walk that repeats no vertex."""
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise NotACycle("cycle must be closed")
    if len(set(cycle)) != len(cycle) - 1:
        raise NotACycle("cycle repeats a vertex")
    return list(zip(cycle, cycle[1:]))


def left_cell(p, d) -> Cell:
    """Cell on the left of a unit move from lattice point p in direction d."""
    x, y = p
    dx, dy = d
    return Cell((2 * x + dx - dy - 1) // 2, (2 * y + dy + dx - 1) // 2)


def right_cell(p, d) -> Cell:
    x, y = p
    dx, dy = d
    return Cell((2 * x + dx + dy - 1) // 2, (2 * y + dy - dx - 1) // 2)


def spin_of_move(p, d) -> int:
    """Spin of the move p -> p + d: +1 with a white cell on the left."""
    return 1 if not is_black(left_cell(p, d)) else -1


def cycle_spin(cycle) -> int:
    """Sum of spins along a closed vertex walk."""
    return sum(
        spin_of_move((u.x, u.y), (v.x - u.x, v.y - u.y))
        for u, v in zip(cycle, cycle[1:])
    )


def disequilibrium(figure, cycle) -> int:
    """Black-minus-white count over the cells of the figure enclosed by an
    elementary clockwise cycle."""
    moves = _moves(cycle)
    cells = figure.cells
    for u, v in moves:
        d = (v.x - u.x, v.y - u.y)
        if d not in DIRECTIONS:
            raise NotACycle(f"{u} -> {v} is not a unit step")
        if left_cell((u.x, u.y), d) not in cells and right_cell((u.x, u.y), d) not in cells:
            raise NotACycle(f"edge {u} -> {v} is not a side of a figure cell")
    area2 = sum(u.x * v.y - v.x * u.y for u, v in moves)
    if area2 >= 0:
        raise NotClockwise("cycle is not clockwise")

    # Vertical steps, for a winding count per cell row.
    down = {}
    up = {}
    for u, v in moves:
        if v.x == u.x:
            if v.y == u.y + 1:
                up.setdefault(u.y, []).append(u.x)
            else:
                down.setdefault(v.y, []).append(u.x)

    total = 0
    for cell in cells:
        w = sum(1 for x in down.get(cell.y, ()) if x > cell.x)
        w -= sum(1 for x in up.get(cell.y, ()) if x > cell.x)
        if w == 1:
            total += 1 if is_black(cell) else -1
    return total


def tiling_graph(graph, weights, tiling) -> frozenset:
    """G_T: the arcs (u, v) with g_T = t; includes every boundary arc."""
    kept = zip(grid_arcs(graph), g_of_tiling(graph, weights, tiling), weights.t)
    return frozenset(a for a, g, t in kept if g == t)


def _cycle_arcs(graph, weights, cycle) -> list:
    """(t, spin, boundary flag) of each arc along an elementary closed walk
    of the figure graph."""
    facts = dict(zip(grid_arcs(graph), zip(weights.t, graph.spin, graph.boundary)))
    try:
        return [facts[a] for a in _moves(cycle)]
    except KeyError as missing:
        raise NotACycle(f"{missing.args[0]} is not an arc of the figure graph") from None


def is_critical(graph, weights, cycle) -> bool:
    """Elementary cycle with t(C) = 0."""
    return sum(t for t, _, _ in _cycle_arcs(graph, weights, cycle)) == 0


def is_strongly_critical(graph, weights, cycle) -> bool:
    """Critical, with spin +1 on every non-boundary arc."""
    arcs = _cycle_arcs(graph, weights, cycle)
    return sum(t for t, _, _ in arcs) == 0 and all(s == 1 for _, s, b in arcs if not b)


def edge_direction(heights, i: int, j: int, c: int):
    """Orientation (i, j) or (j, i) of the edge that i lists as (j, c)."""
    d = heights[j] - heights[i]
    if d == c:
        return (i, j)
    # Quotient arcs are never boundary arcs, so the lower difference is c - 4.
    assert d == c - 4, "arc difference outside {c - 4, c}"
    return (j, i)


def to_orientation(cg, hf) -> frozenset:
    """The acyclic quotient orientation of hf, as ordered pairs of component
    indices."""
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
    return arcs


def generalized_flip_adjacency(graph, weights, cg, heights):
    """Adjacency of the generalized flip graph over the given height
    functions, computed two independent ways and cross-checked.

    The height criterion: two tilings are one flip apart iff their heights
    differ by exactly 4 on a single forced component and agree elsewhere.
    The dynamic criterion: apply every available flip and locate the result.
    """
    reps = [graph.vertices[r] for r in cg.representatives]
    keys = [tuple(hf.h[v] for v in reps) for hf in heights]
    index = {k: i for i, k in enumerate(keys)}

    by_height = [set() for _ in heights]
    for i, j in itertools.combinations(range(len(heights)), 2):
        diffs = [abs(a - b) for a, b in zip(keys[i], keys[j])]
        if max(diffs) == sum(diffs) == 4:
            by_height[i].add(j)
            by_height[j].add(i)

    by_flip = [set() for _ in heights]
    for i, hf in enumerate(heights):
        for flip in available_flips(cg, weights, hf):
            out = apply_flip(cg, weights, hf, flip)
            j = index[tuple(out.h[v] for v in reps)]
            by_flip[i].add(j)

    if by_height != by_flip:
        raise AssertionError("flip adjacency oracles disagree")
    return by_height


def bfs_distance(adjacency, start: int, goal: int) -> int:
    """Shortest path length in an adjacency-list graph."""
    if start == goal:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in adjacency[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                if j == goal:
                    return dist[j]
                queue.append(j)
    raise Unreachable(f"no flip path from {start} to {goal}")
