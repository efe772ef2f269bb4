"""Figures on the plane grid: parsing, coloring, spin, holes and the
duplicated-vertex graph.

Cells are unit squares addressed by their lower-left corner.  A figure is a
finite 4-connected set of cells; the finite 8-connected components of its
complement are its holes.  Lattice points where the figure pinches (two
diagonally adjacent cells present, the other two absent) are split into two
vertex copies so that every contour is an elementary cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import (
    ArcNotInFigure,
    Empty,
    NotClockwise,
    NotConnected,
    NotElementary,
    ParseError,
)

MAX_EXTENT = 4096

N, S, E, W = (0, 1), (0, -1), (1, 0), (-1, 0)
DIRECTIONS = (N, S, E, W)


class Cell(NamedTuple):
    x: int
    y: int


class GridVertex(NamedTuple):
    x: int
    y: int
    copy: int = 0

    @property
    def point(self):
        return (self.x, self.y)


# An arc is an ordered pair of GridVertex, a key of FigureGraph.arcs; a cycle
# is a vertex list with first == last.
Arc = tuple
Cycle = list


def is_black(cell) -> bool:
    """Checkerboard coloring: cell (x, y) is black iff x + y is even."""
    return (cell[0] + cell[1]) % 2 == 0


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


@dataclass(frozen=True)
class Figure:
    """Finite 4-connected union of unit cells."""

    cells: frozenset
    min_x: int
    min_y: int
    width: int
    height: int

    def __contains__(self, cell) -> bool:
        return Cell(cell[0], cell[1]) in self.cells

    def __len__(self) -> int:
        return len(self.cells)


def make_figure(cells) -> Figure:
    cells = frozenset(Cell(x, y) for x, y in cells)
    if not cells:
        raise Empty("figure has no cells")
    xs = [c.x for c in cells]
    ys = [c.y for c in cells]
    width = max(xs) - min(xs) + 1
    height = max(ys) - min(ys) + 1
    if width > MAX_EXTENT or height > MAX_EXTENT:
        raise ParseError(f"bounding box exceeds {MAX_EXTENT}x{MAX_EXTENT}")
    seen = {next(iter(sorted(cells)))}
    queue = deque(seen)
    while queue:
        c = queue.popleft()
        for dx, dy in DIRECTIONS:
            nb = Cell(c.x + dx, c.y + dy)
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if seen != cells:
        raise NotConnected("cells are not 4-connected")
    return Figure(cells, min(xs), min(ys), width, height)


def parse_figure(text: str) -> Figure:
    """Parse an ASCII grid: '#' = cell present, '.' = absent.

    Row r from the top, column c maps to Cell(c, rows - 1 - r).
    """
    rows = text.splitlines()
    while rows and rows[-1] == "":
        rows.pop()
    if not rows:
        raise Empty("empty input")
    if len({len(r) for r in rows}) != 1:
        raise ParseError("ragged rows")
    bad = {ch for r in rows for ch in r} - {"#", "."}
    if bad:
        raise ParseError(f"bad characters: {sorted(bad)!r}")
    nrows = len(rows)
    cells = [
        (c, nrows - 1 - r)
        for r, row in enumerate(rows)
        for c, ch in enumerate(row)
        if ch == "#"
    ]
    return make_figure(cells)


@dataclass
class Hole:
    """Finite 8-connected component of the figure's complement."""

    id: int
    cells: frozenset
    clockwise_contour: Cycle


@dataclass
class FigureGraph:
    """Symmetric directed graph of a figure, after vertex duplication."""

    figure: Figure
    arcs: dict  # arc -> its spin, +1 with a white cell on its left
    adjacency: dict  # vertex -> sorted heads of its arcs; keys are the vertices
    boundary_arcs: frozenset
    holes: list
    w0: GridVertex
    outer_contour: Cycle  # counterclockwise around the figure, from w0
    _dup: dict = field(repr=False)  # pinch point -> "NE/SW" or "NW/SE"
    _comp_of_cell: dict = field(repr=False)
    # Interned central axes, filled by `tiling.validate_tiling`, so every
    # Tiling of the figure shares one tuple per cell side.
    sides: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def vertices(self):
        return self.adjacency.keys()

    def vertex(self, p, d) -> GridVertex:
        """Vertex copy at lattice point p attached to the edge leaving in
        direction d."""
        return _vertex_copy(self._dup, p, d)

    def complement_component(self, cell) -> Optional[int]:
        """Hole id containing the cell, or None for the infinite component."""
        return self._comp_of_cell.get(Cell(cell[0], cell[1]))

    def cell_cycle(self, cell) -> Cycle:
        """Clockwise elementary 4-cycle around one cell of the figure."""
        x, y = cell
        corners = [((x, y + 1), E), ((x + 1, y + 1), S), ((x + 1, y), W), ((x, y), N)]
        cyc = [self.vertex(p, d) for p, d in corners]
        cyc.append(cyc[0])
        return cyc

    @property
    def boundary_vertices(self) -> frozenset:
        return frozenset(v for a in self.boundary_arcs for v in a)


def _vertex_copy(dup, p, d) -> GridVertex:
    """FigureGraph.vertex over the pinch map dup, usable before the graph
    is built."""
    pattern = dup.get((p[0], p[1]))
    if pattern is None:
        return GridVertex(p[0], p[1], 0)
    if pattern == "NE/SW":
        copy = 0 if d in (N, E) else 1
    else:  # "NW/SE"
        copy = 0 if d in (N, W) else 1
    return GridVertex(p[0], p[1], copy)


# A cell's corners counterclockwise from its lower-left one, each with the
# direction of the side leaving it (which picks the corner's copy at a pinch)
# and the offset of the cell across that side.
_CORNERS = (
    ((0, 0), E, (0, -1)),
    ((1, 0), N, (1, 0)),
    ((1, 1), W, (0, 1)),
    ((0, 1), S, (-1, 0)),
)


def _complement_components(figure: Figure):
    """8-connected components of the complement inside a 1-cell pad of the
    bounding box, as (hole cell sets, cell -> hole id).

    The first flood starts at the pad corner; the pad ring is connected, so
    that flood is the infinite component and every later one is a hole.
    """
    cells = figure.cells
    x0, y0 = figure.min_x - 1, figure.min_y - 1
    x1, y1 = figure.min_x + figure.width, figure.min_y + figure.height

    def flood(start, mark, value):
        comp = [start]
        mark[start] = value
        for cx, cy in comp:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = Cell(cx + dx, cy + dy)
                    if (
                        x0 <= nb.x <= x1
                        and y0 <= nb.y <= y1
                        and nb not in cells
                        and nb not in mark
                    ):
                        mark[nb] = value
                        comp.append(nb)
        return comp

    outside = {}
    flood(Cell(x0, y0), outside, None)
    hole_cells = []
    comp_of_cell = {}
    for sx in range(x0, x1 + 1):
        for sy in range(y0, y1 + 1):
            start = Cell(sx, sy)
            if start in cells or start in outside or start in comp_of_cell:
                continue
            comp = flood(start, comp_of_cell, len(hole_cells))
            hole_cells.append(frozenset(comp))
    return hole_cells, comp_of_cell


def build_graph(figure: Figure) -> FigureGraph:
    cells = figure.cells
    hole_cells, comp_of_cell = _complement_components(figure)

    # Pinch points: exactly two diagonally opposite quadrant cells present.
    # The upper of the two cells has the pinch as its lower-left (NE/SW) or
    # lower-right (NW/SE) corner, so each pinch is found once.
    dup = {}
    for x, y in cells:
        if Cell(x, y - 1) in cells:
            continue
        if Cell(x - 1, y - 1) in cells and Cell(x - 1, y) not in cells:
            dup[(x, y)] = "NE/SW"
        if Cell(x + 1, y - 1) in cells and Cell(x + 1, y) not in cells:
            dup[(x + 1, y)] = "NW/SE"

    # One walk over the cells' sides, counterclockwise so that the cell is on
    # the left and sets the arc's spin.  An inner side is walked once from
    # each of its cells; a boundary side gives both arcs, of opposite spins,
    # and the figure-on-the-left one is keyed in f_on_left by its tail.
    vertices = {}  # each vertex copy once: equal copies are one object
    arcs = {}
    boundary_arcs = set()
    f_on_left = {}  # tail vertex -> (head vertex, hole id or None)
    for x, y in cells:
        s = -1 if is_black((x, y)) else 1
        ring = []
        for (px, py), d, _ in _CORNERS:
            v = _vertex_copy(dup, (x + px, y + py), d)
            ring.append(vertices.setdefault(v, v))
        for k, (_, _, (ox, oy)) in enumerate(_CORNERS):
            u, v = ring[k], ring[k - 3]
            arcs[(u, v)] = s
            across = Cell(x + ox, y + oy)
            if across not in cells:
                arcs[(v, u)] = -s
                boundary_arcs.add((u, v))
                boundary_arcs.add((v, u))
                assert u not in f_on_left, "non-elementary contour at %s" % (u,)
                f_on_left[u] = (v, comp_of_cell.get(across))

    adjacency = {}
    for u, v in arcs:
        adjacency.setdefault(u, []).append(v)
    adjacency = {u: tuple(sorted(vs)) for u, vs in adjacency.items()}

    # Extract contour cycles: one counterclockwise outer contour, one
    # clockwise contour per hole (the complement sits on the walker's right).
    contours = {}
    while f_on_left:
        u0, (v, comp) = f_on_left.popitem()
        cyc = [u0, v]
        while v != u0:
            v, c = f_on_left.pop(v)
            assert c == comp
            cyc.append(v)
        assert comp not in contours, "complement component with two contours"
        contours[comp] = cyc

    def rotate(cyc, start):
        i = cyc.index(start)
        return cyc[i:-1] + cyc[: i + 1]

    outer = contours[None]
    w0 = min(outer)

    holes = []
    for hid, hcells in enumerate(hole_cells):
        # Walking with the figure on the left keeps the hole on the right,
        # i.e. contours[hid] is already clockwise around the hole.
        cw_cyc = rotate(contours[hid], min(contours[hid]))
        holes.append(Hole(id=hid, cells=hcells, clockwise_contour=cw_cyc))

    return FigureGraph(
        figure=figure,
        arcs=arcs,
        adjacency=adjacency,
        boundary_arcs=frozenset(boundary_arcs),
        holes=holes,
        w0=w0,
        outer_contour=rotate(outer, w0),
        _dup=dup,
        _comp_of_cell=comp_of_cell,
    )


def spin(graph: FigureGraph, a) -> int:
    """Spin of an arc of the figure graph."""
    if a not in graph.arcs:
        raise ArcNotInFigure(f"{a} is not an arc of the figure")
    return graph.arcs[a]


def cycle_spin(cycle) -> int:
    """Sum of spins along a closed vertex walk."""
    return sum(
        spin_of_move((u.x, u.y), (v.x - u.x, v.y - u.y))
        for u, v in zip(cycle, cycle[1:])
    )


def disequilibrium(figure: Figure, cycle) -> int:
    """Black-minus-white count over the cells of the figure enclosed by an
    elementary clockwise cycle."""
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise NotElementary("cycle must be closed")
    interior = cycle[:-1]
    if len(set(interior)) != len(interior):
        raise NotElementary("cycle repeats a vertex")
    for u, v in zip(cycle, cycle[1:]):
        d = (v.x - u.x, v.y - u.y)
        if d not in DIRECTIONS:
            raise NotElementary(f"{u} -> {v} is not a unit step")
        if left_cell((u.x, u.y), d) not in figure and right_cell((u.x, u.y), d) not in figure:
            raise NotElementary(f"edge {u} -> {v} is not a side of a figure cell")
    area2 = sum(u.x * v.y - v.x * u.y for u, v in zip(cycle, cycle[1:]))
    if area2 >= 0:
        raise NotClockwise("cycle is not clockwise")

    # Vertical steps, for a winding count per cell row.
    down = {}
    up = {}
    for u, v in zip(cycle, cycle[1:]):
        if v.x == u.x:
            if v.y == u.y + 1:
                up.setdefault(u.y, []).append(u.x)
            else:
                down.setdefault(v.y, []).append(u.x)

    total = 0
    for cell in figure.cells:
        w = sum(1 for x in down.get(cell.y, ()) if x > cell.x)
        w -= sum(1 for x in up.get(cell.y, ()) if x > cell.x)
        if w == 1:
            total += 1 if is_black(cell) else -1
    return total
