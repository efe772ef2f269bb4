"""Figures on the plane grid: parsing, coloring, spin, holes and the
duplicated-vertex graph.

Cells are unit squares addressed by their lower-left corner.  A figure is a
finite 4-connected set of cells; the finite 8-connected components of its
complement are its holes.  Lattice points where the figure pinches (two
diagonally adjacent cells present, the other two absent) are split into two
vertex copies so that every contour is an elementary cycle.
"""

from __future__ import annotations

from array import array
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


# At the API edge an arc is an ordered pair of GridVertex, as taken by
# FigureGraph.arc_id, and a cycle is a vertex list with first == last.
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
    cells = frozenset(c if type(c) is Cell else Cell(*c) for c in cells)
    if not cells:
        raise Empty("figure has no cells")
    xs = [c.x for c in cells]
    ys = [c.y for c in cells]
    width = max(xs) - min(xs) + 1
    height = max(ys) - min(ys) + 1
    if width > MAX_EXTENT or height > MAX_EXTENT:
        raise ParseError(f"bounding box exceeds {MAX_EXTENT}x{MAX_EXTENT}")
    figure = Figure(cells, min(xs), min(ys), width, height)
    todo, rows = _padded_box(figure)  # 1 on each cell not reached yet
    reached = [todo.index(1)]
    todo[reached[0]] = 0
    for k in reached:  # reached grows while it is walked
        for nb in (k - rows, k - 1, k + 1, k + rows):
            if todo[nb]:
                todo[nb] = 0
                reached.append(nb)
    if len(reached) != len(cells):
        raise NotConnected("cells are not 4-connected")
    return figure


def _padded_box(figure: Figure):
    """The figure's bounding box padded by one cell, as (inside, rows):
    cell (x, y) has the column-major key (x - min_x + 1) * rows +
    (y - min_y + 1), so key order is (x, y) order, and inside[key] is 1
    on a figure cell."""
    rows = figure.height + 2
    inside = bytearray((figure.width + 2) * rows)
    x0, y0 = figure.min_x - 1, figure.min_y - 1
    for x, y in figure.cells:
        inside[(x - x0) * rows + y - y0] = 1
    return inside, rows


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
        Cell(c, nrows - 1 - r)
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
    """Symmetric directed graph of a figure, after vertex duplication, on
    dense integer ids.

    Vertex ids are 0..V-1 in sorted GridVertex order, so id order is vertex
    order; `vertices` maps an id to its GridVertex and `index` back.  Arc ids
    are in CSR order: the arcs leaving vertex u are offsets[u] <= k <
    offsets[u + 1], by increasing head.  Each per-arc fact is stored once, in
    one array indexed by arc id: the head, the spin (+1 with a white cell on
    the left), the boundary flag (no figure cell across the side), the id of
    the reverse arc, and the side as a sorted pair of lattice points (one
    tuple per side, shared by its two arcs).  The tail of arc k is
    head[rev[k]].
    """

    figure: Figure
    vertices: tuple  # id -> GridVertex; id 0 is w0
    index: dict  # GridVertex -> id
    offsets: list  # tail id -> id of its first arc; offsets[V] is the arc count
    head: list
    spin: list
    boundary: list
    rev: array  # 'i': 4 bytes per arc, where a list would also hold an int object each
    axis: list
    holes: list
    outer_contour: Cycle  # counterclockwise around the figure, from w0
    _dup: dict = field(repr=False)  # pinch point -> "NE/SW" or "NW/SE"
    _comp_of_cell: dict = field(repr=False)
    # Interned central axes, filled by `tiling.validate_tiling`, so every
    # Tiling of the figure shares one tuple per cell side.
    sides: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def w0(self) -> GridVertex:
        """The least vertex, where heights are 0.  It is on the outer
        contour: no cell lies left of the figure's leftmost column."""
        return self.vertices[0]

    def arc_id(self, u, v) -> int:
        """Id of the arc u -> v between two GridVertex."""
        i, j = self.index.get(u), self.index.get(v)
        if i is not None:
            for k in range(self.offsets[i], self.offsets[i + 1]):
                if self.head[k] == j:
                    return k
        raise ArcNotInFigure(f"{(u, v)} is not an arc of the figure")

    def vertex(self, p, d) -> GridVertex:
        """Vertex copy at lattice point p attached to the edge leaving in
        direction d."""
        pattern = self._dup.get((p[0], p[1]))
        copy = _OWNER[pattern][_MOVES.index(d)] if pattern else 0
        return GridVertex(p[0], p[1], copy)

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
        # Every boundary arc's reverse is one too, so the heads are all ends.
        vs = self.vertices
        return frozenset(vs[v] for v, b in zip(self.head, self.boundary) if b)


# The moves from a lattice point in the order of their heads' ids, and per
# pinch pattern the copy of the pinch point that owns each move: copy 0
# takes N and E at a "NE/SW" pinch, N and W at a "NW/SE" one.
_MOVES = (W, S, N, E)
_OWNER = {"NE/SW": (1, 1, 0, 0), "NW/SE": (0, 1, 0, 1)}


# Spins of the moves W, S, N, E from a lattice point with x + y even, odd:
# the cell on the left of W and E has the point's colour, of S and N the
# other one.
_SPINS = ((-1, 1, 1, -1), (1, -1, -1, 1))


def _complement_components(inside, rows):
    """8-connected components of the complement in the padded box (see
    `_padded_box`): a label per cell key (None for the infinite component, the
    hole id for a hole cell, -1 for a figure cell) and each hole's keys.

    The first flood starts at the pad corner; the pad ring is connected, so
    that flood is the infinite component and every later one is a hole.
    Column-major keys wrap from one column's top pad cell to the next one's
    bottom pad cell, which joins pad cells only.
    """
    size = len(inside)
    steps = (-rows - 1, -rows, -rows + 1, -1, 1, rows - 1, rows, rows + 1)
    label = [-1] * size

    def flood(start, value):
        label[start] = value
        comp = [start]
        for k in comp:  # comp grows while it is walked
            for s in steps:
                n = k + s
                if 0 <= n < size and label[n] == -1 and not inside[n]:
                    label[n] = value
                    comp.append(n)
        return comp

    flood(0, None)
    holes = []
    for k in range(size):
        if label[k] == -1 and not inside[k]:
            holes.append(flood(k, len(holes)))
    return label, holes


def build_graph(figure: Figure) -> FigureGraph:
    # Cells by their keys in the padded bounding box (see `_padded_box`),
    # x0 and y0 being the pad's corner; a lattice point has the key of the
    # cell on its upper right.
    inside, rows = _padded_box(figure)
    x0, y0 = figure.min_x - 1, figure.min_y - 1
    label, hole_keys = _complement_components(inside, rows)

    # Vertex ids in (x, y, copy) order.  A point where exactly two
    # diagonally opposite cells are present is a pinch and has two copies.
    # Reads left of or below the box land on pad cells, which are empty.
    first = [-1] * len(inside)  # point key -> id of its copy 0
    pinch = {}  # pinch point key -> "NE/SW" or "NW/SE"
    vertices, keys, points = [], [], []  # per id: GridVertex, point key, (x, y)
    index = {}
    for p in range(rows + 1, len(inside)):
        ne, nw, sw, se = inside[p], inside[p - rows], inside[p - rows - 1], inside[p - 1]
        if not (ne or nw or sw or se):
            continue
        cx, cy = divmod(p, rows)
        point = (x0 + cx, y0 + cy)
        copies = 1
        if ne == sw != nw == se:
            pinch[p] = "NE/SW" if ne else "NW/SE"
            copies = 2
        for copy in range(copies):
            i = len(vertices)  # one int object per id, shared by every array
            v = GridVertex(point[0], point[1], copy)
            index[v] = i
            vertices.append(v)
            keys.append(p)
            points.append(point)
            if not copy:
                first[p] = i

    # Arcs in CSR order, one tail at a time, its moves in head order W, S,
    # N, E.  A W or S arc goes to a lower id, whose arcs are built: its
    # reverse is that head's E arc, its last, or its N arc, last but at
    # most one.  Per move: the key step to the head and the key offsets of
    # the cells on the move's left and right.
    moves = ((-rows, -rows - 1, -rows), (-1, -1, -rows - 1), (1, -rows, 0), (rows, 0, -1))
    offsets = [0]
    head, spin, boundary, rev, axis = [], [], [], array("i"), []
    f_on_left = {}  # tail id -> (head id, label across) on figure-on-the-left boundary arcs
    for u, p in enumerate(keys):
        owner = _OWNER.get(pinch.get(p)) if pinch else None
        copy = u - first[p]
        spins = _SPINS[sum(points[u]) & 1]
        for m, (step, lo, ro) in enumerate(moves):
            left, right = inside[p + lo], inside[p + ro]
            if not (left or right) or (owner and owner[m] != copy):
                continue
            q = p + step
            v = first[q]
            if pinch and q in pinch:
                v += _OWNER[pinch[q]][3 - m]
            k = len(head)
            head.append(v)
            spin.append(spins[m])
            boundary.append(left != right)
            if m < 2:
                j = offsets[v + 1] - 1
                if head[j] != u:
                    j -= 1
                rev.append(j)
                rev[j] = k
                axis.append(axis[j])
            else:
                rev.append(-1)  # set with the reverse arc
                axis.append((points[u], points[v]))
            if left and not right:
                assert u not in f_on_left, "non-elementary contour at %s" % (vertices[u],)
                f_on_left[u] = (v, label[p + ro])
        offsets.append(len(head))

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

    def contour(comp):
        """The contour of a complement component as GridVertex, from its
        least vertex."""
        cyc = contours[comp]
        i = cyc.index(min(cyc))
        return [vertices[v] for v in cyc[i:-1] + cyc[: i + 1]]

    def cell(key):
        cx, cy = divmod(key, rows)
        return Cell(x0 + cx, y0 + cy)

    outer = contour(None)
    assert outer[0] is vertices[0], "least vertex off the outer contour"
    holes = []
    comp_of_cell = {}
    for hid, hkeys in enumerate(hole_keys):
        hcells = [cell(k) for k in hkeys]
        comp_of_cell.update(dict.fromkeys(hcells, hid))
        # Walking with the figure on the left keeps the hole on the right,
        # i.e. its contour is already clockwise around the hole.
        holes.append(Hole(id=hid, cells=frozenset(hcells), clockwise_contour=contour(hid)))

    return FigureGraph(
        figure=figure,
        vertices=tuple(vertices),
        index=index,
        offsets=offsets,
        head=head,
        spin=spin,
        boundary=boundary,
        rev=rev,
        axis=axis,
        holes=holes,
        outer_contour=outer,
        _dup={tuple(cell(p)): pattern for p, pattern in pinch.items()},
        _comp_of_cell=comp_of_cell,
    )


def spin(graph: FigureGraph, a) -> int:
    """Spin of an arc of the figure graph."""
    return graph.spin[graph.arc_id(*a)]


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
