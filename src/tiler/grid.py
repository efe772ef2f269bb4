"""Figures on the plane grid: parsing, coloring, holes and the
duplicated-vertex graph.

Cells are unit squares addressed by their lower-left corner.  A figure is a
finite 4-connected set of cells; the finite 8-connected components of its
complement are its holes.  Lattice points where the figure pinches (two
diagonally adjacent cells present, the other two absent) are split into two
vertex copies so that every contour is an elementary cycle.  Holes are
found by their contours, not by their cells: the boundary arcs with the
figure on their left form closed walks, one round the outside and one
round each hole, and `build_graph` numbers the holes by the least tail of
their walks.  Each arc's spin (+1 with a white cell on its left) is
derived here only, from the `_SPINS` table as `build_graph` makes the
arc, and read off `graph.spin` everywhere else.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import Empty, NotConnected, ParseError

MAX_EXTENT = 4096


class Cell(NamedTuple):
    x: int
    y: int


class GridVertex(NamedTuple):
    x: int
    y: int
    copy: int = 0


@dataclass(frozen=True)
class Figure:
    """Finite 4-connected union of unit cells."""

    cells: frozenset
    min_x: int
    min_y: int
    width: int
    height: int

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
    """Finite 8-connected component of the figure's complement, kept as
    its contour.  Holes are numbered by the contours' least tails.  The
    least tail of a hole's contour is the lower-left corner of its least
    cell (the cell left of it is a figure cell, or it would be in the
    hole), so ids are in the order of the holes' least cells."""

    id: int
    contour: tuple  # arc ids clockwise around the hole, from its least tail


@dataclass
class FigureGraph:
    """Symmetric directed graph of a figure, after vertex duplication, on
    dense integer ids.

    Vertex ids are 0..V-1 in sorted GridVertex order, so id order is vertex
    order; `vertices` maps an id to its GridVertex.  Arc ids are in CSR
    order: the arcs leaving vertex u are offsets[u] <= k < offsets[u + 1], by
    increasing head, so a tail's moves come in the order W, S, N, E.  Each
    per-arc fact is stored once, in one array indexed by arc id: the head,
    the spin (+1 with a white cell on the left), the boundary flag (no
    figure cell across the side), the id of the reverse arc, and the side as
    a sorted pair of lattice points (one tuple per side, shared by its two
    arcs).  The tail of arc k is head[rev[k]].  The contours, `outer` and
    each hole's `contour`, are closed walks of arc ids, the figure on their
    left: each arc's head is the next one's tail.
    """

    figure: Figure
    vertices: tuple  # id -> GridVertex; id 0 is w0
    offsets: list  # tail id -> id of its first arc; offsets[V] is the arc count
    head: list
    spin: list
    boundary: list
    rev: array  # 'i': 4 bytes per arc, where a list would also hold an int object each
    axis: list
    holes: list
    outer: tuple  # arc ids counterclockwise around the figure, from w0
    # Interned central axes, filled by `tiling.validate_tiling`, so every
    # Tiling of the figure shares one tuple per cell side.
    sides: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def w0(self) -> GridVertex:
        """The least vertex, where heights are 0.  It is on the outer
        contour: no cell lies left of the figure's leftmost column."""
        return self.vertices[0]


# Per pinch pattern, the copy of the pinch point that owns each move W, S,
# N, E: copy 0 takes N and E at a "NE/SW" pinch, N and W at a "NW/SE" one.
_OWNER = {"NE/SW": (1, 1, 0, 0), "NW/SE": (0, 1, 0, 1)}

# Spins of the moves W, S, N, E from a lattice point with x + y even, odd:
# the cell on the left of W and E has the point's colour, of S and N the
# other one.
_SPINS = ((-1, 1, 1, -1), (1, -1, -1, 1))


def build_graph(figure: Figure) -> FigureGraph:
    # Cells by their keys in the padded bounding box (see `_padded_box`),
    # x0 and y0 being the pad's corner; a lattice point has the key of the
    # cell on its upper right.
    inside, rows = _padded_box(figure)
    x0, y0 = figure.min_x - 1, figure.min_y - 1

    # Vertex ids in (x, y, copy) order.  A point where exactly two
    # diagonally opposite cells are present is a pinch and has two copies.
    # Reads left of or below the box land on pad cells, which are empty.
    first = [-1] * len(inside)  # point key -> id of its copy 0
    pinch = {}  # pinch point key -> "NE/SW" or "NW/SE"
    vertices, keys, points = [], [], []  # per id: GridVertex, point key, (x, y)
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
            vertices.append(GridVertex(point[0], point[1], copy))
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
    f_on_left = {}  # tail id -> arc id, on the boundary arcs with the figure on their left
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
                f_on_left[u] = k
        offsets.append(len(head))

    # Extract the contours as closed walks of arc ids: one counterclockwise
    # around the figure, one clockwise around each hole (the complement
    # sits on the walker's right).  Each walk starts at the least tail not
    # on an earlier one, so it starts at its own least tail, and the walks
    # come in the order of their least tails: first the outer contour,
    # which holds w0, then the holes.
    contours = []
    for u in list(f_on_left):  # tail ids in increasing order
        k = f_on_left.pop(u, None)
        if k is None:  # on an earlier walk
            continue
        walk = [k]
        while head[k] != u:
            k = f_on_left.pop(head[k])
            walk.append(k)
        contours.append(tuple(walk))
    outer = contours[0]
    assert head[rev[outer[0]]] == 0, "least vertex off the outer contour"
    holes = [Hole(id=i, contour=c) for i, c in enumerate(contours[1:])]

    return FigureGraph(
        figure=figure,
        vertices=tuple(vertices),
        offsets=offsets,
        head=head,
        spin=spin,
        boundary=boundary,
        rev=rev,
        axis=axis,
        holes=holes,
        outer=outer,
    )
