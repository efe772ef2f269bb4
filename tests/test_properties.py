"""Randomized property tests over small generated figures."""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiler.equilibrium import verify_equilibrium
from tiler.errors import ParseError, Untileable
from tiler.generation import enumerate_tilings
from tiler.grid import Cell, build_graph, make_figure, parse_figure
from tiler.lattice import compare, maximal_height, minimal_height, OrderRelation
from tiler.oracle import brute_enumerate
from tiler.tiling import height_of_tiling, tiling_of_height


@st.composite
def small_figures(draw):
    """A 4-connected figure of at most 12 cells grown cell by cell."""
    n = draw(st.integers(min_value=1, max_value=12))
    cells = {Cell(0, 0)}
    for _ in range(n - 1):
        frontier = sorted(
            {
                Cell(c.x + dx, c.y + dy)
                for c in cells
                for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0))
            }
            - cells
        )
        cells.add(frontier[draw(st.integers(0, len(frontier) - 1))])
    return make_figure(cells)


@settings(max_examples=60, deadline=None)
@given(small_figures())
def test_equilibrium_always_valid(figure):
    _, graph, eqfn, weights = pipeline_from_cells(figure.cells)
    assert verify_equilibrium(graph, eqfn)
    n = len(figure)
    assert all(abs(eqfn(a)) <= 4 * n for a in graph.arcs)


@settings(max_examples=60, deadline=None)
@given(small_figures())
def test_enumeration_matches_oracle(figure):
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    ours = sorted(t.dominoes for t in enumerate_tilings(graph, weights))
    assert ours == brute_enumerate(figure)


@settings(max_examples=60, deadline=None)
@given(small_figures())
def test_extremes_and_round_trip(figure):
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    try:
        hmin, _ = minimal_height(graph, weights)
    except Untileable:
        assert brute_enumerate(figure) == []
        return
    hmax, _ = maximal_height(graph, weights)
    assert compare(hmin, hmax) in (OrderRelation.LESS, OrderRelation.EQUAL)
    for t in enumerate_tilings(graph, weights):
        h = height_of_tiling(graph, weights, t)
        assert tiling_of_height(graph, weights, h) == t
        assert compare(hmin, h) in (OrderRelation.LESS, OrderRelation.EQUAL)
        assert compare(h, hmax) in (OrderRelation.LESS, OrderRelation.EQUAL)


@st.composite
def masked_figures(draw):
    """A random mask of a rectangle of at most 7x7 cells, if it parses;
    such masks give holes and pinch points."""
    w = draw(st.integers(1, 7))
    h = draw(st.integers(1, 7))
    bits = draw(st.lists(st.integers(0, 3), min_size=w * h, max_size=w * h))
    text = "\n".join(
        "".join("#" if bits[r * w + c] else "." for c in range(w)) for r in range(h)
    )
    try:
        return parse_figure(text)
    except ParseError:
        assume(False)


def cell_sides(cell):
    """The four sides of a cell, each as a frozenset of its two end points."""
    x, y = cell
    corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    return [frozenset((corners[k], corners[k - 1])) for k in range(4)]


@settings(max_examples=200, deadline=None)
@given(masked_figures())
def test_figure_graph_from_cells(figure):
    """The figure graph against the cells alone: its edges, boundary, pinch
    copies, Euler's formula and one object per vertex."""
    graph = build_graph(figure)
    cells = figure.cells

    def edge(a):
        return frozenset(((a[0].x, a[0].y), (a[1].x, a[1].y)))

    sides = Counter(s for c in cells for s in cell_sides(c))
    assert {edge(a) for a in graph.arcs} == set(sides)
    assert {edge(a) for a in graph.boundary_arcs} == {
        s for s, n in sides.items() if n == 1
    }
    assert all((v, u) in graph.boundary_arcs for u, v in graph.boundary_arcs)

    points = {p for s in sides for p in s}
    split = {(v.x, v.y) for v in graph.vertices if v.copy == 1}
    for x, y in points:
        ne, nw, sw, se = (
            Cell(x, y) in cells,
            Cell(x - 1, y) in cells,
            Cell(x - 1, y - 1) in cells,
            Cell(x, y - 1) in cells,
        )
        pinch = (ne and sw and not nw and not se) or (nw and se and not ne and not sw)
        assert ((x, y) in split) == pinch

    assert len(graph.holes) == len(graph.arcs) // 2 - len(graph.vertices) - len(cells) + 1

    held = {v: v for v in graph.vertices}
    seen = [v for a in graph.arcs for v in a]
    seen += [v for u, vs in graph.adjacency.items() for v in (u, *vs)]
    seen += graph.outer_contour + [v for h in graph.holes for v in h.clockwise_contour]
    assert all(held[v] is v for v in seen)


def pipeline_from_cells(cells):
    """Rebuild the standard pipeline from a cell set (bypassing text)."""
    from tiler.equilibrium import build_equilibrium
    from tiler.grid import build_graph, make_figure

    figure = make_figure(cells)
    graph = build_graph(figure)
    eqfn, weights = build_equilibrium(graph)
    return figure, graph, eqfn, weights
