"""Randomized property tests over small generated figures."""

from collections import Counter
from graphlib import CycleError, TopologicalSorter
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiler.components import _strong_components, forced_components
from tiler.equilibrium import build_equilibrium, verify_equilibrium
from tiler.errors import ParseError, TilerError, Untileable
from tiler.flips import flip_path
from tiler.generation import count_tilings, enumerate_tilings
from tiler.grid import (
    Cell,
    build_graph,
    left_cell,
    make_figure,
    parse_figure,
    right_cell,
    spin_of_move,
)
from tiler.lattice import compare, maximal_height, minimal_height, OrderRelation
from tiler.oracle import brute_enumerate
from tiler.tiling import (
    HeightFunction,
    Tiling,
    g_of_tiling,
    height_of_tiling,
    tiling_of_height,
)

from .stepwise import (
    assert_components_match_reference,
    assert_flips_match_status,
    assert_samples_match_reference,
    arc_axis_key,
    assert_successors_match_stepwise,
    grid_arcs,
    outcome,
    reference_arc_weights,
    reference_flip_path,
    reference_forced_components,
    reference_g_of_tiling,
    reference_tiling_of_height,
    stepwise_extremal_height,
    tarjan_components,
)
from .test_equilibrium import assert_t_matches_eqfn


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
    assert_t_matches_eqfn(graph, eqfn, weights)
    n = len(figure)
    assert all(abs(eqfn(a)) <= 4 * n for a in grid_arcs(graph))


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
def masked_figures(draw, max_cells=49):
    """A random mask of a rectangle of at most 7x7 and at most `max_cells`
    cells, if it parses; such masks give holes and pinch points."""
    w = draw(st.integers(1, 7))
    h = draw(st.integers(1, min(7, max_cells // w)))
    bits = draw(st.lists(st.integers(0, 3), min_size=w * h, max_size=w * h))
    text = "\n".join(
        "".join("#" if bits[r * w + c] else "." for c in range(w)) for r in range(h)
    )
    try:
        return parse_figure(text)
    except ParseError:
        assume(False)


@st.composite
def tileable_masks(draw, max_dominoes=12, side=5):
    """A 4-connected figure in a side x side box grown one domino at a time,
    each touching the figure so far: the dominoes tile it, so it is
    tileable by construction.  Holes and pinch points arise as it grows."""
    x, y = draw(st.integers(0, side - 2)), draw(st.integers(0, side - 1))
    cells = {Cell(x, y), Cell(x + 1, y)}
    if draw(st.booleans()):
        cells = {Cell(y, x), Cell(y, x + 1)}

    def empty_neighbours(c):
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            d = Cell(c.x + dx, c.y + dy)
            if d not in cells and 0 <= d.x < side and 0 <= d.y < side:
                yield d

    for _ in range(draw(st.integers(1, max_dominoes - 1))):
        free = {d for c in cells for d in empty_neighbours(c)}
        dominoes = sorted({tuple(sorted((c, d))) for c in free for d in empty_neighbours(c)})
        if not dominoes:
            break
        cells.update(draw(st.sampled_from(dominoes)))
    return make_figure(cells)


def cell_sides(cell):
    """The four sides of a cell, each as a frozenset of its two end points."""
    x, y = cell
    corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    return [frozenset((corners[k], corners[k - 1])) for k in range(4)]


@settings(max_examples=200, deadline=None)
@given(masked_figures())
def test_figure_graph_from_cells(figure):
    """The figure graph against the cells alone: its edges, arc spins,
    boundary, pinch copies, Euler's formula and one object per vertex."""
    graph = build_graph(figure)
    cells = figure.cells

    def edge(a):
        return frozenset(((a[0].x, a[0].y), (a[1].x, a[1].y)))

    sides = Counter(s for c in cells for s in cell_sides(c))
    arcs = grid_arcs(graph)
    assert {edge(a) for a in arcs} == set(sides)
    assert all(
        s == spin_of_move((u.x, u.y), (v.x - u.x, v.y - u.y))
        for (u, v), s in zip(arcs, graph.spin)
    )
    boundary_arcs = {a for a, b in zip(arcs, graph.boundary) if b}
    assert {edge(a) for a in boundary_arcs} == {s for s, n in sides.items() if n == 1}
    assert all((v, u) in boundary_arcs for u, v in boundary_arcs)

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

    assert len(graph.holes) == len(arcs) // 2 - len(graph.vertices) - len(cells) + 1

    held = {v: v for v in graph.vertices}
    seen = list(graph.index)
    seen += graph.outer_contour + [v for h in graph.holes for v in h.clockwise_contour]
    assert all(held[v] is v for v in seen)

    assert_arc_arrays_match_cells(graph)


def assert_arc_arrays_match_cells(graph):
    """The integer core's arrays against the cells and the stepwise
    reference: ids in vertex order, each tail's heads increasing, rev an
    involution that swaps the ends, spins from `spin_of_move`, the boundary
    flag set iff no figure cell is across the side, one shared axis tuple
    per side, and t equal to `reference_arc_weights`."""
    cells = graph.figure.cells
    vs, off, head, rev = graph.vertices, graph.offsets, graph.head, graph.rev
    assert list(vs) == sorted(vs) and graph.index == {v: i for i, v in enumerate(vs)}
    tails = [u for u in range(len(vs)) for _ in range(off[u], off[u + 1])]
    assert len(tails) == len(head) == len(graph.spin) == len(graph.boundary) == len(rev)
    for u in range(len(vs)):
        heads = list(head[off[u] : off[u + 1]])
        assert heads == sorted(set(heads))
    for k, (u, v) in enumerate(zip(tails, head)):
        p, q = vs[u], vs[v]
        d = (q.x - p.x, q.y - p.y)
        assert rev[rev[k]] == k
        assert (tails[rev[k]], head[rev[k]]) == (v, u)
        assert graph.spin[k] == spin_of_move(p.point, d)
        figure_sides = sum(c in cells for c in (left_cell(p.point, d), right_cell(p.point, d)))
        assert figure_sides in (1, 2) and graph.boundary[k] == (figure_sides == 1)
        assert graph.axis[k] == arc_axis_key((p, q)) and graph.axis[k] is graph.axis[rev[k]]
    eqfn, weights = build_equilibrium(graph)
    reference = reference_arc_weights(graph, eqfn)
    assert [reference[a][3] for a in grid_arcs(graph)] == list(weights.t)


@settings(max_examples=200, deadline=None)
@given(masked_figures())
def test_relaxation_matches_stepwise(figure):
    """The direct relaxation against the reference ±4 worklist: equal
    heights, equal pass counts and the same Untileable verdicts."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    assert outcome(minimal_height, graph, weights) == outcome(
        stepwise_extremal_height, graph, weights, 1
    )
    assert outcome(maximal_height, graph, weights) == outcome(
        stepwise_extremal_height, graph, weights, -1
    )


@settings(max_examples=200, deadline=None)
@given(masked_figures(max_cells=24))
def test_count_matches_oracle(figure):
    """count_tilings, which decodes no tiling, against the oracle on masks
    small enough for it."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    assert count_tilings(graph, weights) == len(brute_enumerate(figure))


@settings(max_examples=200, deadline=None)
@given(masked_figures(max_cells=24))
def test_successors_match_stepwise(figure):
    """Each successor reached by flips is the pinned ±4 minimum."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    assert_successors_match_stepwise(graph, weights)


@settings(max_examples=200, deadline=None)
@given(tileable_masks())
def test_count_matches_oracle_tileable(figure):
    """test_count_matches_oracle on figures that always tile."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    assert count_tilings(graph, weights) == len(brute_enumerate(figure))


@settings(max_examples=200, deadline=None)
@given(tileable_masks())
def test_successors_match_stepwise_tileable(figure):
    """test_successors_match_stepwise on figures that always tile."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    assert_successors_match_stepwise(graph, weights)


@settings(max_examples=100, deadline=None)
@given(tileable_masks())
def test_sampler_matches_reference(figure):
    """The one-pass flip test on component heights against the reference
    status on height dicts, on every tiling, and sample_uniform against the
    reference CFTP loop for seeds 0-49: the same tilings from the same
    update streams."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    assert_flips_match_status(graph, weights)
    assert_samples_match_reference(graph, weights, range(50))


def g_by_arc(graph, weights, tiling):
    """g_of_tiling keyed by the arcs (u, v) of GridVertex."""
    g = g_of_tiling(graph, weights, tiling)
    arcs = grid_arcs(graph)
    assert len(g) == len(arcs)
    return dict(zip(arcs, g))


def _decoded(graph, decode, weights_or_eqfn, h):
    """The tiling a decode returns for the heights h, or its error type."""
    try:
        return decode(graph, weights_or_eqfn, HeightFunction(graph, h))
    except TilerError as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(tileable_masks(), st.data())
def test_encode_decode_match_reference(figure, data):
    """g_of_tiling and tiling_of_height, which read only t and sp, against
    the eq_r, b and t formulas recomputed from the equilibrium function: on
    every tiling, on random axis sets that need not be tilings (boundary
    sides included), and on heights with one vertex moved by 4."""
    _, graph, eqfn, weights = pipeline_from_cells(figure.cells)
    tilings = list(enumerate_tilings(graph, weights))
    for tiling in tilings:
        assert g_by_arc(graph, weights, tiling) == reference_g_of_tiling(graph, eqfn, tiling)
        h = height_of_tiling(graph, weights, tiling).h
        assert reference_tiling_of_height(graph, eqfn, HeightFunction(graph, h)) == tiling
    sides = sorted({arc_axis_key(a) for a in grid_arcs(graph)})
    for _ in range(5):
        axes = Tiling(axes=frozenset(data.draw(st.lists(st.sampled_from(sides), max_size=8))))
        assert g_by_arc(graph, weights, axes) == reference_g_of_tiling(graph, eqfn, axes)
    h = height_of_tiling(graph, weights, data.draw(st.sampled_from(tilings))).h
    moved = dict(h)
    moved[data.draw(st.sampled_from(sorted(h)))] += data.draw(st.sampled_from([4, -4]))
    for heights in (h, moved):
        assert _decoded(graph, tiling_of_height, weights, heights) == _decoded(
            graph, reference_tiling_of_height, eqfn, heights
        )


@settings(max_examples=200, deadline=None)
@given(st.one_of(tileable_masks(), masked_figures(max_cells=24)))
def test_components_match_reference(figure):
    """forced_components against the Tarjan reference."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    assert_components_match_reference(graph, weights)


@settings(max_examples=100, deadline=None)
@given(st.one_of(tileable_masks(), masked_figures()))
def test_flip_path_matches_reference(figure):
    """flip_path on component heights against the sweep on height dicts,
    from the minimum to the maximum and back: the same flips in the same
    order."""
    _, graph, _, weights = pipeline_from_cells(figure.cells)
    try:
        hmin, _ = minimal_height(graph, weights)
    except Untileable:
        return
    hmax, _ = maximal_height(graph, weights)
    tiling = tiling_of_height(graph, weights, hmin)
    cg = forced_components(graph, weights, tiling)
    ref = reference_forced_components(graph, weights, tiling)
    for h1, h2 in ((hmin, hmax), (hmax, hmin)):
        assert flip_path(cg, weights, h1, h2) == reference_flip_path(ref, h1, h2)


@st.composite
def digraphs(draw, max_vertices=9):
    """(n, arcs, potential) on vertices 0..n-1, arcs without loops."""
    n = draw(st.integers(1, max_vertices))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = draw(st.lists(pairs.filter(lambda a: a[0] != a[1]), max_size=2 * n))
    return n, arcs, draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))


def symmetric_csr(n, arcs, potential):
    """The digraph as the figure graph stores G_T: every arc and its
    reverse in CSR arrays, with keep set on the digraph's arcs and t the
    potential's difference along each arc."""
    nbrs = [sorted({v for a in arcs for u, v in (a, a[::-1]) if u == w}) for w in range(n)]
    offsets = [0]
    for w in range(n):
        offsets.append(offsets[-1] + len(nbrs[w]))
    head = [v for w in range(n) for v in nbrs[w]]
    tails = [w for w in range(n) for _ in nbrs[w]]
    arc_id = {(u, v): k for k, (u, v) in enumerate(zip(tails, head))}
    graph = SimpleNamespace(
        vertices=range(n), offsets=offsets, head=head, rev=[arc_id[v, u] for u, v in arc_id]
    )
    weights = SimpleNamespace(t=[potential[v] - potential[u] for u, v in arc_id])
    return graph, weights, [a in set(arcs) for a in arc_id]


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_scc_matches_reference(digraph):
    """Kosaraju on the CSR arrays finds Tarjan's components, there are n
    of them exactly when the loop-free digraph has a topological order, and
    each vertex's height is the potential relative to its component's first
    vertex."""
    n, arcs, potential = digraph
    out = {}
    for u, v in arcs:
        out.setdefault(u, []).append(v)
    comps, height = _strong_components(*symmetric_csr(n, arcs, potential))
    assert {frozenset(c) for c in comps} == {frozenset(c) for c in tarjan_components(range(n), out)}
    assert sorted(v for c in comps for v in c) == list(range(n))
    assert all(height[v] == potential[v] - potential[c[0]] for c in comps for v in c)
    try:
        tuple(TopologicalSorter({v: [u for u, w in arcs if w == v] for v in range(n)}).static_order())
        acyclic = True
    except CycleError:
        acyclic = False
    assert (len(comps) == n) == acyclic


def pipeline_from_cells(cells):
    """Rebuild the standard pipeline from a cell set (bypassing text)."""
    figure = make_figure(cells)
    graph = build_graph(figure)
    eqfn, weights = build_equilibrium(graph)
    return figure, graph, eqfn, weights
