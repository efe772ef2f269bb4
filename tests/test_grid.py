"""Parsing, coloring, contours, pinch duplication, spin and enclosed-cell
counts."""

import pytest

from tiler.errors import Empty, NotConnected, ParseError
from tiler.grid import Cell, GridVertex, build_graph, parse_figure

from .conftest import built
from .theory import (
    NotACycle,
    NotClockwise,
    arc_id,
    cell_arcs,
    closed_walk,
    contour_right_cells,
    cycle_spin,
    disequilibrium,
    grid_arcs,
    hole_cells,
    hole_of,
    is_black,
)


class TestParse:
    def test_empty(self):
        with pytest.raises(Empty):
            parse_figure("")
        with pytest.raises(Empty):
            parse_figure("..\n..")

    def test_ragged(self):
        with pytest.raises(ParseError):
            parse_figure("##\n#")

    def test_bad_characters(self):
        with pytest.raises(ParseError):
            parse_figure("#x\n##")

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            parse_figure("#.\n.#")
        with pytest.raises(NotConnected):
            parse_figure("##..\n##..\n..##\n..##")

    def test_orientation(self):
        # Top text row is the highest cell row.
        fig = parse_figure("#.\n##")
        assert fig.cells == {Cell(0, 0), Cell(1, 0), Cell(0, 1)}

    def test_coloring(self):
        assert is_black(Cell(0, 0))
        assert not is_black(Cell(1, 0))
        assert is_black(Cell(1, 1))


class TestBuildGraph:
    def test_2x2_counts(self):
        _, graph, _, _ = built("2x2")
        assert len(graph.vertices) == 9
        assert len(graph.head) == 24
        assert sum(graph.boundary) == 16
        assert graph.w0 == GridVertex(0, 0)
        assert len(graph.outer) == 8
        outer = closed_walk(graph, graph.outer)
        assert outer[0] == outer[-1] == graph.w0

    def test_arcs_paired(self, corpus_name):
        _, graph, _, _ = built(corpus_name)
        arcs = set(grid_arcs(graph))
        for u, v in arcs:
            assert (v, u) in arcs

    def test_ring_hole(self):
        _, graph, _, _ = built("3x3-ring")
        assert len(graph.holes) == 1
        hole = graph.holes[0]
        assert hole_cells(graph)[hole.id] == {Cell(1, 1)}
        assert len(hole.contour) == 4
        assert hole_of(graph, Cell(1, 1)) == 0
        assert hole_of(graph, Cell(-1, 0)) is None

    def test_8x8_holes(self):
        _, graph, _, _ = built("8x8-two-holes")
        cells = hole_cells(graph)
        assert {next(iter(cells[h.id])) for h in graph.holes} == {
            Cell(2, 2),
            Cell(4, 5),
        }

    def test_hole_numbering(self):
        # Holes are numbered in column-major order of their cells, the key
        # of the step values that `tiler eq` prints; each single-cell hole's
        # contour runs round its cell.
        graph = build_graph(parse_figure("######\n#.##.#\n######\n##.###\n######"))
        cells = hole_cells(graph)
        assert [contour_right_cells(graph, h.contour) for h in graph.holes] == [
            cells[h.id] for h in graph.holes
        ]
        assert [sorted(cells[h.id]) for h in graph.holes] == [
            [Cell(1, 3)],
            [Cell(2, 1)],
            [Cell(4, 3)],
        ]
        assert [h.id for h in graph.holes] == [0, 1, 2]
        for hole in graph.holes:
            assert all(hole_of(graph, c) == hole.id for c in cells[hole.id])

    def test_holes_match_flood(self, corpus_name):
        # One hole per finite complement component, numbered as the flood
        # numbers them: each contour has that component on its right.
        _, graph, _, _ = built(corpus_name)
        cells = hole_cells(graph)
        assert len(graph.holes) == len(cells)
        for hole in graph.holes:
            assert contour_right_cells(graph, hole.contour) <= cells[hole.id]

    def test_hole_contour_is_clockwise(self, corpus_name):
        # Shoelace area is negative for a clockwise walk.
        _, graph, _, _ = built(corpus_name)
        for hole in graph.holes:
            c = closed_walk(graph, hole.contour)
            area2 = sum(u.x * v.y - v.x * u.y for u, v in zip(c, c[1:]))
            assert area2 < 0

    def test_outer_contour_is_counterclockwise(self, corpus_name):
        _, graph, _, _ = built(corpus_name)
        c = closed_walk(graph, graph.outer)
        area2 = sum(u.x * v.y - v.x * u.y for u, v in zip(c, c[1:]))
        assert area2 > 0


class TestDuplication:
    def test_pinch_vertex_split(self):
        graph = build_graph(parse_figure(".##\n#.#\n###"))
        copies = {v for v in graph.vertices if (v.x, v.y) == (1, 2)}
        assert copies == {GridVertex(1, 2, 0), GridVertex(1, 2, 1)}
        # Each copy keeps exactly two incident undirected edges.
        for v in copies:
            i = graph.vertices.index(v)
            assert graph.offsets[i + 1] - graph.offsets[i] == 2

    def test_hole_pinch(self):
        # A single hole of two diagonal cells pinching at (2, 2).
        graph = build_graph(parse_figure("###.\n#.##\n##.#\n.###"))
        assert len(graph.holes) == 1
        assert [v for v in graph.vertices if v.copy == 1] == [GridVertex(2, 2, 1)]

    def test_no_duplication_without_pinch(self, corpus_name):
        _, graph, _, _ = built(corpus_name)
        assert all(v.copy == 0 for v in graph.vertices)

    def test_full_degree_vertices_have_interior_edges(self, corpus_name):
        # A degree-4 vertex with only boundary edges would be a missed pinch.
        _, graph, _, _ = built(corpus_name)
        off = graph.offsets
        for u in range(len(graph.vertices)):
            arcs_out = range(off[u], off[u + 1])
            if len(arcs_out) == 4:
                assert not all(graph.boundary[k] for k in arcs_out)


class TestSpin:
    def test_skew_symmetric(self, corpus_name):
        _, graph, _, _ = built(corpus_name)
        for u, v in grid_arcs(graph):
            assert graph.spin[arc_id(graph, u, v)] == -graph.spin[arc_id(graph, v, u)]

    def test_cell_cycle_spin(self, corpus_name):
        # Clockwise around one cell: spin 4 on a black cell, -4 on a white.
        fig, graph, _, _ = built(corpus_name)
        for cell in fig.cells:
            expected = 4 if is_black(cell) else -4
            assert cycle_spin(closed_walk(graph, cell_arcs(graph, cell))) == expected

    def test_spin_counts_enclosed_cells(self, corpus_name):
        # sp(C) = 4 * Dis(C) on every face cycle.  Around each hole, the
        # spin `step_values` reads off `graph.spin` is the geometric one.
        fig, graph, _, _ = built(corpus_name)
        for cell in fig.cells:
            cyc = closed_walk(graph, cell_arcs(graph, cell))
            assert cycle_spin(cyc) == 4 * disequilibrium(fig, cyc)
        for hole in graph.holes:
            c = hole.contour
            assert sum(graph.spin[k] for k in c) == cycle_spin(closed_walk(graph, c))

    def test_spin_on_outer_contour(self):
        # Hole-free figures: clockwise outer contour spin counts the color
        # imbalance of the whole figure.
        for name in ("2x2", "2x3", "3x4", "t-tetromino"):
            fig, graph, _, _ = built(name)
            cw = list(reversed(closed_walk(graph, graph.outer)))
            assert cycle_spin(cw) == 4 * disequilibrium(fig, cw)

    def test_hole_contour_spin(self):
        _, graph, _, _ = built("3x3-ring")
        # The ring's hole cell (1, 1) is black, so the clockwise hole contour
        # has spin 4 even though it encloses no figure cell.
        assert cycle_spin(closed_walk(graph, graph.holes[0].contour)) == 4


class TestDisequilibrium:
    def test_balanced_rectangle(self):
        fig, graph, _, _ = built("2x3")
        cw = list(reversed(closed_walk(graph, graph.outer)))
        assert disequilibrium(fig, cw) == 0

    def test_t_tetromino_imbalance(self):
        fig, graph, _, _ = built("t-tetromino")
        cw = list(reversed(closed_walk(graph, graph.outer)))
        assert disequilibrium(fig, cw) == 2

    def test_hole_contour_encloses_nothing(self):
        fig, graph, _, _ = built("3x3-ring")
        assert disequilibrium(fig, closed_walk(graph, graph.holes[0].contour)) == 0

    def test_not_closed(self):
        fig, graph, _, _ = built("2x2")
        with pytest.raises(NotACycle):
            disequilibrium(fig, closed_walk(graph, graph.outer)[:-1])

    def test_not_clockwise(self):
        fig, graph, _, _ = built("2x2")
        with pytest.raises(NotClockwise):
            disequilibrium(fig, closed_walk(graph, graph.outer))
