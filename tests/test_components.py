"""Tiling graphs, forced components, critical cycles and orientations."""

import gc
import tracemalloc

import pytest

from tiler import components, pipeline
from tiler.components import (
    HOLE,
    INFINITY,
    SINGLE,
    component_heights,
    forced_components,
    height_function,
    is_critical,
    is_strongly_critical,
    quotient_edges,
    tiling_graph,
    to_orientation,
)
from tiler.errors import NotACycle
from tiler.generation import enumerate_tilings
from tiler.grid import GridVertex
from tiler.lattice import max_tiling, min_tiling, minimal_height
from tiler.tiling import height_of_tiling

from .conftest import COUNTS, built
from .stepwise import arc_t, assert_components_match_reference, grid_arcs


def components_of(name):
    _, graph, _, weights = built(name)
    return forced_components(graph, weights, min_tiling(graph, weights))


class TestTilingGraph:
    def test_contains_boundary_arcs(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        boundary_arcs = {a for a, b in zip(grid_arcs(graph), graph.boundary) if b}
        for tiling in enumerate_tilings(graph, weights):
            gt = tiling_graph(graph, weights, tiling)
            assert boundary_arcs <= gt

    def test_hole_contour_in_every_tiling_graph(self):
        for name in ("3x3-ring", "4x4-minus-2x2"):
            _, graph, _, weights = built(name)
            for tiling in enumerate_tilings(graph, weights):
                gt = tiling_graph(graph, weights, tiling)
                for hole in graph.holes:
                    c = hole.clockwise_contour
                    assert all((u, v) in gt for u, v in zip(c, c[1:]))

    def test_2x2_center(self):
        # The center of the 2x2 square: all four incident arcs leave it in
        # the tiling graph of the minimum, all four enter it for the maximum.
        _, graph, _, weights = built("2x2")
        center = GridVertex(1, 1)
        gt_min = tiling_graph(graph, weights, min_tiling(graph, weights))
        gt_max = tiling_graph(graph, weights, max_tiling(graph, weights))
        assert sum(1 for a in gt_min if a[0] == center) == 4
        assert sum(1 for a in gt_min if a[1] == center) == 0
        assert sum(1 for a in gt_max if a[1] == center) == 4


class TestForcedComponents:
    def test_tiling_independent(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        partitions = {
            forced_components(graph, weights, t).components
            for t in enumerate_tilings(graph, weights)
        }
        assert len(partitions) == 1

    def test_kinds_hole_free(self):
        for name in ("2x2", "2x4", "3x4", "4x4"):
            cg = components_of(name)
            assert cg.kinds[cg.infinity] == INFINITY
            assert all(
                k == SINGLE for i, k in enumerate(cg.kinds) if i != cg.infinity
            )

    def test_ring_hole_component(self):
        cg = components_of("3x3-ring")
        _, graph, _, _ = built("3x3-ring")
        holes = [i for i, k in enumerate(cg.kinds) if k == HOLE]
        assert len(holes) == 1
        contour = set(graph.holes[0].clockwise_contour)
        assert contour <= {graph.vertices[v] for v in cg.components[holes[0]]}

    def test_neighbors(self, corpus_name):
        # Each component pair that some figure arc joins is listed once at
        # each of its two components: as (j, c) at i and (i, 4 - c) at j.
        # Every figure arc from i to j gives that c: its t less the offsets
        # of its two ends.
        if COUNTS.get(corpus_name) == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(corpus_name)
        cg = components_of(corpus_name)
        comp = dict(zip(graph.vertices, cg.comp_of))
        offset = dict(zip(graph.vertices, cg.offset))
        listed = []
        for i, pairs in enumerate(cg.quotient):
            for j, c in pairs:
                assert i != j
                assert [p[0] for p in pairs].count(j) == 1
                assert cg.quotient[j].count((i, 4 - c)) == 1
                listed.append((i, j))
        joined = set()
        for (u, v), t in arc_t(graph, weights).items():
            i, j = comp[u], comp[v]
            if i != j:
                joined.add((i, j))
                assert (j, t - offset[v] + offset[u]) in cg.quotient[i]
        assert sorted(listed) == sorted(joined)

    def test_offsets_fix_every_tiling(self, enumerable_name):
        # A tiling's heights are its representatives' heights plus the
        # offsets, which do not depend on the tiling.
        _, graph, _, weights = built(enumerable_name)
        tilings = list(enumerate_tilings(graph, weights))
        if not tilings:
            pytest.skip("untileable figure")
        cg = forced_components(graph, weights, tilings[-1])
        for tiling in tilings:
            hf = height_of_tiling(graph, weights, tiling)
            assert height_function(graph, cg, component_heights(cg, hf)) == hf

    def test_matches_reference(self, corpus_name):
        if COUNTS.get(corpus_name) == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(corpus_name)
        assert_components_match_reference(graph, weights)

    @pytest.mark.parametrize(
        "text",
        [
            # 36x36 square less two single-cell holes of opposite colours.
            "\n".join(
                "".join("." if (x, y) in {(12, 18), (23, 18)} else "#" for x in range(36))
                for y in range(36)
            ),
            # 200 stacked domino holes and one more above them: the cut-line
            # chain of the top hole runs through all the others.
            "\n".join(["######", "#..###"] + ["######", "##..##"] * 200 + ["######"]),
        ],
        ids=["36x36-two-holes", "chain-200"],
    )
    def test_matches_reference_large(self, text):
        _, graph, _, weights = pipeline(text)
        assert_components_match_reference(graph, weights)

    def test_representatives_minimal(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        cg = components_of(enumerable_name)
        for comp, rep in zip(cg.components, cg.representatives):
            assert rep == min(comp)

    def test_rigidity(self, enumerable_name):
        # Height is tiling-independent at v iff v is in the infinity
        # component; representatives of other components move strictly.
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = components_of(enumerable_name)
        heights = [
            height_of_tiling(graph, weights, t)
            for t in enumerate_tilings(graph, weights)
        ]
        for i, v in enumerate(graph.vertices):
            rigid = len({h.h[v] for h in heights}) == 1
            assert rigid == (cg.comp_of[i] == cg.infinity)

    def test_arc_rigidity(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = components_of(enumerable_name)
        heights = [
            height_of_tiling(graph, weights, t)
            for t in enumerate_tilings(graph, weights)
        ]
        comp = dict(zip(graph.vertices, cg.comp_of))
        for u, v in grid_arcs(graph):
            rigid = len({h.h[v] - h.h[u] for h in heights}) == 1
            assert rigid == (comp[u] == comp[v])

    def test_min_max_differ_off_infinity(self, corpus_name):
        from tiler.errors import Untileable
        from tiler.lattice import maximal_height, minimal_height

        _, graph, _, weights = built(corpus_name)
        try:
            hmin, _ = minimal_height(graph, weights)
        except Untileable:
            return
        hmax, _ = maximal_height(graph, weights)
        cg = components_of(corpus_name)
        for i, rep in enumerate(cg.representatives):
            if i != cg.infinity:
                assert hmin.h[graph.vertices[rep]] != hmax.h[graph.vertices[rep]]


def _square_32():
    """A 32x32 square's graph, weights and minimal tiling, after one
    forced_components call, so one-time caches are not counted."""
    n = 32
    _, graph, _, weights = pipeline("\n".join(["#" * n] * n))
    tiling = min_tiling(graph, weights)
    forced_components(graph, weights, tiling)
    return graph, weights, tiling


def test_retained_memory():
    """What forced_components keeps for a 32x32 square, under tracemalloc:
    at most 0.43 KiB per cell, about 10% over the 0.39 measured under
    CPython 3.11 (0.60 when components were GridVertex sets and the quotient
    GridVertex triples).  Most of it is the quotient's (j, c) pairs."""
    graph, weights, tiling = _square_32()
    gc.collect()
    tracemalloc.start()
    try:
        cg = forced_components(graph, weights, tiling)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cg.comp_of) == len(graph.vertices)
    assert retained / 1024 / len(graph.figure) <= 0.43


def test_retained_gc_objects():
    """The objects forced_components keeps for a 32x32 square that the
    cyclic garbage collector tracks: 5 under CPython 3.11, 0.005 per vertex
    (5.4 per vertex when components were GridVertex sets).  They are the
    ComponentGraph, its comp_of and offset lists and the outer tuples of
    components and quotient; a collection untracks the inner tuples, which
    hold only ints.  At most 6, which leaves room for the instance dict
    that CPython before 3.11 allocates: nothing per vertex."""
    graph, weights, tiling = _square_32()
    gc.collect()
    before = len(gc.get_objects())
    cg = forced_components(graph, weights, tiling)
    assert gc.collect() == 0  # no cycle left behind
    retained = len(gc.get_objects()) - before
    assert len(cg.comp_of) == len(graph.vertices) > 1000
    assert retained <= 6


class TestCriticalCycles:
    def test_hole_contours_strongly_critical(self):
        for name in ("3x3-ring", "4x4-minus-2x2", "8x8-two-holes"):
            _, graph, _, weights = built(name)
            for hole in graph.holes:
                c = hole.clockwise_contour
                assert is_critical(graph, weights, c)
                assert is_strongly_critical(graph, weights, c)

    def test_outer_contour_critical_iff_balanced(self):
        # Clockwise outer contour: t(C) = sp(C) = 4 * (black - white).
        for name, critical in [("2x3", True), ("t-tetromino", False)]:
            _, graph, _, weights = built(name)
            cw = list(reversed(graph.outer_contour))
            assert is_critical(graph, weights, cw) == critical

    def test_cell_cycle_not_critical(self):
        _, graph, _, weights = built("2x2")
        assert not is_critical(graph, weights, graph.cell_cycle((0, 0)))

    def test_not_a_cycle(self):
        _, graph, _, weights = built("2x2")
        with pytest.raises(NotACycle):
            is_critical(graph, weights, graph.outer_contour[:-1])
        with pytest.raises(NotACycle):
            is_critical(
                graph, weights, [GridVertex(0, 0), GridVertex(5, 5), GridVertex(0, 0)]
            )


class TestOrientation:
    def test_injective_and_acyclic(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = components_of(enumerable_name)
        seen = set()
        for t in enumerate_tilings(graph, weights):
            h = height_of_tiling(graph, weights, t)
            o = to_orientation(cg, weights, h)  # asserts acyclicity
            assert o.arcs not in seen
            seen.add(o.arcs)

    def _reaches(self, arcs, sources, n):
        seen = set(sources)
        frontier = list(sources)
        while frontier:
            i = frontier.pop()
            for a, b in arcs:
                if a == i and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return seen

    def test_min_reaches_infinity(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = components_of(enumerable_name)
        from tiler.lattice import maximal_height, minimal_height

        hmin, _ = minimal_height(graph, weights)
        hmax, _ = maximal_height(graph, weights)
        n = len(cg.components)
        o_min = to_orientation(cg, weights, hmin)
        reversed_arcs = frozenset((b, a) for a, b in o_min.arcs)
        assert self._reaches(reversed_arcs, {cg.infinity}, n) == set(range(n))
        o_max = to_orientation(cg, weights, hmax)
        assert self._reaches(o_max.arcs, {cg.infinity}, n) == set(range(n))

    def test_cycle_trips_assertion(self, monkeypatch):
        """Point one 4-cycle of the quotient graph around the cycle: the
        acyclicity check must fire."""
        _, graph, _, weights = built("4x4")
        cg = components_of("4x4")
        edges = quotient_edges(cg)
        adj = {i: set() for i in range(len(cg.components))}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        cycle = next(
            (a, b, c, d)
            for a, b in edges
            for c in adj[b] - {a}
            for d in adj[c] - {a, b}
            if a in adj[d]
        )
        around = {(x, y) for x, y in zip(cycle, cycle[1:] + cycle[:1])}
        real = components.edge_direction

        def fake(heights, i, j, c):
            edge = real(heights, i, j, c)
            return edge[::-1] if edge[::-1] in around else edge

        monkeypatch.setattr(components, "edge_direction", fake)
        hmin, _ = minimal_height(graph, weights)
        with pytest.raises(AssertionError, match="orientation has a cycle"):
            to_orientation(cg, weights, hmin)
