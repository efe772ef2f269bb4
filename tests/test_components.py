"""Tiling graphs, forced components, critical cycles and orientations."""

import pytest

from tiler import components, pipeline
from tiler.components import (
    HOLE,
    INFINITY,
    SINGLE,
    forced_components,
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
from .stepwise import assert_components_match_reference


def components_of(name):
    _, graph, _, weights = built(name)
    return forced_components(graph, weights, min_tiling(graph, weights))


class TestTilingGraph:
    def test_contains_boundary_arcs(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        for tiling in enumerate_tilings(graph, weights):
            gt = tiling_graph(graph, weights, tiling)
            assert graph.boundary_arcs <= gt

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
        assert contour <= cg.components[holes[0]]

    def test_neighbors(self, corpus_name):
        # Each component pair that some figure arc joins is listed once at
        # each of its two components, as one such arc out of that component
        # with its t; the other component lists the reverse arc.
        if COUNTS.get(corpus_name) == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(corpus_name)
        cg = components_of(corpus_name)
        pairs = {(cg.comp_of[u], cg.comp_of[v]) for u, v in graph.arcs}
        listed = []
        for i, arcs in enumerate(cg.neighbors):
            for u, v, t in arcs:
                j = cg.comp_of[v]
                assert cg.comp_of[u] == i != j
                assert t == weights.t[graph.arc_id(u, v)]
                assert [a[:2] for a in cg.neighbors[j]].count((v, u)) == 1
                listed.append((i, j))
        assert sorted(listed) == sorted((i, j) for i, j in pairs if i != j)

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
        for v in graph.vertices:
            rigid = len({h.h[v] for h in heights}) == 1
            assert rigid == (cg.comp_of[v] == cg.infinity)

    def test_arc_rigidity(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = components_of(enumerable_name)
        heights = [
            height_of_tiling(graph, weights, t)
            for t in enumerate_tilings(graph, weights)
        ]
        for u, v in graph.arcs:
            rigid = len({h.h[v] - h.h[u] for h in heights}) == 1
            assert rigid == (cg.comp_of[u] == cg.comp_of[v])

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
                assert hmin.h[rep] != hmax.h[rep]


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

        def fake(cg, h, arc):
            edge = real(cg, h, arc)
            return edge[::-1] if edge[::-1] in around else edge

        monkeypatch.setattr(components, "edge_direction", fake)
        hmin, _ = minimal_height(graph, weights)
        with pytest.raises(AssertionError, match="orientation has a cycle"):
            to_orientation(cg, weights, hmin)
