"""Lattice operations, order, distance and the min/max worklist algorithms."""

import itertools

import pytest

from tiler import generation
from tiler.components import forced_components
from tiler.errors import DifferentFigures, Untileable
from tiler.grid import GridVertex
from tiler.generation import enumerate_tilings
from tiler.lattice import (
    OrderRelation,
    compare,
    delta,
    inf,
    max_tiling,
    maximal_height,
    min_tiling,
    minimal_height,
    sup,
)
from tiler.oracle import brute_enumerate
from tiler.tiling import height_of_tiling, tiling_of_height

from .conftest import COUNTS, ENUMERABLE, built
from .stepwise import outcome, stepwise_extremal_height

TRIPLE_CAP = 10_000


def enumerated_heights(name):
    _, graph, _, weights = built(name)
    return [
        height_of_tiling(graph, weights, t)
        for t in enumerate_tilings(graph, weights)
    ]


class TestLatticeLaws:
    def test_inf_sup_closure(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        heights = enumerated_heights(enumerable_name)
        for h1, h2 in itertools.combinations(heights, 2):
            for h in (inf(h1, h2), sup(h1, h2)):
                tiling_of_height(graph, weights, h)  # must be a valid height

    def test_idempotent_commutative(self, enumerable_name):
        heights = enumerated_heights(enumerable_name)
        for h1, h2 in itertools.combinations(heights, 2):
            assert inf(h1, h1) == h1 and sup(h1, h1) == h1
            assert inf(h1, h2) == inf(h2, h1)
            assert sup(h1, h2) == sup(h2, h1)

    def test_absorption(self, enumerable_name):
        heights = enumerated_heights(enumerable_name)
        for h1, h2 in itertools.combinations(heights, 2):
            assert sup(h1, inf(h1, h2)) == h1
            assert inf(h1, sup(h1, h2)) == h1

    def test_associative_distributive(self, enumerable_name):
        heights = enumerated_heights(enumerable_name)
        triples = itertools.islice(
            itertools.combinations(heights, 3), TRIPLE_CAP
        )
        for h1, h2, h3 in triples:
            assert inf(inf(h1, h2), h3) == inf(h1, inf(h2, h3))
            assert sup(sup(h1, h2), h3) == sup(h1, sup(h2, h3))
            assert inf(h1, sup(h2, h3)) == sup(inf(h1, h2), inf(h1, h3))


class TestCompare:
    def test_2x2(self):
        heights = enumerated_heights("2x2")
        assert len(heights) == 2
        assert compare(heights[0], heights[1]) == OrderRelation.LESS
        assert compare(heights[1], heights[0]) == OrderRelation.GREATER
        assert compare(heights[0], heights[0]) == OrderRelation.EQUAL
        # Their center values bracket inf and sup.
        lo, hi = inf(*heights), sup(*heights)
        assert lo == heights[0] and hi == heights[1]

    def test_incomparable(self):
        heights = enumerated_heights("3x4")
        assert any(
            compare(h1, h2) == OrderRelation.INCOMPARABLE
            for h1, h2 in itertools.combinations(heights, 2)
        )

    def test_different_figures(self):
        h1 = enumerated_heights("2x2")[0]
        h2 = enumerated_heights("2x3")[0]
        with pytest.raises(DifferentFigures):
            compare(h1, h2)
        with pytest.raises(DifferentFigures):
            inf(h1, h2)


class TestDelta:
    def test_zero_on_self(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = forced_components(graph, weights, min_tiling(graph, weights))
        for h in enumerated_heights(enumerable_name):
            assert delta(h, h, cg) == 0

    def test_2x2_pair(self):
        _, graph, _, weights = built("2x2")
        cg = forced_components(graph, weights, min_tiling(graph, weights))
        h1, h2 = enumerated_heights("2x2")
        assert delta(h1, h2, cg) == 4

    def test_triangle_equality_through_inf(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = forced_components(graph, weights, min_tiling(graph, weights))
        heights = enumerated_heights(enumerable_name)
        for h1, h2 in itertools.combinations(heights, 2):
            lo = inf(h1, h2)
            assert delta(h1, h2, cg) == delta(h1, lo, cg) + delta(lo, h2, cg)


class TestMinMax:
    def test_extremes_bound_all_tilings(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        hmin, _ = minimal_height(graph, weights)
        hmax, _ = maximal_height(graph, weights)
        for h in enumerated_heights(enumerable_name):
            assert compare(hmin, h) in (OrderRelation.LESS, OrderRelation.EQUAL)
            assert compare(h, hmax) in (OrderRelation.LESS, OrderRelation.EQUAL)

    def test_extremes_are_pointwise(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        hmin, _ = minimal_height(graph, weights)
        hmax, _ = maximal_height(graph, weights)
        heights = enumerated_heights(enumerable_name)
        for v in hmin.h:
            assert hmin.h[v] == min(h.h[v] for h in heights)
            assert hmax.h[v] == max(h.h[v] for h in heights)

    def test_unique_tiling_min_equals_max(self):
        _, graph, _, weights = built("1x2")
        assert min_tiling(graph, weights) == max_tiling(graph, weights)

    def test_8x8_min_below_max(self):
        _, graph, _, weights = built("8x8-two-holes")
        hmin, _ = minimal_height(graph, weights)
        hmax, _ = maximal_height(graph, weights)
        assert compare(hmin, hmax) == OrderRelation.LESS
        tiling_of_height(graph, weights, hmin)
        tiling_of_height(graph, weights, hmax)

    def test_pass_bound(self, corpus_name):
        fig, graph, _, weights = built(corpus_name)
        n = len(fig)
        try:
            _, passes_min = minimal_height(graph, weights)
            _, passes_max = maximal_height(graph, weights)
        except Untileable:
            return
        assert passes_min <= n * n
        assert passes_max <= n * n

    @pytest.mark.parametrize(
        "name, passes", [("4x4", (3, 5)), ("3x4", (0, 3)), ("8x8-two-holes", (59, 63))]
    )
    def test_pinned_pass_counts(self, name, passes):
        _, graph, _, weights = built(name)
        _, passes_min = minimal_height(graph, weights)
        _, passes_max = maximal_height(graph, weights)
        assert (passes_min, passes_max) == passes

    def test_untileable_iff_oracle_empty(self):
        for name in ENUMERABLE:
            fig, graph, _, weights = built(name)
            oracle_empty = not brute_enumerate(fig)
            try:
                min_tiling(graph, weights)
                max_tiling(graph, weights)
                assert not oracle_empty
            except Untileable:
                assert oracle_empty

    def test_untileable_balanced_figure(self):
        # As many black as white cells, yet untileable: the teeth force
        # vertical dominoes that strand two separated cells in the spine.
        from tiler import pipeline

        _, graph, _, weights = pipeline(".#..#\n#####\n..#..")
        fig = graph.figure
        assert sum(1 for c in fig.cells if (c.x + c.y) % 2 == 0) * 2 == len(
            fig
        )
        assert brute_enumerate(fig) == []
        with pytest.raises(Untileable):
            min_tiling(graph, weights)


class TestPinnedRelaxation:
    def test_enumeration_calls_match_stepwise(self, enumerable_name, monkeypatch):
        """Every minimal_height call enumerate_tilings makes, pinned or not,
        gives the same heights and pass count as the ±4 reference."""
        _, graph, _, weights = built(enumerable_name)
        calls = []

        def recording(graph, weights, pinned=None):
            calls.append(pinned)
            return minimal_height(graph, weights, pinned=pinned)

        monkeypatch.setattr(generation, "minimal_height", recording)
        assert sum(1 for _ in enumerate_tilings(graph, weights)) == COUNTS[enumerable_name]
        assert len(calls) == max(COUNTS[enumerable_name], 1)
        for pinned in calls:
            assert outcome(minimal_height, graph, weights, pinned=pinned) == outcome(
                stepwise_extremal_height, graph, weights, 1, pinned
            )

    def _raises_at(self, name, pin, value):
        """Pin `pin` at `value` and return the vertex the Untileable
        message names, checking the reference agrees on the verdict."""
        _, graph, _, weights = built(name)
        pinned = {pin: value}
        with pytest.raises(Untileable) as err:
            minimal_height(graph, weights, pinned=pinned)
        assert outcome(stepwise_extremal_height, graph, weights, 1, pinned) == "untileable"
        named = [v for v in graph.vertices if repr(v) in str(err.value)]
        assert len(named) == 1
        return graph, named[0]

    def test_pin_moves_frozen_vertex(self):
        # The 2x2 center's maximum is 2; at 6 its boundary neighbours, which
        # are frozen, would have to rise.
        graph, v = self._raises_at("2x2", GridVertex(1, 1), 6)
        assert v in graph.outer_contour

    def test_pin_below_its_minimum(self):
        # The 2x2 center's minimum is -2; at -6 the pinned vertex itself
        # would have to rise.
        _, v = self._raises_at("2x2", GridVertex(1, 1), -6)
        assert v == GridVertex(1, 1)

    def test_pin_pushes_free_vertex_past_bound(self):
        # The 4x4 center's maximum is 4; pinned at 44 it forces a free
        # neighbour far past its bound in one relaxation.
        graph, v = self._raises_at("4x4", GridVertex(2, 2), 44)
        assert v in graph.adjacency[GridVertex(2, 2)]
        assert v not in graph.outer_contour
