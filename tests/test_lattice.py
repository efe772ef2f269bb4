"""Lattice operations, order, distance and the min/max worklist algorithms."""

import itertools

import pytest

from tiler import pipeline
from tiler.components import forced_components
from tiler.errors import DifferentFigures, Untileable
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

from .conftest import CORPUS, COUNTS, ENUMERABLE, built
from .stepwise import outcome, stepwise_extremal_height
from .theory import closed_walk

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


class TestUntileable:
    """Each way the relaxation finds no tiling raises Untileable, not
    AssertionError, and names the vertex."""

    def _named_vertex(self, text, sign):
        """The vertex the Untileable message names, checking the reference
        agrees on the verdict."""
        _, graph, _, weights = pipeline(text)
        extremal = minimal_height if sign > 0 else maximal_height
        with pytest.raises(Untileable) as err:
            extremal(graph, weights)
        assert outcome(stepwise_extremal_height, graph, weights, sign) == "untileable"
        named = [v for v in graph.vertices if repr(v) in str(err.value)]
        assert len(named) == 1
        return graph, named[0]

    @pytest.mark.parametrize("sign", [1, -1], ids=["min", "max"])
    def test_frozen_vertex_must_move(self, sign):
        # Balanced, but both ends of each bar need the bar's middle cell; an
        # outer contour vertex is the first to be forced to move.
        graph, v = self._named_vertex("###\n.#.\n.#.\n###", sign)
        assert v in closed_walk(graph, graph.outer)

    def test_free_vertex_past_bound(self):
        # Balanced but untileable: an interior vertex of the spine is pushed
        # past its upper bound before any boundary vertex has to move.
        graph, v = self._named_vertex(".##.#\n#####\n.#..#", 1)
        assert v not in closed_walk(graph, graph.outer)

    @pytest.mark.parametrize("sign", [1, -1], ids=["min", "max"])
    @pytest.mark.parametrize("text", ["###", CORPUS["l-tromino"]], ids=["1x3", "l-tromino"])
    def test_outer_contour_contradicts(self, text, sign):
        # Unbalanced: t summed around the outer contour is not 0, so the
        # contour comes back to its first vertex at another height.  The
        # message names that vertex and both heights.
        graph, v = self._named_vertex(text, sign)
        assert v == graph.w0
        _, graph, _, weights = pipeline(text)
        closing = sum(weights.t[k] for k in graph.outer)
        assert closing != 0
        extremal = minimal_height if sign > 0 else maximal_height
        with pytest.raises(Untileable, match=f"at height {closing}, not 0$"):
            extremal(graph, weights)
