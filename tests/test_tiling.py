"""Tiling validation, the height bijection and its invariants."""

import dataclasses
import random

import pytest

from tiler.errors import (
    DominoOutsideFigure,
    Gap,
    InconsistentCycle,
    NotADomino,
    NotAHeightFunction,
    Overlap,
    TilerError,
)
from tiler.generation import enumerate_tilings
from tiler.grid import build_graph
from tiler.lattice import min_tiling
from tiler.tiling import (
    HeightFunction,
    Tiling,
    axis_cells,
    domino_axis,
    height_of_tiling,
    tiling_of_height,
    validate_tiling,
)

from .conftest import built
from .stepwise import grid_arcs
from .test_equilibrium import perturbed


def enumerated_heights(name):
    _, graph, _, weights = built(name)
    return [
        height_of_tiling(graph, weights, t)
        for t in enumerate_tilings(graph, weights)
    ]


class TestAxes:
    def test_axis_round_trip(self):
        for cells in [((0, 0), (1, 0)), ((3, 2), (3, 3))]:
            axis = domino_axis(*cells)
            assert tuple(sorted(axis_cells(axis))) == tuple(sorted(cells))

    def test_non_adjacent_cells(self):
        with pytest.raises(ValueError):
            domino_axis((0, 0), (2, 0))


class TestValidateTiling:
    def test_overlap(self):
        _, graph, _, _ = built("2x2")
        with pytest.raises(Overlap):
            validate_tiling(graph, [((0, 0), (0, 1)), ((0, 1), (1, 1))])

    def test_gap(self):
        _, graph, _, _ = built("2x2")
        with pytest.raises(Gap):
            validate_tiling(graph, [((0, 0), (0, 1))])

    def test_outside(self):
        _, graph, _, _ = built("2x2")
        with pytest.raises(DominoOutsideFigure):
            validate_tiling(graph, [((0, 0), (0, 1)), ((1, 1), (2, 1))])

    @pytest.mark.parametrize(
        "pair", [((0, 0), (1, 1)), ((0, 0), (0, 0))], ids=["diagonal", "same-cell"]
    )
    def test_not_a_domino(self, pair):
        _, graph, _, _ = built("2x2")
        with pytest.raises(NotADomino) as err:
            validate_tiling(graph, [pair, ((1, 0), (0, 1))])
        assert isinstance(err.value, TilerError)


class TestSharedSides:
    """validate_tiling interns axes in graph.sides, so every tiling of a
    figure holds the same tuple for the same cell side."""

    def test_validations_share_axes(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        for tiling in enumerate_tilings(graph, weights):
            again = validate_tiling(graph, tiling.dominoes)
            decoded = tiling_of_height(
                graph, weights, height_of_tiling(graph, weights, again)
            )
            held = {a: a for a in tiling.axes}
            for other in (again, decoded):
                assert all(held[a] is a for a in other.axes)
            assert all(graph.sides[a] is a for a in tiling.axes)

    def test_equal_to_fresh_tuples(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        for tiling in enumerate_tilings(graph, weights):
            fresh = Tiling(
                frozenset(tuple(tuple(list(p)) for p in a) for a in tiling.axes)
            )
            assert not any(graph.sides.get(a) is a for a in fresh.axes)
            assert fresh == tiling
            assert hash(fresh) == hash(tiling)

    def test_graph_equality_ignores_sides(self):
        figure, graph, _, weights = built("4x4")
        list(enumerate_tilings(graph, weights))
        fresh = build_graph(figure)
        assert graph.sides and not fresh.sides
        assert fresh == graph
        assert repr(fresh) == repr(graph)


class TestHeightBijection:
    def test_round_trip(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        for tiling in enumerate_tilings(graph, weights):
            h = height_of_tiling(graph, weights, tiling)
            assert tiling_of_height(graph, weights, h) == tiling
            assert h.h[graph.w0] == 0

    def test_not_a_height_function(self):
        _, graph, _, weights = built("2x2")
        (h,) = enumerated_heights("2x2")[:1]
        bad = dict(h.h)
        v = next(u for u in bad if u != graph.w0)
        bad[v] += 1
        with pytest.raises(NotAHeightFunction) as err:
            tiling_of_height(graph, weights, HeightFunction(graph, bad))
        # The message names the offending arc by its GridVertex ends.
        named = [a for a in grid_arcs(graph) if repr(a) in str(err.value)]
        assert len(named) == 1 and v in named[0]

    def test_injective(self, enumerable_name):
        heights = enumerated_heights(enumerable_name)
        seen = [tuple(sorted(h.h.items())) for h in heights]
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("edit", ["minus-axis", "plus-boundary-side", "empty"])
    def test_inconsistent_cycle(self, edit):
        # Axis sets that are not tilings, built directly and so never
        # validated: g_T sums to a nonzero value around some cycle.
        _, graph, _, weights = built("4x4")
        axes = min_tiling(graph, weights).axes
        if edit == "minus-axis":
            axes = axes - {min(axes)}
        elif edit == "plus-boundary-side":
            axes = axes | {((0, 0), (1, 0))}
        else:
            axes = frozenset()
        with pytest.raises(InconsistentCycle) as err:
            height_of_tiling(graph, weights, Tiling(axes=axes))
        assert len([a for a in grid_arcs(graph) if repr(a) in str(err.value)]) == 1


class TestHeightInvariants:
    def test_mod4(self, enumerable_name):
        heights = enumerated_heights(enumerable_name)
        for i, h1 in enumerate(heights):
            for h2 in heights[i + 1 :]:
                assert all((x - h2.h[v]) % 4 == 0 for v, x in h1.h.items())

    def test_boundary_rigidity(self, enumerable_name):
        _, graph, _, _ = built(enumerable_name)
        heights = enumerated_heights(enumerable_name)
        for h in heights[1:]:
            # g_T is tiling-independent on every boundary arc, and heights
            # agree outright along the outer contour (anchored at w0).
            for (u, v), boundary in zip(grid_arcs(graph), graph.boundary):
                if boundary:
                    assert h.h[v] - h.h[u] == heights[0].h[v] - heights[0].h[u]
            for v in graph.outer_contour:
                assert h.h[v] == heights[0].h[v]

    def test_difference_steps(self, enumerable_name):
        _, graph, _, _ = built(enumerable_name)
        heights = enumerated_heights(enumerable_name)
        for i, h1 in enumerate(heights):
            for h2 in heights[i + 1 :]:
                for u, v in grid_arcs(graph):
                    d1 = h1.h[v] - h1.h[u]
                    d2 = h2.h[v] - h2.h[u]
                    assert d1 - d2 in (-4, 0, 4)

    def test_equilibrium_choice_irrelevant(self):
        # Heights built from a second valid equilibrium function differ from
        # the first by one figure-wide offset function, so all pairwise
        # height differences coincide.
        for name in ("2x3", "3x3-ring", "4x4-minus-2x2"):
            _, graph, eqfn, weights = built(name)
            eqfn2 = perturbed(graph, eqfn, random.Random(7))
            # t is eq plus a fixed per-arc term, so it moves with eq.
            weights2 = dataclasses.replace(
                weights, t=[x + eqfn2(a) - eqfn(a) for a, x in zip(grid_arcs(graph), weights.t)]
            )
            tilings = list(enumerate_tilings(graph, weights))
            hs1 = [height_of_tiling(graph, weights, t) for t in tilings]
            hs2 = [height_of_tiling(graph, weights2, t) for t in tilings]
            for a1, a2 in zip(hs1, hs2):
                for b1, b2 in zip(hs1, hs2):
                    diff1 = {v: a1.h[v] - b1.h[v] for v in a1.h}
                    diff2 = {v: a2.h[v] - b2.h[v] for v in a2.h}
                    assert diff1 == diff2
