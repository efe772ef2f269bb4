"""Generalized flips, flip distance against a BFS oracle, flip paths and
local flip connectivity."""

import itertools

import pytest

from tiler.components import HOLE, forced_components
from tiler.errors import FlipNotAvailable, TilerError
from tiler.flips import (
    DOWN,
    UP,
    Flip,
    apply_flip,
    available_flips,
    flip_distance,
    flip_path,
    local_flip_connected,
    local_flip_count,
)
from tiler.generation import enumerate_tilings
from tiler.lattice import compare, maximal_height, min_tiling, minimal_height
from tiler.tiling import height_of_tiling, tiling_of_height

from .conftest import COUNTS, ENUMERABLE, built
from .stepwise import assert_flips_match_status, reference_flip_path, reference_forced_components
from .theory import bfs_distance, generalized_flip_adjacency


def setting(name):
    _, graph, _, weights = built(name)
    tilings = list(enumerate_tilings(graph, weights))
    cg = forced_components(graph, weights, tilings[0])
    heights = [height_of_tiling(graph, weights, t) for t in tilings]
    return graph, weights, cg, heights


class TestAvailability:
    def test_2x2(self):
        graph, weights, cg, heights = setting("2x2")
        hmin, hmax = heights
        only_up = available_flips(cg, weights, hmin)
        only_down = available_flips(cg, weights, hmax)
        assert [f.direction for f in only_up] == [UP]
        assert [f.direction for f in only_down] == [DOWN]
        assert apply_flip(cg, weights, hmin, only_up[0]) == hmax

    def test_involution(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        graph, weights, cg, heights = setting(enumerable_name)
        for h in heights:
            for flip in available_flips(cg, weights, h):
                out = apply_flip(cg, weights, h, flip)
                back = Flip(flip.component, DOWN if flip.direction == UP else UP)
                assert apply_flip(cg, weights, out, back) == h

    def test_flip_changes_one_component(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        graph, weights, cg, heights = setting(enumerable_name)
        for h in heights:
            for flip in available_flips(cg, weights, h):
                out = apply_flip(cg, weights, h, flip)
                moved = {v for v in h.h if out.h[v] != h.h[v]}
                assert moved == {graph.vertices[v] for v in cg.components[flip.component]}
                shift = 4 if flip.direction == UP else -4
                assert all(out.h[v] - h.h[v] == shift for v in moved)
                tiling_of_height(graph, weights, out)  # stays valid

    def test_try_flip_matches_status(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        assert_flips_match_status(graph, weights)

    def test_not_available(self):
        graph, weights, cg, heights = setting("2x2")
        hmin = heights[0]
        (up,) = available_flips(cg, weights, hmin)
        with pytest.raises(FlipNotAvailable):
            apply_flip(cg, weights, hmin, Flip(up.component, DOWN))
        with pytest.raises(FlipNotAvailable):
            apply_flip(cg, weights, hmin, Flip(0, UP))

    @pytest.mark.parametrize(
        "component, direction",
        [
            (-5, UP), (-1, DOWN), (10, UP), (99, UP), ("5", UP), (None, DOWN),
            (5, "sideways"), (5, None),
        ],
    )
    def test_malformed_flip(self, component, direction):
        # A component outside 0..len-1 or a direction other than up and
        # down names no flip: none wraps around or acts as another flip.
        graph, weights, cg, heights = setting("4x4")
        assert len(cg.components) == 10
        for h in heights:
            with pytest.raises(FlipNotAvailable):
                apply_flip(cg, weights, h, Flip(component, direction))

    def test_hole_flip_moves_ring(self):
        # Flipping the hole component of the 2x2-holed ring rotates all the
        # dominoes around the hole at once.
        graph, weights, cg, heights = setting("4x4-minus-2x2")
        h1, h2 = heights
        (flip,) = available_flips(cg, weights, h1)
        assert cg.kinds[flip.component] == HOLE
        assert apply_flip(cg, weights, h1, flip) == h2
        t1 = tiling_of_height(graph, weights, h1)
        t2 = tiling_of_height(graph, weights, h2)
        assert len(set(t1.dominoes) & set(t2.dominoes)) == 0


class TestDistance:
    def test_equals_bfs_oracle(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        graph, weights, cg, heights = setting(enumerable_name)
        adj = generalized_flip_adjacency(graph, weights, cg, heights)
        for i, j in itertools.combinations(range(len(heights)), 2):
            d = flip_distance(heights[i], heights[j], cg)
            assert d == bfs_distance(adj, i, j)
            assert flip_distance(heights[j], heights[i], cg) == d

    def test_reachability_by_up_flips(self, enumerable_name):
        # Repeated Up flips from the minimum generate the whole tiling set.
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        graph, weights, cg, heights = setting(enumerable_name)
        frontier = [min(heights, key=lambda h: sum(h.h.values()))]
        seen = {tuple(sorted(frontier[0].h.items()))}
        while frontier:
            h = frontier.pop()
            for flip in available_flips(cg, weights, h):
                if flip.direction != UP:
                    continue
                out = apply_flip(cg, weights, h, flip)
                key = tuple(sorted(out.h.items()))
                if key not in seen:
                    seen.add(key)
                    frontier.append(out)
        assert len(seen) == len(heights)


class TestFlipPath:
    def test_empty_on_self(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        graph, weights, cg, heights = setting(enumerable_name)
        assert flip_path(cg, weights, heights[0], heights[0]) == []

    @pytest.mark.parametrize("name", ENUMERABLE + ["8x8-two-holes"])
    def test_replay_and_length(self, name):
        if name == "8x8-two-holes":
            # Too many tilings to enumerate; its min-max pairs (distance 67)
            # need several sweeps of the pending components.
            _, graph, _, weights = built(name)
            lo, _ = minimal_height(graph, weights)
            hi, _ = maximal_height(graph, weights)
            cg = forced_components(graph, weights, tiling_of_height(graph, weights, lo))
            assert flip_distance(lo, hi, cg) == 67
            pairs = [(lo, hi), (hi, lo)]
        elif COUNTS[name] == 0:
            pytest.skip("untileable figure")
        else:
            graph, weights, cg, heights = setting(name)
            pairs = itertools.permutations(heights, 2)
        for h1, h2 in pairs:
            path = flip_path(cg, weights, h1, h2)
            assert len(path) == flip_distance(h1, h2, cg)
            h = h1
            for flip in path:
                h = apply_flip(cg, weights, h, flip)
            assert h == h2

    def test_matches_reference(self, enumerable_name):
        # The same flips, in the same order, as the sweep on height dicts,
        # between every ordered pair of tilings.
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        graph, weights, cg, heights = setting(enumerable_name)
        ref = reference_forced_components(graph, weights, tiling_of_height(graph, weights, heights[0]))
        for h1, h2 in itertools.product(heights, repeat=2):
            assert flip_path(cg, weights, h1, h2) == reference_flip_path(ref, h1, h2)

    def test_comparable_pairs_use_up_only(self, enumerable_name):
        from tiler.lattice import OrderRelation

        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        graph, weights, cg, heights = setting(enumerable_name)
        for h1, h2 in itertools.permutations(heights, 2):
            if compare(h1, h2) == OrderRelation.LESS:
                path = flip_path(cg, weights, h1, h2)
                assert all(f.direction == UP for f in path)


class TestLocalFlips:
    def test_hole_free_always_connected(self):
        graph, weights, cg, heights = setting("3x4")
        for h1, h2 in itertools.combinations(heights, 2):
            assert local_flip_connected(graph, h1, h2)
            assert local_flip_count(graph, h1, h2) >= 1

    def test_2x2_single_local_flip(self):
        graph, weights, cg, heights = setting("2x2")
        assert local_flip_count(graph, *heights) == 1

    def test_ring_pair_not_connected(self):
        for name in ("3x3-ring", "4x4-minus-2x2"):
            graph, weights, cg, heights = setting(name)
            h1, h2 = heights
            assert not local_flip_connected(graph, h1, h2)
            assert flip_distance(h1, h2, cg) == 1
            with pytest.raises(TilerError):
                local_flip_count(graph, h1, h2)
