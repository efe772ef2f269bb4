"""The backtracking oracle itself: counts, hygiene, size cap, BFS helper."""

import pytest

from tiler.errors import TooLarge
from tiler.grid import parse_figure
from tiler.oracle import brute_enumerate

from .conftest import COUNTS, built
from .theory import Unreachable, bfs_distance


class TestBruteEnumerate:
    def test_corpus_counts(self, enumerable_name):
        fig, _, _, _ = built(enumerable_name)
        assert len(brute_enumerate(fig)) == COUNTS[enumerable_name]

    def test_2xn_fibonacci(self):
        # Tilings of a 2-wide column of height n follow the Fibonacci
        # recurrence: 1, 2, 3, 5, 8, 13, ...
        expect = [1, 2, 3, 5, 8, 13]
        for n, count in enumerate(expect, start=1):
            fig = parse_figure("\n".join(["##"] * n))
            assert len(brute_enumerate(fig)) == count

    def test_exact_cover(self):
        fig, _, _, _ = built("3x4")
        for tiling in brute_enumerate(fig):
            cells = [c for d in tiling for c in d]
            assert len(cells) == len(set(cells)) == len(fig)
            assert set(cells) == set(fig.cells)

    def test_sorted_canonical_output(self):
        fig, _, _, _ = built("2x3")
        tilings = brute_enumerate(fig)
        assert tilings == sorted(tilings)
        for tiling in tilings:
            assert list(tiling) == sorted(tiling)

    def test_cap(self):
        fig, _, _, _ = built("8x8-two-holes")
        with pytest.raises(TooLarge):
            brute_enumerate(fig)
        # An explicit larger cap is honored; 5x6 has 1183 tilings.
        big = parse_figure("\n".join(["#####"] * 6))
        assert len(brute_enumerate(big, cap=30)) == 1183

    def test_odd_figure(self):
        assert brute_enumerate(parse_figure("###")) == []


class TestBfsDistance:
    def test_basics(self):
        adj = [{1}, {0, 2}, {1}]
        assert bfs_distance(adj, 0, 0) == 0
        assert bfs_distance(adj, 0, 2) == 2

    def test_unreachable(self):
        adj = [set(), set()]
        with pytest.raises(Unreachable):
            bfs_distance(adj, 0, 1)
