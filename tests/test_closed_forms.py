"""Closed forms for the Aztec diamond of order n (Elkies, Kuperberg,
Larsen and Propp, "Alternating-sign matrices and domino tilings", 1992):
2^(n(n+1)/2) tilings, the rank generating function
prod_{k<n} (1 + q^(2k+1))^(n-k), where a tiling's rank is its flip
distance from the minimal tiling, and so n(n+1)(2n+1)/6 flips from the
minimal tiling to the maximal one."""

from collections import Counter

import pytest

from tiler import pipeline
from tiler.components import forced_components, height_function
from tiler.flips import flip_distance
from tiler.generation import _draw_sample, count_tilings, enumerate_tilings
from tiler.lattice import maximal_height, minimal_height, prepare
from tiler.tiling import height_of_tiling, tiling_of_height

from .test_generation import chi2_sf, rank_bins

# The sampler's ranks on the Aztec diamond of order 6 (2^21 tilings, past
# what a test enumerates): seeds 0..499, alpha 0.001, bins merged by
# `rank_bins`; all three fixed before the first run.
SAMPLED_ORDER = 6
SAMPLED_SEEDS = range(500)
SAMPLED_ALPHA = 0.001


def aztec_diamond(n: int) -> str:
    """The figure text: rows of 2, 4, ..., 2n, 2n, ..., 4, 2 cells, centred."""
    widths = [2 * min(i + 1, 2 * n - i) for i in range(2 * n)]
    return "\n".join("." * (n - w // 2) + "#" * w + "." * (n - w // 2) for w in widths)


def rank_coefficients(n: int) -> list:
    """Coefficients of prod_{k<n} (1 + q^(2k+1))^(n-k), from q^0 up."""
    poly = [1]
    for k in range(n):
        for _ in range(n - k):
            shifted = [0] * (2 * k + 1) + poly
            poly = [a + b for a, b in zip(poly + [0] * (2 * k + 1), shifted)]
    return poly


def test_rank_coefficients():
    assert rank_coefficients(1) == [1, 1]
    assert rank_coefficients(2) == [1, 2, 1, 1, 2, 1]
    assert all(sum(rank_coefficients(n)) == 2 ** (n * (n + 1) // 2) for n in range(1, 8))


@pytest.mark.parametrize("n", range(1, 6))
def test_count(n):
    _, graph, _, weights = pipeline(aztec_diamond(n))
    assert count_tilings(graph, weights) == 2 ** (n * (n + 1) // 2)


@pytest.mark.parametrize("n", range(1, 31))
def test_min_max_flip_distance(n):
    _, graph, _, weights = pipeline(aztec_diamond(n))
    hmin, _ = minimal_height(graph, weights)
    hmax, _ = maximal_height(graph, weights)
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, hmin))
    assert flip_distance(hmin, hmax, cg) == n * (n + 1) * (2 * n + 1) // 6
    _, bottom, top = prepare(graph, weights)
    assert sum(top) - sum(bottom) == 4 * n * (n + 1) * (2 * n + 1) // 6


@pytest.mark.parametrize("n", range(1, 5))
def test_ranks_by_enumeration(n):
    _, graph, _, weights = pipeline(aztec_diamond(n))
    hmin, _ = minimal_height(graph, weights)
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, hmin))
    ranks = Counter(
        flip_distance(hmin, height_of_tiling(graph, weights, t), cg)
        for t in enumerate_tilings(graph, weights)
    )
    expected = rank_coefficients(n)
    assert [ranks[r] for r in range(len(expected))] == expected
    assert sum(ranks.values()) == sum(expected)


def test_sampled_ranks():
    # One `prepare` and one draw per seed, as `tiler sample -n K` draws.
    _, graph, _, weights = pipeline(aztec_diamond(SAMPLED_ORDER))
    prepared = prepare(graph, weights)
    cg, bottom, _ = prepared
    hmin = height_function(graph, cg, bottom)

    def rank(seed):
        tiling = _draw_sample(graph, weights, prepared, seed)
        return flip_distance(hmin, height_of_tiling(graph, weights, tiling), cg)

    seen = Counter(map(rank, SAMPLED_SEEDS))
    exact = dict(enumerate(rank_coefficients(SAMPLED_ORDER)))
    assert set(seen) <= set(exact)
    bins = rank_bins(exact, seen, len(SAMPLED_SEEDS))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    print(f"order {SAMPLED_ORDER}: chi-square {chi2:.1f}, {len(bins) - 1} degrees of freedom")
    assert chi2_sf(chi2, len(bins) - 1) > SAMPLED_ALPHA
