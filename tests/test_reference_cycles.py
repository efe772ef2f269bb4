"""No library call leaves cyclic garbage.  What a caller drops, a figure's
graph with its heights, tilings and components included, is then freed at
once by reference counting instead of waiting for the cyclic collector,
whose full collections walk everything still waiting."""

import gc
import itertools

import pytest

from tiler import (
    enumerate_tilings,
    flip_path,
    forced_components,
    maximal_height,
    minimal_height,
    parse_figure,
    pipeline,
    sample_uniform,
    tiling_of_height,
)
from tiler.generation import _draw_sample
from tiler.lattice import prepare
from tiler.oracle import brute_enumerate

from .conftest import CORPUS, COUNTS, built

TILEABLE = sorted(name for name in CORPUS if COUNTS.get(name) != 0)


def assert_no_cyclic_garbage(run):
    """Run once to fill one-time caches, then again with the collector off:
    a collection afterwards finds nothing to free."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", TILEABLE)
def test_extremal_sequence(name):
    def run():
        _, graph, _, weights = pipeline(CORPUS[name])
        lo, _ = minimal_height(graph, weights)
        hi, _ = maximal_height(graph, weights)
        tiling_of_height(graph, weights, hi)
        forced_components(graph, weights, tiling_of_height(graph, weights, lo))

    assert_no_cyclic_garbage(run)


def test_verbs():
    _, graph, _, weights = built("8x8-two-holes")
    lo, _ = minimal_height(graph, weights)
    hi, _ = maximal_height(graph, weights)
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, lo))
    assert_no_cyclic_garbage(lambda: list(itertools.islice(enumerate_tilings(graph, weights), 50)))
    assert_no_cyclic_garbage(lambda: sample_uniform(graph, weights, 0))
    assert_no_cyclic_garbage(lambda: _draw_sample(graph, weights, prepare(graph, weights), 0))
    assert_no_cyclic_garbage(lambda: flip_path(cg, weights, lo, hi))


def test_oracle():
    figure = parse_figure(CORPUS["4x4"])
    assert_no_cyclic_garbage(lambda: brute_enumerate(figure))


def test_deep_hole_chain():
    # 600 stacked domino holes run the cut-line equilibrium out of stack
    # (tests/test_cli.py); the failed call leaves no cycle either.
    text = "\n".join(["######", "#..###"] + ["######", "##..##"] * 600 + ["######"])

    def run():
        with pytest.raises(RecursionError):
            pipeline(text)

    assert_no_cyclic_garbage(run)
