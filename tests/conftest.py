"""Shared corpus of figures and cached per-figure pipelines."""

import sys

import pytest

from tiler import pipeline

CORPUS = {
    "1x2": "#\n#",
    "2x2": "##\n##",
    "2x3": "##\n##\n##",
    "2x4": "##\n##\n##\n##",
    "3x3-ring": "###\n#.#\n###",
    "3x4": "###\n###\n###\n###",
    "4x4": "####\n####\n####\n####",
    "4x4-minus-2x2": "####\n#..#\n#..#\n####",
    "8x8-two-holes": "\n".join(
        [
            "########",
            "########",
            "####.###",
            "########",
            "########",
            "##.#####",
            "########",
            "########",
        ]
    ),
    "t-tetromino": ".#.\n###",
    "l-tromino": "#.\n##",
}

# Figures small enough for exhaustive enumeration and all-pairs checks.
ENUMERABLE = [name for name in CORPUS if name != "8x8-two-holes"]

# Expected tiling counts, all confirmed by the backtracking oracle.
COUNTS = {
    "1x2": 1,
    "2x2": 2,
    "2x3": 3,
    "2x4": 5,
    "3x3-ring": 2,
    "3x4": 11,
    "4x4": 36,
    "4x4-minus-2x2": 2,
    "t-tetromino": 0,
    "l-tromino": 0,
}

_cache = {}


def record_calls(monkeypatch, fn):
    """The list of graphs `fn` is called with from now on, through every
    `tiler` module that holds it."""
    calls = []

    def recording(graph, *args):
        calls.append(graph)
        return fn(graph, *args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tiler" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, recording)
    return calls


def built(name):
    """(figure, graph, steps, weights) for a corpus figure, cached."""
    if name not in _cache:
        _cache[name] = pipeline(CORPUS[name])
    return _cache[name]


@pytest.fixture(params=sorted(CORPUS))
def corpus_name(request):
    return request.param


@pytest.fixture(params=ENUMERABLE)
def enumerable_name(request):
    return request.param
