"""Exhaustive generation in lexicographic order and exact uniform sampling
by monotone coupling from the past."""

from __future__ import annotations

import struct

# The same type as hashlib.blake2b; importing hashlib would also load
# OpenSSL (_hashlib), several MB of resident memory that is never used.
from _blake2 import blake2b

from .components import ComponentGraph, forced_components
from .equilibrium import ArcWeights
from .errors import NotTileable, Untileable
from .flips import DOWN, UP, try_flip_inplace
from .grid import FigureGraph
from .lattice import maximal_height, minimal_height
from .tiling import HeightFunction, tiling_of_height

WINDOW_CAP = 2**32


def component_order(cg: ComponentGraph):
    """Fixed total order of the non-infinity components, by representative.

    `forced_components` sorts the components by their least vertex, which is
    the representative, so index order is representative order.
    """
    return [i for i in range(len(cg.components)) if i != cg.infinity]


def _lex_heights(graph: FigureGraph, weights: ArcWeights):
    """Yield the height dict of every tiling in lexicographic order; it is
    one dict, updated in place after each yield.

    The successor raises the last component in `component_order` that admits
    an upward flip, then flips later components down until none can move.
    The tilings that agree with it up to the raised component form a convex
    sublattice whose covering relations are flips of the later components,
    so this reaches that sublattice's minimum, the lexicographic successor.
    """
    try:
        hf, _ = minimal_height(graph, weights)
    except Untileable:
        return
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, hf))
    order = component_order(cg)
    h = hf.h
    yield h
    while True:
        for pos in range(len(order) - 1, -1, -1):
            if try_flip_inplace(cg, h, order[pos], UP):
                break
        else:
            return
        free = order[pos + 1 :]
        moved = True
        while moved:
            moved = False
            for i in free:
                if try_flip_inplace(cg, h, i, DOWN):
                    moved = True
        yield h


def enumerate_tilings(graph: FigureGraph, weights: ArcWeights):
    """Yield every tiling, starting at the minimum, in lexicographic order.

    One minimal-height relaxation per figure; each successor is then reached
    by flips (see `_lex_heights`) and decoded.
    """
    for h in _lex_heights(graph, weights):
        yield tiling_of_height(graph, weights, HeightFunction(graph, h))


def count_tilings(graph: FigureGraph, weights: ArcWeights) -> int:
    """Number of tilings, by walking the enumeration's heights undecoded."""
    return sum(1 for _ in _lex_heights(graph, weights))


def plan_update(seed: int, when: int, q: int):
    """Deterministic update for time -when: (component position, direction).

    Counter-based so the update at a given past time never changes as the
    window grows, which is what makes coupling from the past exact.
    """
    digest = blake2b(
        struct.pack("<QQ", seed & (2**64 - 1), when), digest_size=16
    ).digest()
    u = int.from_bytes(digest, "little")
    return (u >> 1) % q, UP if u & 1 else DOWN


def _prepare_sampler(graph: FigureGraph, weights: ArcWeights):
    """What every sample of a figure shares: (min heights, max heights,
    forced components, component order); the last two are None when the
    figure has a single tiling."""
    try:
        hmin, _ = minimal_height(graph, weights)
    except Untileable as exc:
        raise NotTileable(str(exc)) from exc
    hmax, _ = maximal_height(graph, weights)
    if hmin.h == hmax.h:
        return hmin, hmax, None, None
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, hmin))
    return hmin, hmax, cg, component_order(cg)


def _draw_sample(graph: FigureGraph, weights: ArcWeights, prepared, seed: int):
    """The CFTP sample of one seed from `_prepare_sampler`'s result.

    After each update the lower chain must stay below the upper one; only
    the updated component moved, so only its vertices are checked.
    """
    hmin, hmax, cg, order = prepared
    if cg is None:
        return tiling_of_height(graph, weights, hmin)
    q = len(order)
    window = 1
    while window <= WINDOW_CAP:
        lo = dict(hmin.h)
        hi = dict(hmax.h)
        for when in range(window, 0, -1):
            pos, direction = plan_update(seed, when, q)
            comp = order[pos]
            try_flip_inplace(cg, lo, comp, direction)
            try_flip_inplace(cg, hi, comp, direction)
            for v in cg.components[comp]:
                if lo[v] > hi[v]:
                    raise AssertionError("CFTP sandwich property violated")
        if lo == hi:
            return tiling_of_height(graph, weights, HeightFunction(graph, lo))
        window *= 2
    raise AssertionError("CFTP failed to coalesce within the window cap")


def sample_uniform(graph: FigureGraph, weights: ArcWeights, seed: int):
    """Exact uniform sample via twin chains from the lattice's minimum and
    maximum over doubling update windows.  `tiler sample -n K` prepares
    once and draws K times; each draw returns what this call returns.
    """
    return _draw_sample(graph, weights, _prepare_sampler(graph, weights), seed)
