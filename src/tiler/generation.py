"""Exhaustive generation in lexicographic order and exact uniform sampling
by monotone coupling from the past."""

from __future__ import annotations

import struct

# The same type as hashlib.blake2b; importing hashlib would also load
# OpenSSL (_hashlib), several MB of resident memory that is never used.
from _blake2 import blake2b

from .components import ComponentGraph, component_heights, forced_components, height_function
from .equilibrium import ArcWeights
from .errors import NotTileable, TooLarge, Untileable
from .flips import DOWN, UP, try_flip_inplace
from .grid import FigureGraph
from .lattice import maximal_height, minimal_height
from .tiling import HeightFunction, tiling_of_height

BLOCK = 8  # updates per digest, and the first window
# The plan is one window long, built a block at a time, at 8 B per time
# step: at most 2 GiB under this cap.
WINDOW_CAP = 2**28


def component_order(cg: ComponentGraph):
    """Fixed total order of the non-infinity components: index order, which
    is representative order, as components are numbered by least vertex."""
    return [i for i in range(len(cg.components)) if i != cg.infinity]


def _lex_heights(graph: FigureGraph, weights: ArcWeights):
    """Yield (forced components, component heights, components moved since
    the last yield) for every tiling in lexicographic order; the heights
    are one list, updated in place.

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
    heights = component_heights(cg, hf)
    yield cg, heights, range(len(heights))
    while True:
        for pos in range(len(order) - 1, -1, -1):
            if try_flip_inplace(cg, heights, order[pos], UP):
                break
        else:
            return
        free = order[pos + 1 :]
        moved, swept = [order[pos]], 0
        while swept != len(moved):  # sweep until a sweep flips nothing
            swept = len(moved)
            moved += [i for i in free if try_flip_inplace(cg, heights, i, DOWN)]
        yield cg, heights, moved


def enumerate_tilings(graph: FigureGraph, weights: ArcWeights):
    """Yield every tiling, starting at the minimum, in lexicographic order.

    One minimal-height relaxation per figure; each successor is reached by
    flips (see `_lex_heights`) and decoded from one height dict that moves update.
    """
    vs, h = graph.vertices, {}
    for cg, heights, moved in _lex_heights(graph, weights):
        for i in moved:
            for v in cg.components[i]:
                h[vs[v]] = heights[i] + cg.offset[v]
        yield tiling_of_height(graph, weights, HeightFunction(graph, h))


def count_tilings(graph: FigureGraph, weights: ArcWeights) -> int:
    """Number of tilings, by walking the enumeration's heights undecoded."""
    return sum(1 for _ in _lex_heights(graph, weights))


def plan_update(seed: int, when: int, q: int):
    """The BLOCK (component position, direction) updates for times -when
    ... -(when + 7), when = 1 (mod 8), one per word of a digest keyed by
    (seed, block): the update at a given past time never changes as the
    window grows, which is what makes coupling from the past exact."""
    key = struct.pack("<QQ", seed & (2**64 - 1), (when - 1) // BLOCK)
    words = struct.unpack("<8Q", blake2b(key, digest_size=64).digest())
    return [((u >> 1) % q, UP if u & 1 else DOWN) for u in words]


def _prepare_sampler(graph: FigureGraph, weights: ArcWeights):
    """What every sample of a figure shares: (min heights, forced components,
    component order, component heights of the min and of the max); all but
    the first are None when the figure has a single tiling."""
    try:
        hmin, _ = minimal_height(graph, weights)
    except Untileable as exc:
        raise NotTileable(str(exc)) from exc
    hmax, _ = maximal_height(graph, weights)
    if hmin.h == hmax.h:
        return hmin, None, None, None, None
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, hmin))
    return hmin, cg, component_order(cg), component_heights(cg, hmin), component_heights(cg, hmax)


def _draw_sample(graph: FigureGraph, weights: ArcWeights, prepared, seed: int):
    """The CFTP sample of one seed from `_prepare_sampler`'s result.

    The chains are component heights.  After each update the lower chain
    must stay below the upper one; only the updated component moved, so
    only its height is checked.  `plans[when - 1]` is the update at time
    -when, one of 2q shared pairs.  Windows start at BLOCK and double; each
    extends the plan by whole blocks, one digest each, so the plan is one
    window long and replayed whole.  Raises TooLarge when the window would
    pass WINDOW_CAP time steps, after at most 2 * WINDOW_CAP - BLOCK updates.
    """
    hmin, cg, order, bottom, top = prepared
    if cg is None:
        return tiling_of_height(graph, weights, hmin)
    q = len(order)
    moves = {d: [(comp, d) for comp in order] for d in (UP, DOWN)}
    plans, window = [], BLOCK
    while window <= WINDOW_CAP:
        for when in range(len(plans) + 1, window, BLOCK):
            plans += [moves[direction][pos] for pos, direction in plan_update(seed, when, q)]
        lo, hi = bottom[:], top[:]
        for comp, direction in reversed(plans):
            try_flip_inplace(cg, lo, comp, direction)
            try_flip_inplace(cg, hi, comp, direction)
            if lo[comp] > hi[comp]:
                raise AssertionError("CFTP sandwich property violated")
        if lo == hi:
            return tiling_of_height(graph, weights, height_function(graph, cg, lo))
        window *= 2
    raise TooLarge(f"coupling from the past did not coalesce in a window of {WINDOW_CAP} steps")


def sample_uniform(graph: FigureGraph, weights: ArcWeights, seed: int):
    """Exact uniform sample via twin chains from the lattice's minimum and
    maximum over doubling update windows.  `tiler sample -n K` prepares
    once and draws K times; each draw returns what this call returns.
    """
    return _draw_sample(graph, weights, _prepare_sampler(graph, weights), seed)
