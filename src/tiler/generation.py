"""Exhaustive generation in lexicographic order and exact uniform sampling
by monotone coupling from the past."""

from __future__ import annotations

import struct
from hashlib import blake2b

from .components import ComponentGraph, forced_components
from .equilibrium import ArcWeights
from .errors import NotTileable, Untileable
from .flips import DOWN, UP, component_status, try_flip_inplace
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


def enumerate_tilings(graph: FigureGraph, weights: ArcWeights):
    """Yield every tiling, starting at the minimum, in lexicographic order.

    The successor of a tiling raises the last component that admits an
    upward flip and re-minimizes everything after it, by rerunning the
    minimal-height worklist with the leading components pinned.
    """
    try:
        h, _ = minimal_height(graph, weights)
    except Untileable:
        return
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, h))
    order = component_order(cg)
    yield tiling_of_height(graph, weights, h)
    while True:
        pos = None
        for k in range(len(order) - 1, -1, -1):
            has_in, _ = component_status(cg, weights, h.h, order[k])
            if not has_in:
                pos = k
                break
        if pos is None:
            return
        pinned = {}
        for k in range(pos):
            for v in cg.components[order[k]]:
                pinned[v] = h.h[v]
        for v in cg.components[order[pos]]:
            pinned[v] = h.h[v] + 4
        h, _ = minimal_height(graph, weights, pinned=pinned)
        yield tiling_of_height(graph, weights, h)


def count_tilings(graph: FigureGraph, weights: ArcWeights) -> int:
    return sum(1 for _ in enumerate_tilings(graph, weights))


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


def sample_uniform(graph: FigureGraph, weights: ArcWeights, seed: int):
    """Exact uniform sample via twin chains from the lattice's minimum and
    maximum over doubling update windows.

    After each update the lower chain must stay below the upper one; only
    the updated component moved, so only its vertices are checked.
    """
    try:
        hmin, _ = minimal_height(graph, weights)
    except Untileable as exc:
        raise NotTileable(str(exc)) from exc
    hmax, _ = maximal_height(graph, weights)
    if hmin.h == hmax.h:
        return tiling_of_height(graph, weights, hmin)
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, hmin))
    order = component_order(cg)
    q = len(order)
    window = 1
    while window <= WINDOW_CAP:
        lo = dict(hmin.h)
        hi = dict(hmax.h)
        for when in range(window, 0, -1):
            pos, direction = plan_update(seed, when, q)
            comp = order[pos]
            try_flip_inplace(cg, weights, lo, comp, direction)
            try_flip_inplace(cg, weights, hi, comp, direction)
            if any(lo[v] > hi[v] for v in cg.components[comp]):
                raise AssertionError("CFTP sandwich property violated")
        if lo == hi:
            return tiling_of_height(graph, weights, HeightFunction(graph, lo))
        window *= 2
    raise AssertionError("CFTP failed to coalesce within the window cap")
