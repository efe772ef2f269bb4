"""Generalized flips on forced components, flip distance and shortest flip
paths.

A flip adds or subtracts 4 to the heights of one forced component.  On a
single-vertex component this is the usual 2x2 domino rotation; on a hole
component every domino around the hole moves.  Flips step the component
heights of `ComponentGraph`; the public functions accept `weights` unread.
"""

from __future__ import annotations

from dataclasses import dataclass

from .components import ComponentGraph, component_heights, height_function
from .equilibrium import ArcWeights
from .errors import DifferentFigures, FlipNotAvailable, TilerError
from .lattice import delta
from .tiling import HeightFunction, same_figure

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class Flip:
    component: int
    direction: str


def component_status(cg: ComponentGraph, heights: list, i: int):
    """(has_incoming, has_outgoing) for component i in the orientation
    induced by the component heights."""
    out = [heights[j] - heights[i] == c for j, c in cg.quotient[i]]
    return not all(out), any(out)


def available_flips(cg: ComponentGraph, weights: ArcWeights, hf: HeightFunction):
    """All applicable flips; empty Up list means hf is maximal, empty Down
    list means minimal."""
    heights = component_heights(cg, hf)
    flips = []
    for i in range(len(cg.components)):
        if i == cg.infinity:
            continue
        has_in, has_out = component_status(cg, heights, i)
        if not has_in:
            flips.append(Flip(i, UP))
        if not has_out:
            flips.append(Flip(i, DOWN))
    return flips


def try_flip_inplace(cg: ComponentGraph, heights: list, i: int, direction: str) -> bool:
    """Apply the flip to the component heights if available; no-op otherwise.

    One pass over the component's quotient edges, stopping at the first that
    blocks: an incoming edge blocks an up-flip, an outgoing one a down-flip.
    """
    hi = heights[i]
    if direction == UP:
        for j, c in cg.quotient[i]:
            if heights[j] - hi != c:
                return False
        heights[i] = hi + 4
    else:
        for j, c in cg.quotient[i]:
            if heights[j] - hi == c:
                return False
        heights[i] = hi - 4
    return True


def apply_flip(cg: ComponentGraph, weights: ArcWeights, hf: HeightFunction, flip: Flip) -> HeightFunction:
    i = flip.component
    if type(i) is not int or i not in range(len(cg.components)) or flip.direction not in (UP, DOWN):
        raise FlipNotAvailable(f"{flip}: no such component or direction")
    if i == cg.infinity:
        raise FlipNotAvailable("cannot flip the infinite component")
    heights = component_heights(cg, hf)
    if not try_flip_inplace(cg, heights, i, flip.direction):
        raise FlipNotAvailable(f"{flip} is not applicable")
    return height_function(hf.graph, cg, heights)


def flip_distance(h1: HeightFunction, h2: HeightFunction, cg: ComponentGraph) -> int:
    """Minimum number of generalized flips between the two tilings."""
    return delta(h1, h2, cg) // 4


def _monotone_path(cg, heights: list, target: list, direction):
    """Flips taking the component heights, in place, to a comparable target.

    Sweeps the components that differ from the target, flipping each one
    that can move.  A pending component is at least 4 from its target, so
    one flip never overshoots and the order of the sweep does not matter.
    """
    flips = []
    pending = [i for i, (x, y) in enumerate(zip(heights, target)) if x != y and i != cg.infinity]
    while pending:
        applied = len(flips)
        left = []
        for i in pending:
            if try_flip_inplace(cg, heights, i, direction):
                flips.append(Flip(i, direction))
                if heights[i] == target[i]:
                    continue
            left.append(i)
        if len(flips) == applied:
            raise TilerError("no applicable flip towards the target")
        pending = left
    return flips


def flip_path(cg: ComponentGraph, weights: ArcWeights, h1: HeightFunction, h2: HeightFunction):
    """A shortest flip sequence from h1 to h2, routed through inf(h1, h2)."""
    if not same_figure(h1, h2):
        raise DifferentFigures("flip path between different figures")
    heights, target = component_heights(cg, h1), component_heights(cg, h2)
    meet = list(map(min, heights, target))
    path = _monotone_path(cg, heights, meet, DOWN) + _monotone_path(cg, heights, target, UP)
    assert heights == target
    assert len(path) == flip_distance(h1, h2, cg)
    return path


def local_flip_connected(graph, h1: HeightFunction, h2: HeightFunction) -> bool:
    """True iff the two tilings agree on every boundary vertex, i.e. they are
    joined by local flips alone."""
    if not same_figure(h1, h2):
        raise DifferentFigures("comparing heights on different figures")
    return all(h1.h[v] == h2.h[v] for v in graph.boundary_vertices)


def local_flip_count(graph, h1: HeightFunction, h2: HeightFunction) -> int:
    """Number of local flips between locally connected tilings."""
    if not local_flip_connected(graph, h1, h2):
        raise TilerError("tilings are not local-flip connected")
    return sum(abs(h1.h[v] - h2.h[v]) for v in h1.h) // 4
