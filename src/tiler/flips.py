"""Generalized flips on forced components, flip distance and shortest flip
paths.

A flip adds or subtracts 4 to the heights of one forced component.  On a
single-vertex component this is the usual 2x2 domino rotation; on a hole
component every domino around the hole moves.  Flips read t from the
quotient triples; the public functions accept `weights` but do not read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .components import ComponentGraph
from .equilibrium import ArcWeights
from .errors import DifferentFigures, FlipNotAvailable, TilerError
from .lattice import delta, inf
from .tiling import HeightFunction, same_figure

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class Flip:
    component: int
    direction: str


def component_status(cg: ComponentGraph, h: dict, i: int):
    """(has_incoming, has_outgoing) for component i in the orientation
    induced by the heights h."""
    has_in = has_out = False
    for tail, head, t in cg.neighbors[i]:
        if h[head] - h[tail] == t:
            has_out = True
        else:
            has_in = True
    return has_in, has_out


def available_flips(cg: ComponentGraph, weights: ArcWeights, hf: HeightFunction):
    """All applicable flips; empty Up list means hf is maximal, empty Down
    list means minimal."""
    flips = []
    for i in range(len(cg.components)):
        if i == cg.infinity:
            continue
        has_in, has_out = component_status(cg, hf.h, i)
        if not has_in:
            flips.append(Flip(i, UP))
        if not has_out:
            flips.append(Flip(i, DOWN))
    return flips


def try_flip_inplace(cg: ComponentGraph, h: dict, i: int, direction: str) -> bool:
    """Apply the flip to a raw height dict if available; no-op otherwise.

    One pass over the component's quotient arcs, stopping at the first that
    blocks: an incoming arc (difference below t) blocks an up-flip, an
    outgoing one (difference t) a down-flip.
    """
    if direction == UP:
        for tail, head, t in cg.neighbors[i]:
            if h[head] - h[tail] != t:
                return False
        shift = 4
    else:
        for tail, head, t in cg.neighbors[i]:
            if h[head] - h[tail] == t:
                return False
        shift = -4
    for v in cg.components[i]:
        h[v] += shift
    return True


def apply_flip(cg: ComponentGraph, weights: ArcWeights, hf: HeightFunction, flip: Flip) -> HeightFunction:
    if flip.component == cg.infinity:
        raise FlipNotAvailable("cannot flip the infinite component")
    h = dict(hf.h)
    if not try_flip_inplace(cg, h, flip.component, flip.direction):
        raise FlipNotAvailable(f"{flip} is not applicable")
    return HeightFunction(hf.graph, h)


def flip_distance(h1: HeightFunction, h2: HeightFunction, cg: ComponentGraph) -> int:
    """Minimum number of generalized flips between the two tilings."""
    return delta(h1, h2, cg) // 4


def _monotone_path(cg, start: HeightFunction, target: HeightFunction, direction):
    """Flip sequence from start to a comparable target, one direction only.

    Sweeps the components that differ from the target, flipping each one
    that can move.  A pending component is at least 4 from its target, so
    one flip never overshoots and the order of the sweep does not matter.
    """
    flips = []
    h = dict(start.h)
    reps = cg.representatives
    pending = [
        i for i, v in enumerate(reps) if i != cg.infinity and h[v] != target.h[v]
    ]
    while pending:
        applied = len(flips)
        left = []
        for i in pending:
            if try_flip_inplace(cg, h, i, direction):
                flips.append(Flip(i, direction))
                if h[reps[i]] == target.h[reps[i]]:
                    continue
            left.append(i)
        if len(flips) == applied:
            raise TilerError("no applicable flip towards the target")
        pending = left
    return flips, HeightFunction(start.graph, h)


def flip_path(cg: ComponentGraph, weights: ArcWeights, h1: HeightFunction, h2: HeightFunction):
    """A shortest flip sequence from h1 to h2, routed through inf(h1, h2)."""
    if not same_figure(h1, h2):
        raise DifferentFigures("flip path between different figures")
    meet = inf(h1, h2)
    down, at_meet = _monotone_path(cg, h1, meet, DOWN)
    up, final = _monotone_path(cg, at_meet, h2, UP)
    assert final == h2
    path = down + up
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
