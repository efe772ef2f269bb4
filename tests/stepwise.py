"""Reference extremal heights: the ±4 worklist that `tiler.lattice` used
before its direct relaxation, kept to cross-check the fast path.

Vertices start at their lower bound (upper for the maximum) and a violating
vertex is raised (lowered) by exactly 4 at a time until no arc difference
exceeds t (falls below b); passing the opposite bound means no tiling.
Its work equals the total height displacement, so it is slow on large
figures; the tests run it on small ones only.  With `pinned` vertices frozen
as well it also gives the lexicographic successors that enumeration reaches
by flips.
"""

from collections import deque

from tiler.components import forced_components
from tiler.errors import Untileable
from tiler.flips import component_status
from tiler.generation import component_order, enumerate_tilings
from tiler.lattice import _boundary_heights, _tree_sums
from tiler.tiling import HeightFunction, height_of_tiling


def stepwise_extremal_height(graph, weights, sign, pinned=None):
    """(height function, number of ±4 updates); raises Untileable."""
    n = len(graph.figure)
    near, far = (weights.b, weights.t) if sign > 0 else (weights.t, weights.b)
    fixed = _boundary_heights(graph, weights)
    if pinned:
        fixed.update(pinned)
    h = _tree_sums(graph, weights, near)
    bound = _tree_sums(graph, weights, far)
    for v, val in fixed.items():
        h[v] = bound[v] = val

    adj = graph.adjacency

    def violating(v):
        hv = h[v]
        return any(sign * (h[u] - hv - far[(v, u)]) > 0 for u in adj[v])

    queue = deque(v for v in sorted(graph.vertices) if violating(v))
    inq = set(queue)
    passes = 0
    limit = n * n
    step = 4 * sign
    while queue:
        v = queue.popleft()
        inq.discard(v)
        if not violating(v):
            continue
        h[v] += step
        passes += 1
        if passes > limit:
            kind = "minimal" if sign > 0 else "maximal"
            raise AssertionError(f"{kind}-height pass counter exceeded n^2")
        if sign * (h[v] - bound[v]) > 0:
            raise Untileable(f"no tiling: height at {v} passes its bound")
        if violating(v) and v not in inq:
            queue.append(v)
            inq.add(v)
        hv = h[v]
        for u in adj[v]:
            if u not in inq and sign * (hv - h[u] - far[(u, v)]) > 0:
                queue.append(u)
                inq.add(u)
    return HeightFunction(graph, h), passes


def outcome(fn, *args, **kwargs):
    """(heights dict, passes) of an extremal-height call, or "untileable"."""
    try:
        hf, passes = fn(*args, **kwargs)
    except Untileable:
        return "untileable"
    return hf.h, passes


def stepwise_successor(graph, weights, cg, order, h):
    """Heights of the lexicographic successor of the heights h, computed
    with pins: the components in `order` before the last one that can flip
    up keep their heights, that one is pinned 4 higher, and the ±4 worklist
    minimizes the rest.  None if no component can flip up."""
    up = [k for k, i in enumerate(order) if not component_status(cg, weights, h, i)[0]]
    if not up:
        return None
    pos = up[-1]
    pinned = {v: h[v] for i in order[:pos] for v in cg.components[i]}
    pinned.update((v, h[v] + 4) for v in cg.components[order[pos]])
    return stepwise_extremal_height(graph, weights, 1, pinned)[0].h


def assert_successors_match_stepwise(graph, weights):
    """enumerate_tilings starts at the reference minimum, each later tiling
    is the pinned reference successor of the one before, and the last one
    has no successor."""
    tilings = list(enumerate_tilings(graph, weights))
    heights = [height_of_tiling(graph, weights, t).h for t in tilings]
    first = outcome(stepwise_extremal_height, graph, weights, 1)
    if first == "untileable":
        assert heights == []
        return
    assert heights[0] == first[0]
    cg = forced_components(graph, weights, tilings[0])
    order = component_order(cg)
    for h, successor in zip(heights, heights[1:] + [None]):
        assert stepwise_successor(graph, weights, cg, order, h) == successor
