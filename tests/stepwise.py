"""Reference extremal heights: the ±4 worklist that `tiler.lattice` used
before its direct relaxation, kept to cross-check the fast path.

Vertices start at their lower bound (upper for the maximum) and a violating
vertex is raised (lowered) by exactly 4 at a time until no arc difference
exceeds t (falls below b); passing the opposite bound means no tiling.
Its work equals the total height displacement, so it is slow on large
figures; the tests run it on small ones only.  With `pinned` vertices frozen
as well it also gives the lexicographic successors that enumeration reaches
by flips.

`reference_sample` is the coupling-from-the-past loop as `sample_uniform`
ran it before the one-pass flip test: each chain asks `component_status`
whether the component may move, and the sandwich is checked with `any`.

`reference_forced_components` is `forced_components` as it was before the
Kosaraju routine: out-lists of G_T, then an iterative Tarjan with lowlinks
and an on-stack set.

`reference_g_of_tiling` and `reference_tiling_of_height` are the encode and
decode as they were when the weights stored eq_r = eq - sp and b beside t:
both recompute those from the equilibrium function and the spins.
"""

from collections import deque

from tiler import generation
from tiler.components import HOLE, INFINITY, SINGLE, ComponentGraph, forced_components, tiling_graph
from tiler.errors import NotAHeightFunction, Untileable
from tiler.flips import DOWN, UP, component_status, try_flip_inplace
from tiler.generation import component_order, enumerate_tilings, plan_update
from tiler.grid import spin_of_move
from tiler.lattice import (
    _boundary_heights,
    max_tiling,
    maximal_height,
    min_tiling,
    minimal_height,
)
from tiler.tiling import (
    HeightFunction,
    axis_cells,
    height_of_tiling,
    tiling_of_height,
    validate_tiling,
)


def arc_axis_key(a):
    """The side of an arc (u, v) of GridVertex, as its sorted lattice points."""
    u, v = a
    return tuple(sorted(((u.x, u.y), (v.x, v.y))))


def arc_t(graph, weights):
    """t keyed by the arcs (u, v) of GridVertex."""
    return dict(zip(graph.arcs, weights.t))


def _tree_sums(graph, weights, table):
    """Heights from w0 along the eq = 0 tree, adding table on each tree arc."""
    out = {graph.w0: 0}
    vs, head, rev = graph.vertices, graph.head, graph.rev
    for k in weights.tree:
        p, v = vs[head[rev[k]]], vs[head[k]]
        out[v] = out[p] + table[(p, v)]
    return out


def stepwise_extremal_height(graph, weights, sign, pinned=None):
    """(height function, number of ±4 updates); raises Untileable."""
    n = len(graph.figure)
    t = arc_t(graph, weights)
    b = {(u, v): -t[(v, u)] for u, v in t}
    near, far = (b, t) if sign > 0 else (t, b)
    fixed = {graph.vertices[i]: val for i, val in _boundary_heights(graph, weights).items()}
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
    up = [k for k, i in enumerate(order) if not component_status(cg, h, i)[0]]
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


def _status_flip(cg, h, i, direction):
    """The flip as decided from `component_status`; True if it applied."""
    has_in, has_out = component_status(cg, h, i)
    if has_in if direction == UP else has_out:
        return False
    shift = 4 if direction == UP else -4
    for v in cg.components[i]:
        h[v] += shift
    return True


def reference_sample(graph, weights, seed):
    """(tiling, number of plan_update calls) of the reference CFTP loop."""
    hmin, _ = minimal_height(graph, weights)
    hmax, _ = maximal_height(graph, weights)
    if hmin.h == hmax.h:
        return tiling_of_height(graph, weights, hmin), 0
    cg = forced_components(graph, weights, tiling_of_height(graph, weights, hmin))
    order = component_order(cg)
    updates = 0
    window = 1
    while True:
        lo = dict(hmin.h)
        hi = dict(hmax.h)
        for when in range(window, 0, -1):
            pos, direction = plan_update(seed, when, len(order))
            updates += 1
            comp = order[pos]
            _status_flip(cg, lo, comp, direction)
            _status_flip(cg, hi, comp, direction)
            if any(lo[v] > hi[v] for v in cg.components[comp]):
                raise AssertionError("CFTP sandwich property violated")
        if lo == hi:
            return tiling_of_height(graph, weights, HeightFunction(graph, lo)), updates
        window *= 2


def assert_samples_match_reference(graph, weights, seeds):
    """sample_uniform against reference_sample: for every seed, the same
    tiling from as many plan_update calls."""
    calls = []
    original = generation.plan_update

    def counting(seed, when, q):
        calls.append(when)
        return original(seed, when, q)

    generation.plan_update = counting
    try:
        for seed in seeds:
            calls.clear()
            tiling = generation.sample_uniform(graph, weights, seed)
            assert (tiling, len(calls)) == reference_sample(graph, weights, seed)
    finally:
        generation.plan_update = original


def assert_flips_match_status(graph, weights):
    """On every tiling and every component, in both directions,
    try_flip_inplace applies exactly the flips component_status allows,
    moves that component by 4, and leaves h untouched when it refuses."""
    tilings = list(enumerate_tilings(graph, weights))
    if not tilings:
        return
    cg = forced_components(graph, weights, tilings[0])
    for tiling in tilings:
        h = height_of_tiling(graph, weights, tiling).h
        for i in range(len(cg.components)):
            for direction in (UP, DOWN):
                expected = dict(h)
                allowed = _status_flip(cg, expected, i, direction)
                got = dict(h)
                assert try_flip_inplace(cg, got, i, direction) == allowed
                assert got == expected
                assert (got == h) != allowed


def tarjan_components(vertices, out):
    """Iterative Tarjan; components are returned as lists of vertices."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack.add(v)
            recurse = False
            succs = out.get(v, ())
            for i in range(pi, len(succs)):
                w = succs[i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return comps


def reference_forced_components(graph, weights, tiling):
    """The ComponentGraph of forced_components, from Tarjan's components."""
    out = {}
    for u, v in tiling_graph(graph, weights, tiling):
        out.setdefault(u, []).append(v)
    comps = tarjan_components(sorted(graph.vertices), out)
    comps = sorted((frozenset(c) for c in comps), key=min)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    hole_vertices = {v for h in graph.holes for v in h.clockwise_contour}
    infinity = comp_of[graph.w0]
    kinds = []
    for i, c in enumerate(comps):
        if i == infinity:
            kinds.append(INFINITY)
        elif c & hole_vertices:
            kinds.append(HOLE)
        else:
            assert len(c) == 1, "unexpected multi-vertex non-hole component"
            kinds.append(SINGLE)
    neighbors = [[] for _ in comps]
    seen = set()
    t = arc_t(graph, weights)
    for u, v in graph.arcs:
        i, j = comp_of[u], comp_of[v]
        if i == j:
            continue
        if i > j:
            i, j, u, v = j, i, v, u
        if (i, j) not in seen:
            seen.add((i, j))
            neighbors[i].append((u, v, t[(u, v)]))
            neighbors[j].append((v, u, t[(v, u)]))
    return ComponentGraph(
        components=tuple(comps),
        comp_of=comp_of,
        kinds=tuple(kinds),
        representatives=tuple(min(c) for c in comps),
        infinity=infinity,
        neighbors=tuple(map(tuple, neighbors)),
    )


def assert_components_match_reference(graph, weights):
    """forced_components against the Tarjan reference, from the minimal and
    the maximal tiling: the same components (as sets), kinds,
    representatives, infinity and quotient triples in order.  Nothing to
    compare on an untileable figure."""
    try:
        tilings = [min_tiling(graph, weights), max_tiling(graph, weights)]
    except Untileable:
        return
    for tiling in tilings:
        cg = forced_components(graph, weights, tiling)
        ref = reference_forced_components(graph, weights, tiling)
        assert cg.components == ref.components
        assert cg.comp_of == ref.comp_of
        assert cg.kinds == ref.kinds
        assert cg.representatives == ref.representatives
        assert cg.infinity == ref.infinity
        assert cg.neighbors == ref.neighbors


def reference_arc_weights(graph, eqfn):
    """Per arc (eq_r, sp, b, t), from eqfn and the spins: eq_r = eq - sp; on
    boundary arcs t = b = eq + sp, elsewhere t = eq_r + 2 and b = eq_r - 2."""
    out = {}
    for a in graph.arcs:
        u, v = a
        sp = spin_of_move((u.x, u.y), (v.x - u.x, v.y - u.y))
        eq_r = eqfn(a) - sp
        if a in graph.boundary_arcs:
            out[a] = (eq_r, sp, eq_r + 2 * sp, eq_r + 2 * sp)
        else:
            out[a] = (eq_r, sp, eq_r - 2, eq_r + 2)
    return out


def reference_g_of_tiling(graph, eqfn, tiling):
    """g_T(a) = eq_r(a) + 2 sp(a) (1 - 2 chi_T(a)) for any axis set."""
    return {
        a: eq_r + 2 * sp * (1 - 2 * (arc_axis_key(a) in tiling.axes))
        for a, (eq_r, sp, _, _) in reference_arc_weights(graph, eqfn).items()
    }


def reference_tiling_of_height(graph, eqfn, hf):
    """Every difference must lie in {b, t}; the axes are the arcs whose
    difference is eq_r - 2 sp."""
    axes = set()
    for (u, v), (eq_r, sp, b, t) in reference_arc_weights(graph, eqfn).items():
        d = hf.h[v] - hf.h[u]
        if d not in (b, t):
            raise NotAHeightFunction(f"difference {d} on arc {(u, v)} outside {{b, t}}")
        if d - eq_r == -2 * sp:
            axes.add(arc_axis_key((u, v)))
    return validate_tiling(graph, [axis_cells(axis) for axis in axes])
