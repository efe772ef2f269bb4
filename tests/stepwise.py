"""Reference extremal heights: the ±4 worklist that `tiler.lattice` used
before its direct relaxation, kept to cross-check the fast path.

Vertices start at their lower bound (upper for the maximum) and a violating
vertex is raised (lowered) by exactly 4 at a time until no arc difference
exceeds t (falls below b); passing the opposite bound means no tiling.
Its work equals the total height displacement, so it is slow on large
figures; the tests run it on small ones only.  With `pinned` vertices frozen
as well it also gives the lexicographic successors that enumeration reaches
by flips.

`reference_forced_components` is `forced_components` as it was before the
Kosaraju routine: out-lists of G_T, then an iterative Tarjan with lowlinks
and an on-stack set.  It keeps the component graph keyed by GridVertex:
components as vertex sets, and per component the (tail, head, t) triple of
one figure arc to each neighbouring component.  The references below flip
on that graph, with heights in a GridVertex dict: a component moves when
`reference_status` says no quotient arc blocks it, and all its vertices
shift by 4.

`reference_sample` is the coupling-from-the-past loop as `sample_uniform`
ran it before the one-pass flip test, before component heights, before the
plan was kept across windows and before windows started at 8: windows
1, 2, 4, ..., and each update read from its own digest, recomputed with
`hashlib` rather than taken from `plan_update`.  A CFTP output does not
depend on which coalescing window produced it, so both loops return the
same tiling.  `reference_flip_path` is the flip path sweep as it ran on
height dicts.

`reference_g_of_tiling` and `reference_tiling_of_height` are the encode and
decode as they were when the weights stored eq_r = eq - sp and b beside t:
both recompute those from eq and the spins.  `reference_eq` gives that eq
from the cut lines and the step values, without reading t.
"""

import hashlib
import struct
from collections import deque
from typing import NamedTuple

from tiler import generation
from tiler.components import (
    HOLE,
    INFINITY,
    SINGLE,
    component_heights,
    forced_components,
    height_function,
)
from tiler.equilibrium import build_cut_lines
from tiler.errors import NotAHeightFunction, TilerError, Untileable
from tiler.flips import DOWN, UP, Flip, try_flip_inplace
from tiler.generation import enumerate_tilings
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

from .theory import arc_t, grid_arcs, left_cell, right_cell, spin_of_move, tiling_graph


def arc_axis_key(a):
    """The side of an arc (u, v) of GridVertex, as its sorted lattice points."""
    u, v = a
    return tuple(sorted(((u.x, u.y), (v.x, v.y))))


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

    adj = {}
    for u, v in t:
        adj.setdefault(u, []).append(v)

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


def stepwise_successor(graph, weights, ref, h):
    """Heights of the lexicographic successor of the heights h, computed
    with pins: the components before the last one that can flip up keep
    their heights, that one is pinned 4 higher, and the ±4 worklist
    minimizes the rest.  None if no component can flip up."""
    order = reference_order(ref)
    up = [k for k, i in enumerate(order) if not reference_status(ref, h, i)[0]]
    if not up:
        return None
    pos = up[-1]
    pinned = {v: h[v] for i in order[:pos] for v in ref.components[i]}
    pinned.update((v, h[v] + 4) for v in ref.components[order[pos]])
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
    ref = reference_forced_components(graph, weights, tilings[0])
    for h, successor in zip(heights, heights[1:] + [None]):
        assert stepwise_successor(graph, weights, ref, h) == successor


def reference_order(ref):
    """The non-infinity components in index order."""
    return [i for i in range(len(ref.components)) if i != ref.infinity]


def reference_status(ref, h, i):
    """(has_incoming, has_outgoing) of component i under the height dict h:
    a quotient arc points out of i iff its difference is t."""
    out = [h[v] - h[u] == t for u, v, t in ref.neighbors[i]]
    return not all(out), any(out)


def reference_flip(ref, h, i, direction):
    """The flip as decided from `reference_status`, on a height dict; True
    if it applied."""
    has_in, has_out = reference_status(ref, h, i)
    if has_in if direction == UP else has_out:
        return False
    shift = 4 if direction == UP else -4
    for v in ref.components[i]:
        h[v] += shift
    return True


def reference_update(seed, when, q):
    """The update at time -when: word (when - 1) % 8 of the 64-byte blake2b
    digest of (seed mod 2^64, (when - 1) // 8), little-endian; position
    (u >> 1) % q, up if u is odd."""
    block, word = divmod(when - 1, 8)
    digest = hashlib.blake2b(struct.pack("<QQ", seed % 2**64, block), digest_size=64).digest()
    u = int.from_bytes(digest[8 * word : 8 * word + 8], "little")
    return (u >> 1) % q, UP if u % 2 else DOWN


def reference_sample(graph, weights, seed):
    """(tiling, number of updates) of the reference CFTP loop."""
    hmin, _ = minimal_height(graph, weights)
    hmax, _ = maximal_height(graph, weights)
    if hmin.h == hmax.h:
        return tiling_of_height(graph, weights, hmin), 0
    ref = reference_forced_components(graph, weights, tiling_of_height(graph, weights, hmin))
    order = reference_order(ref)
    updates = 0
    window = 1
    while True:
        lo = dict(hmin.h)
        hi = dict(hmax.h)
        for when in range(window, 0, -1):
            pos, direction = reference_update(seed, when, len(order))
            updates += 1
            comp = order[pos]
            reference_flip(ref, lo, comp, direction)
            reference_flip(ref, hi, comp, direction)
            if any(lo[v] > hi[v] for v in ref.components[comp]):
                raise AssertionError("CFTP sandwich property violated")
        if lo == hi:
            return tiling_of_height(graph, weights, HeightFunction(graph, lo)), updates
        window *= 2


def assert_samples_match_reference(graph, weights, seeds):
    """sample_uniform against reference_sample: for every seed, the same
    tiling, and plan_update called for the blocks starting at times
    1, 9, ..., W - 7 exactly, in that order.  W is the sampler's last
    window: the larger of 8 and the reference's last window R, which makes
    2R - 1 updates.  A figure with one tiling makes no call."""
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
            expected, updates = reference_sample(graph, weights, seed)
            assert tiling == expected
            window = max(8, (updates + 1) // 2) if updates else 0
            assert calls == list(range(1, window - 6, 8))
    finally:
        generation.plan_update = original


def _reference_sweep(ref, h, target, direction, flips):
    """Flip the components of ref that differ from the height dict target
    in one direction, in sweeps in index order, until h equals target."""
    reps = ref.representatives
    pending = [i for i, v in enumerate(reps) if i != ref.infinity and h[v] != target[v]]
    while pending:
        applied = len(flips)
        left = []
        for i in pending:
            if reference_flip(ref, h, i, direction):
                flips.append(Flip(i, direction))
                if h[reps[i]] == target[reps[i]]:
                    continue
            left.append(i)
        if len(flips) == applied:
            raise TilerError("no applicable flip towards the target")
        pending = left


def reference_flip_path(ref, h1, h2):
    """The flip path from h1 down to inf(h1, h2), then up to h2, on height
    dicts."""
    h = dict(h1.h)
    flips = []
    _reference_sweep(ref, h, {v: min(x, h2.h[v]) for v, x in h.items()}, DOWN, flips)
    _reference_sweep(ref, h, h2.h, UP, flips)
    assert h == h2.h
    return flips


def assert_flips_match_status(graph, weights):
    """On every tiling and every component, in both directions,
    try_flip_inplace on the component heights applies exactly the flips
    reference_status allows, moves that component by 4, and leaves the
    heights untouched when it refuses."""
    tilings = list(enumerate_tilings(graph, weights))
    if not tilings:
        return
    cg = forced_components(graph, weights, tilings[0])
    ref = reference_forced_components(graph, weights, tilings[0])
    for tiling in tilings:
        hf = height_of_tiling(graph, weights, tiling)
        for i in range(len(ref.components)):
            for direction in (UP, DOWN):
                expected = dict(hf.h)
                allowed = reference_flip(ref, expected, i, direction)
                got = component_heights(cg, hf)
                assert try_flip_inplace(cg, got, i, direction) == allowed
                assert height_function(graph, cg, got).h == expected
                assert (got == component_heights(cg, hf)) != allowed


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


class ReferenceComponents(NamedTuple):
    """The forced components keyed by GridVertex."""

    components: tuple  # frozensets of GridVertex
    comp_of: dict
    kinds: tuple
    representatives: tuple  # GridVertex
    infinity: int
    # Per component i, (tail, head, t) per neighbouring component, tail in
    # i, on the first figure arc met between the two components.
    neighbors: tuple


def reference_forced_components(graph, weights, tiling):
    """The forced components from Tarjan's components of G_T."""
    out = {}
    for u, v in tiling_graph(graph, weights, tiling):
        out.setdefault(u, []).append(v)
    comps = tarjan_components(sorted(graph.vertices), out)
    comps = sorted((frozenset(c) for c in comps), key=min)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    hole_vertices = {graph.vertices[graph.head[k]] for h in graph.holes for k in h.contour}
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
    for u, v in grid_arcs(graph):
        i, j = comp_of[u], comp_of[v]
        if i == j:
            continue
        if i > j:
            i, j, u, v = j, i, v, u
        if (i, j) not in seen:
            seen.add((i, j))
            neighbors[i].append((u, v, t[(u, v)]))
            neighbors[j].append((v, u, t[(v, u)]))
    return ReferenceComponents(
        components=tuple(comps),
        comp_of=comp_of,
        kinds=tuple(kinds),
        representatives=tuple(min(c) for c in comps),
        infinity=infinity,
        neighbors=tuple(map(tuple, neighbors)),
    )


def assert_components_match_reference(graph, weights):
    """forced_components against the Tarjan reference, from the minimal and
    the maximal tiling: the same components (as sets of vertices, each
    listed in increasing id order), kinds, representatives and infinity.
    Each vertex's offset is its height minus its representative's, and the
    quotient pairs (j, c) of a component are the reference's triples
    (u, v, t), with c = t less the offsets of u and v, under that tiling's
    heights.  Nothing to compare on an untileable figure."""
    try:
        tilings = [min_tiling(graph, weights), max_tiling(graph, weights)]
    except Untileable:
        return
    vs = graph.vertices
    vid = {v: i for i, v in enumerate(vs)}
    for tiling in tilings:
        cg = forced_components(graph, weights, tiling)
        ref = reference_forced_components(graph, weights, tiling)
        h = height_of_tiling(graph, weights, tiling).h
        assert all(list(c) == sorted(c) for c in cg.components)
        assert tuple(frozenset(vs[v] for v in c) for c in cg.components) == ref.components
        assert dict(zip(vs, cg.comp_of)) == ref.comp_of
        assert cg.kinds == ref.kinds
        assert tuple(vs[r] for r in cg.representatives) == ref.representatives
        assert ref.infinity == 0
        rep_height = [h[v] for v in ref.representatives]
        offset = [h[v] - rep_height[ref.comp_of[v]] for v in vs]
        assert cg.offset == offset
        assert len(cg.quotient) == len(ref.neighbors)
        for pairs, triples in zip(cg.quotient, ref.neighbors):
            expected = [
                (ref.comp_of[v], t - offset[vid[v]] + offset[vid[u]])
                for u, v, t in triples
            ]
            assert sorted(pairs) == sorted(expected)


def reference_eq(graph, steps):
    """eq by arc id from the cut lines and the step values: each hole's step
    on the eastward arc of every side its cut line crosses, minus the step
    on the westward arc, and 0 on every other arc."""
    step_of = {}
    for cl in build_cut_lines(graph):
        for k in cl.crossed:
            p, q = graph.axis[k]
            assert q == (p[0] + 1, p[1]) and graph.vertices[graph.head[k]][:2] == q
            step_of[(p, q)] = steps[cl.hole_id]
            step_of[(q, p)] = -steps[cl.hole_id]
    return [step_of.get(((u.x, u.y), (v.x, v.y)), 0) for u, v in grid_arcs(graph)]


def reference_arc_weights(graph, eq):
    """Per arc (eq_r, sp, b, t), from eq by arc id (see `reference_eq`) and
    the spins: eq_r = eq - sp; on boundary arcs (one figure cell beside the
    side) t = b = eq + sp, elsewhere t = eq_r + 2 and b = eq_r - 2."""
    cells = graph.figure.cells
    out = {}
    for a, e in zip(grid_arcs(graph), eq):
        u, v = a
        p, d = (u.x, u.y), (v.x - u.x, v.y - u.y)
        sp = spin_of_move(p, d)
        eq_r = e - sp
        if (left_cell(p, d) in cells) != (right_cell(p, d) in cells):
            out[a] = (eq_r, sp, eq_r + 2 * sp, eq_r + 2 * sp)
        else:
            out[a] = (eq_r, sp, eq_r - 2, eq_r + 2)
    return out


def reference_g_of_tiling(graph, eq, tiling):
    """g_T(a) = eq_r(a) + 2 sp(a) (1 - 2 chi_T(a)) for any axis set."""
    return {
        a: eq_r + 2 * sp * (1 - 2 * (arc_axis_key(a) in tiling.axes))
        for a, (eq_r, sp, _, _) in reference_arc_weights(graph, eq).items()
    }


def reference_tiling_of_height(graph, eq, hf):
    """Every difference must lie in {b, t}; the axes are the arcs whose
    difference is eq_r - 2 sp."""
    axes = set()
    for (u, v), (eq_r, sp, b, t) in reference_arc_weights(graph, eq).items():
        d = hf.h[v] - hf.h[u]
        if d not in (b, t):
            raise NotAHeightFunction(f"difference {d} on arc {(u, v)} outside {{b, t}}")
        if d - eq_r == -2 * sp:
            axes.add(arc_axis_key((u, v)))
    return validate_tiling(graph, [axis_cells(axis) for axis in axes])
