"""Acceptance suite: nine end-to-end criteria over the whole figure corpus.

Each test prints one `ACCEPTANCE k: PASS|FAIL` line (run pytest with -s or
look at captured output).  The corpus member too large to enumerate
exhaustively (the 8x8 with two holes) is covered by the non-enumerative
checks in criteria 6-9.
"""

import collections
import itertools

from tiler.components import forced_components
from tiler.equilibrium import verify_equilibrium
from tiler.errors import Untileable
from tiler.flips import apply_flip, flip_distance, flip_path, local_flip_connected
from tiler.generation import enumerate_tilings, sample_uniform
from tiler.lattice import (
    inf,
    maximal_height,
    min_tiling,
    minimal_height,
    sup,
)
from tiler.oracle import bfs_distance, brute_enumerate, generalized_flip_adjacency
from tiler.tiling import height_of_tiling, tiling_of_height

from .conftest import COUNTS, CORPUS, ENUMERABLE, built
from .stepwise import grid_arcs

# Chi-square critical value at significance 0.001 with 4 degrees of freedom.
CHI2_CRIT_4DOF = 18.47

TRIPLE_CAP = 10_000


def report(k, ok, note):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {note}")
    assert ok, f"acceptance criterion {k} failed: {note}"


def heights_of(name):
    _, graph, _, weights = built(name)
    return graph, weights, [
        height_of_tiling(graph, weights, t)
        for t in enumerate_tilings(graph, weights)
    ]


def test_01_enumeration_equals_oracle():
    ok = True
    for name in ENUMERABLE:
        fig, graph, _, weights = built(name)
        ours = sorted(t.dominoes for t in enumerate_tilings(graph, weights))
        ok = ok and ours == brute_enumerate(fig)
        ok = ok and len(ours) == COUNTS[name]
    report(1, ok, "enumeration equals the backtracking oracle on the corpus")


def test_02_lattice_laws_and_extremes():
    ok = True
    for name in ENUMERABLE:
        if COUNTS[name] == 0:
            continue
        graph, weights, heights = heights_of(name)
        for h1, h2 in itertools.combinations(heights, 2):
            lo, hi = inf(h1, h2), sup(h1, h2)
            tiling_of_height(graph, weights, lo)
            tiling_of_height(graph, weights, hi)
            ok = ok and sup(h1, lo) == h1 and inf(h1, hi) == h1
        for h1, h2, h3 in itertools.islice(
            itertools.combinations(heights, 3), TRIPLE_CAP
        ):
            ok = ok and inf(h1, sup(h2, h3)) == sup(inf(h1, h2), inf(h1, h3))
        hmin, _ = minimal_height(graph, weights)
        hmax, _ = maximal_height(graph, weights)
        for v in hmin.h:
            ok = ok and hmin.h[v] == min(h.h[v] for h in heights)
            ok = ok and hmax.h[v] == max(h.h[v] for h in heights)
    report(2, ok, "lattice laws hold; min/max equal pointwise extremes")


def test_03_height_invariants():
    ok = True
    for name in ENUMERABLE:
        if COUNTS[name] == 0:
            continue
        graph, weights, heights = heights_of(name)
        for h in heights:
            for cell in graph.figure.cells:
                cyc = graph.cell_cycle(cell)
                ok = ok and sum(
                    h.h[v] - h.h[u] for u, v in zip(cyc, cyc[1:])
                ) == 0
            for hole in graph.holes:
                c = hole.clockwise_contour
                ok = ok and sum(h.h[v] - h.h[u] for u, v in zip(c, c[1:])) == 0
        boundary_arcs = [a for a, b in zip(grid_arcs(graph), graph.boundary) if b]
        for h1, h2 in itertools.combinations(heights, 2):
            ok = ok and all((x - h2.h[v]) % 4 == 0 for v, x in h1.h.items())
            for u, v in boundary_arcs:
                ok = ok and h1.h[v] - h1.h[u] == h2.h[v] - h2.h[u]
    report(3, ok, "height sums vanish on faces/holes; mod-4 and boundary rigidity")


def test_04_flip_distance_equals_bfs():
    ok = True
    for name in ENUMERABLE:
        if COUNTS[name] == 0:
            continue
        graph, weights, heights = heights_of(name)
        cg = forced_components(graph, weights, min_tiling(graph, weights))
        adj = generalized_flip_adjacency(graph, weights, cg, heights)
        for i, j in itertools.combinations(range(len(heights)), 2):
            d = flip_distance(heights[i], heights[j], cg)
            ok = ok and d == bfs_distance(adj, i, j)
            path = flip_path(cg, weights, heights[i], heights[j])
            ok = ok and len(path) == d
            h = heights[i]
            for flip in path:
                h = apply_flip(cg, weights, h, flip)
            ok = ok and h == heights[j]
    report(4, ok, "flip distance equals BFS; flip paths replay exactly")


def test_05_hole_flip_phenomenon():
    graph, weights, heights = heights_of("4x4-minus-2x2")
    h1, h2 = heights
    cg = forced_components(graph, weights, min_tiling(graph, weights))
    ok = not local_flip_connected(graph, h1, h2)
    ok = ok and flip_distance(h1, h2, cg) == 1
    report(5, ok, "holed ring: distance 1 but not local-flip connected")


def test_06_forced_component_rigidity():
    ok = True
    for name in ENUMERABLE:
        if COUNTS[name] == 0:
            continue
        graph, weights, heights = heights_of(name)
        cg = forced_components(graph, weights, min_tiling(graph, weights))
        for v in graph.vertices:
            rigid = len({h.h[v] for h in heights}) == 1
            ok = ok and rigid == (cg.comp_of[graph.index[v]] == cg.infinity)
    # Non-enumerable member: rigidity via the min/max characterization.
    _, graph, _, weights = built("8x8-two-holes")
    hmin, _ = minimal_height(graph, weights)
    hmax, _ = maximal_height(graph, weights)
    cg = forced_components(graph, weights, min_tiling(graph, weights))
    vs = graph.vertices
    for i, rep in enumerate(cg.representatives):
        if i == cg.infinity:
            ok = ok and all(
                hmin.h[vs[v]] == hmax.h[vs[v]] for v in cg.components[i]
            )
        else:
            ok = ok and hmin.h[vs[rep]] != hmax.h[vs[rep]]
    report(6, ok, "tiling-independent heights exactly on the infinity component")


def test_07_minimal_tiling_bound_and_verdicts():
    ok = True
    for name in CORPUS:
        fig, graph, _, weights = built(name)
        n = len(fig)
        try:
            _, passes = minimal_height(graph, weights)
            ok = ok and passes <= n * n
            tileable = True
        except Untileable:
            tileable = False
        if name in ENUMERABLE:
            ok = ok and tileable == bool(brute_enumerate(fig))
        else:
            ok = ok and tileable
    report(7, ok, "worklist passes within n^2; verdicts match the oracle")


def test_08_cftp_exactness():
    ok = True
    # 2x2: two tilings, 10000 seeds, frequencies within [0.48, 0.52].
    _, graph, _, weights = built("2x2")
    counts = collections.Counter(
        sample_uniform(graph, weights, seed).canonical()
        for seed in range(10_000)
    )
    ok = ok and len(counts) == 2
    ok = ok and all(0.48 <= c / 10_000 <= 0.52 for c in counts.values())
    # Same seed, same sample.
    ok = ok and sample_uniform(graph, weights, 99) == sample_uniform(
        graph, weights, 99
    )
    # 2x4: chi-square over the 5 tilings below the 0.001 critical value.
    _, graph, _, weights = built("2x4")
    support = {t.canonical() for t in enumerate_tilings(graph, weights)}
    counts = collections.Counter(
        sample_uniform(graph, weights, seed).canonical()
        for seed in range(5_000)
    )
    ok = ok and set(counts) == support and len(support) == 5
    expected = 5_000 / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    ok = ok and chi2 < CHI2_CRIT_4DOF
    report(8, ok, f"CFTP uniform within tolerance (chi-square {chi2:.2f})")


def test_09_equilibrium_validity():
    ok = True
    for name in CORPUS:
        fig, graph, eqfn, weights = built(name)
        n = len(fig)
        ok = ok and verify_equilibrium(graph, eqfn)
        ok = ok and all(abs(eqfn(a)) <= 4 * n for a in grid_arcs(graph))
        # The eq = 0 tree: one arc into each vertex but w0 (id 0), each from
        # w0 or a vertex the tree reached before.
        vs, head, rev = graph.vertices, graph.head, graph.rev
        heads = [head[k] for k in weights.tree]
        ok = ok and sorted(heads) == list(range(1, len(vs)))
        reached = {0: -1, **{v: i for i, v in enumerate(heads)}}
        tails = [head[rev[k]] for k in weights.tree]
        ok = ok and all(reached[u] < i for i, u in enumerate(tails))
        ok = ok and all(eqfn((vs[u], vs[v])) == 0 for u, v in zip(tails, heads))
    report(9, ok, "equilibrium verified; bound and spanning tree hold")
