"""Cut lines, step values, equilibrium construction and verification."""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from tiler import pipeline
from tiler.equilibrium import (
    EquilibriumFunction,
    build_cut_lines,
    cycle_eq,
    make_weights,
    step_values,
    verify_equilibrium,
)
from tiler.errors import TilerError

from .conftest import built
from .stepwise import grid_arcs


def assert_t_matches_eqfn(graph, eqfn, weights):
    """The stored t against eq and the graph's spins sp: t = eq + sp on
    boundary arcs and eq - sp + 2 elsewhere.  The derived lower difference
    -t(v, u) is then t on boundary arcs and t - 4 elsewhere."""
    arcs = grid_arcs(graph)
    t, sp = dict(zip(arcs, weights.t)), dict(zip(arcs, graph.spin))
    assert len(weights.t) == len(graph.spin) == len(arcs)
    for a, boundary in zip(arcs, graph.boundary):
        u, v = a
        assert t[a] == (eqfn(a) + sp[a] if boundary else eqfn(a) - sp[a] + 2)
        assert -t[(v, u)] == (t[a] if boundary else t[a] - 4)


def perturbed(graph, eqfn, rng):
    """A second valid equilibrium function: eq + the differences of a random
    vertex potential."""
    f = {v: 4 * rng.randint(-2, 2) for v in graph.vertices}
    values = {}
    for u, v in grid_arcs(graph):
        values[(u, v)] = eqfn((u, v)) + f[v] - f[u]
    return EquilibriumFunction(steps=dict(eqfn.steps), values=values)


class TestCutLines:
    def test_hole_free_has_none(self):
        _, graph, _, _ = built("3x4")
        assert build_cut_lines(graph) == []

    def test_ring_cut_line(self):
        _, graph, _, _ = built("3x3-ring")
        (cl,) = build_cut_lines(graph)
        assert cl.hole_id == 0
        assert cl.predecessor is None
        # From hole cell (1, 1) upward through figure cell (1, 2): the line
        # crosses the two horizontal edges at y = 2 and y = 3.
        assert cl.crossed_edges == (((1, 2), (2, 2)), ((1, 3), (2, 3)))

    def test_8x8_cut_lines(self):
        _, graph, _, _ = built("8x8-two-holes")
        lines = build_cut_lines(graph)
        assert len(lines) == 2
        assert all(cl.predecessor is None for cl in lines)

    def test_nested_hole_predecessor(self):
        # A 1x1 hole directly below another hole's cut path still reaches
        # the outside; holes stacked in one column chain through each other.
        from tiler import pipeline

        text = "#####\n##.##\n#####\n##.##\n#####"
        _, graph, eqfn, _ = pipeline(text)
        lines = build_cut_lines(graph)
        by_hole = {cl.hole_id: cl for cl in lines}
        lower = graph.complement_component((2, 1))
        upper = graph.complement_component((2, 3))
        assert by_hole[lower].predecessor == upper
        assert by_hole[upper].predecessor is None
        assert verify_equilibrium(graph, eqfn)


class TestStepValues:
    def test_ring_step(self):
        _, graph, _, _ = built("3x3-ring")
        steps = step_values(graph, build_cut_lines(graph))
        # Single hole: step = -sp(contour) = -4 (hole cell is black).
        assert steps == {0: -4}

    def test_balanced_hole_step(self):
        _, graph, _, _ = built("4x4-minus-2x2")
        steps = step_values(graph, build_cut_lines(graph))
        assert steps == {0: 0}


class TestBuildEquilibrium:
    def test_verifies_on_corpus(self, corpus_name):
        _, graph, eqfn, _ = built(corpus_name)
        assert verify_equilibrium(graph, eqfn)

    def test_zero_function_hole_free(self):
        _, graph, _, _ = built("3x4")
        assert verify_equilibrium(graph, EquilibriumFunction(steps={}))

    def test_zero_function_fails_on_ring(self):
        _, graph, _, _ = built("3x3-ring")
        assert not verify_equilibrium(graph, EquilibriumFunction(steps={}))

    def test_skew_symmetric(self, corpus_name):
        _, graph, eqfn, _ = built(corpus_name)
        for u, v in grid_arcs(graph):
            assert eqfn((u, v)) == -eqfn((v, u))

    def test_bound(self, corpus_name):
        fig, graph, eqfn, _ = built(corpus_name)
        n = len(fig)
        assert all(abs(eqfn(a)) <= 4 * n for a in grid_arcs(graph))

    def test_support_is_on_cut_lines(self, corpus_name):
        _, graph, eqfn, _ = built(corpus_name)
        crossed = set()
        for cl in build_cut_lines(graph):
            crossed.update(cl.crossed_edges)
        for (u, v), val in eqfn.values.items():
            if val:
                key = tuple(sorted((u.point, v.point)))
                assert key in crossed


class TestCycleSums:
    def test_cycle_sums_figure_determined(self, corpus_name):
        # eq(C) agrees between two distinct valid equilibrium functions.
        _, graph, eqfn, _ = built(corpus_name)
        rng = random.Random(1)
        eqfn2 = perturbed(graph, eqfn, rng)
        assert verify_equilibrium(graph, eqfn2)
        for cell in graph.figure.cells:
            cyc = graph.cell_cycle(cell)
            assert cycle_eq(eqfn, cyc) == cycle_eq(eqfn2, cyc)
        for hole in graph.holes:
            c = hole.clockwise_contour
            assert cycle_eq(eqfn, c) == cycle_eq(eqfn2, c)
        assert cycle_eq(eqfn, graph.outer_contour) == cycle_eq(
            eqfn2, graph.outer_contour
        )


class TestWeights:
    def test_spanning_tree(self, corpus_name):
        _, graph, eqfn, weights = built(corpus_name)
        # One arc into each vertex but w0 (id 0), in BFS order: each from w0
        # or a vertex the tree reached before.
        vs, head, rev = graph.vertices, graph.head, graph.rev
        heads = [head[k] for k in weights.tree]
        assert sorted(heads) == list(range(1, len(vs)))
        reached = {0: -1, **{v: i for i, v in enumerate(heads)}}
        for i, k in enumerate(weights.tree):
            assert reached[head[rev[k]]] < i
            assert eqfn((vs[head[rev[k]]], vs[head[k]])) == 0

    def test_tree_requirement_raised(self):
        # A potential-shifted equilibrium can have no eq = 0 spanning tree.
        _, graph, eqfn, _ = built("2x2")
        values = {}
        for u, v in grid_arcs(graph):
            values[(u, v)] = eqfn((u, v)) + 4 * (u.x - v.x)
        bad = EquilibriumFunction(steps={}, values=values)
        with pytest.raises(TilerError):
            make_weights(graph, bad)

    def test_stored_fields(self):
        # b and eq - sp are read off t and the graph's spins, never stored
        # beside them.
        _, _, _, weights = built("2x2")
        names = [f.name for f in dataclasses.fields(weights)]
        assert names == ["t", "tree"]

    def test_t_b_structure(self, corpus_name):
        _, graph, eqfn, weights = built(corpus_name)
        assert_t_matches_eqfn(graph, eqfn, weights)


def test_pipeline_retained_memory():
    """What pipeline() keeps for a 32x32 square, under tracemalloc: at most
    0.72 KiB per cell, about 10% over the 0.65 measured under CPython 3.11."""
    n = 32
    pipeline("##")  # one-time caches are not per-figure memory
    gc.collect()
    tracemalloc.start()
    try:
        kept = pipeline("\n".join(["#" * n] * n))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept[0]) == n * n
    assert retained / 1024 / (n * n) <= 0.72


def test_pipeline_retained_gc_objects():
    """The objects pipeline() keeps for a 32x32 square that the cyclic
    garbage collector tracks: at most 2.3 per cell, about 10% over the 2.08
    measured under CPython 3.11.  About 2 are expected, one Cell per cell
    and one GridVertex per vertex; per-arc data lives in flat arrays."""
    n = 32
    pipeline("##")
    gc.collect()
    before = len(gc.get_objects())
    kept = pipeline("\n".join(["#" * n] * n))
    # Finds no garbage (pipeline leaves no cycle) and untracks the tuples
    # that hold only untracked objects.
    assert gc.collect() == 0
    retained = len(gc.get_objects()) - before
    assert len(kept[0]) == n * n
    assert retained / (n * n) <= 2.3
