"""Cut lines, step values, equilibrium construction and verification."""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from tiler import pipeline
from tiler.equilibrium import (
    build_cut_lines,
    eq_values,
    make_weights,
    step_values,
    verify_equilibrium,
)
from tiler.errors import TilerError

from .conftest import built
from .stepwise import reference_eq
from .theory import arc_id, cell_arcs, grid_arcs, hole_of, left_cell, right_cell


def assert_t_matches_eq(graph, eq, weights):
    """The stored t against eq by arc id and the graph's spins sp: t = eq +
    sp on boundary arcs and eq - sp + 2 elsewhere.  The derived lower
    difference -t(v, u) is then t on boundary arcs and t - 4 elsewhere."""
    arcs = grid_arcs(graph)
    t, sp = dict(zip(arcs, weights.t)), dict(zip(arcs, graph.spin))
    assert len(weights.t) == len(graph.spin) == len(arcs) == len(eq)
    for a, boundary, e in zip(arcs, graph.boundary, eq):
        u, v = a
        assert t[a] == (e + sp[a] if boundary else e - sp[a] + 2)
        assert -t[(v, u)] == (t[a] if boundary else t[a] - 4)


def perturbed(graph, weights, rng):
    """The weights of a second valid equilibrium function, eq plus the
    differences of a random vertex potential: t is eq plus a fixed per-arc
    term, so it moves with eq.  The tree is kept; it need not hold eq = 0."""
    f = {v: 4 * rng.randint(-2, 2) for v in graph.vertices}
    t = [x + f[v] - f[u] for (u, v), x in zip(grid_arcs(graph), weights.t)]
    return dataclasses.replace(weights, t=t)


def cycle_sum(per_arc, arcs) -> int:
    """Sum of a list by arc id along a cycle of arc ids."""
    return sum(per_arc[k] for k in arcs)


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
        # crosses the two horizontal edges at y = 2 and y = 3, each on its
        # eastward arc.
        assert [graph.axis[k] for k in cl.crossed] == [((1, 2), (2, 2)), ((1, 3), (2, 3))]
        assert [graph.vertices[graph.head[k]] for k in cl.crossed] == [(2, 2, 0), (2, 3, 0)]

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
        _, graph, _, weights = pipeline(text)
        lines = build_cut_lines(graph)
        by_hole = {cl.hole_id: cl for cl in lines}
        lower = hole_of(graph, (2, 1))
        upper = hole_of(graph, (2, 3))
        assert by_hole[lower].predecessor == upper
        assert by_hole[upper].predecessor is None
        assert verify_equilibrium(graph, weights)


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
        _, graph, _, weights = built(corpus_name)
        assert verify_equilibrium(graph, weights)

    def test_zero_function_hole_free(self):
        _, graph, _, _ = built("3x4")
        zero = make_weights(graph, [0] * len(graph.head))
        assert verify_equilibrium(graph, zero)

    def test_zero_function_fails_on_ring(self):
        _, graph, _, _ = built("3x3-ring")
        zero = make_weights(graph, [0] * len(graph.head))
        assert not verify_equilibrium(graph, zero)

    def test_skew_symmetric(self, corpus_name):
        _, graph, _, weights = built(corpus_name)
        eq = eq_values(graph, weights)
        for u, v in grid_arcs(graph):
            assert eq[arc_id(graph, u, v)] == -eq[arc_id(graph, v, u)]

    def test_skew_break_fails(self, corpus_name):
        # An outer contour arc has the figure on its left, so it lies on no
        # clockwise cell cycle and no hole contour: changing its t without
        # its reverse's keeps every cycle sum of eq and breaks skew symmetry
        # alone.
        _, graph, _, weights = built(corpus_name)
        t = list(weights.t)
        t[graph.outer[0]] += 4
        broken = dataclasses.replace(weights, t=t)
        eq = eq_values(graph, broken)
        for cell in graph.figure.cells:
            assert cycle_sum(eq, cell_arcs(graph, cell)) == 0
        for hole in graph.holes:
            c = hole.contour
            assert cycle_sum(eq, c) == -cycle_sum(graph.spin, c)
        assert not verify_equilibrium(graph, broken)

    def test_cell_sum_break_fails(self, corpus_name):
        # Adding d to t on one arc and taking it from t on its reverse moves
        # eq the same way, so skew symmetry holds.  An interior arc is on no
        # contour, and the last arc of a cut line to the outside has only
        # its reverse on the outer contour, so every hole sum holds too.
        # What breaks are the sums of the figure cells beside the side:
        # +d on the arc's right, -d on its left.
        _, graph, _, weights = built(corpus_name)
        vs, head, rev, cells = graph.vertices, graph.head, graph.rev, graph.figure.cells
        lines = build_cut_lines(graph)
        crossed = {k for cl in lines for k in cl.crossed}
        interior = [k for k, b in enumerate(graph.boundary) if not b]
        off_lines = [k for k in interior if k not in crossed and rev[k] not in crossed]
        on_lines = [k for k in interior if k in crossed]
        on_lines += [cl.crossed[-1] for cl in lines if cl.predecessor is None]
        arcs = [off_lines[0]] + on_lines[:1]
        assert len(arcs) == (2 if graph.holes else 1)
        for k in arcs:
            t = list(weights.t)
            t[k] += 4
            t[rev[k]] -= 4
            broken = dataclasses.replace(weights, t=t)
            eq = eq_values(graph, broken)
            assert all(eq[r] == -e for e, r in zip(eq, rev))
            for hole in graph.holes:
                c = hole.contour
                assert cycle_sum(eq, c) == -cycle_sum(graph.spin, c)
            u, v = vs[head[rev[k]]], vs[head[k]]
            move = ((u.x, u.y), (v.x - u.x, v.y - u.y))
            beside = {right_cell(*move), left_cell(*move)} & cells
            assert {c for c in cells if cycle_sum(eq, cell_arcs(graph, c))} == beside != set()
            assert not verify_equilibrium(graph, broken)

    def test_bound(self, corpus_name):
        fig, graph, _, weights = built(corpus_name)
        n = len(fig)
        assert all(abs(e) <= 4 * n for e in eq_values(graph, weights))

    def test_support_is_on_cut_lines(self, corpus_name):
        _, graph, _, weights = built(corpus_name)
        crossed = set()
        for cl in build_cut_lines(graph):
            crossed.update(graph.axis[k] for k in cl.crossed)
        for (u, v), val in zip(grid_arcs(graph), eq_values(graph, weights)):
            if val:
                key = tuple(sorted(((u.x, u.y), (v.x, v.y))))
                assert key in crossed


class TestCycleSums:
    def test_cycle_sums_figure_determined(self, corpus_name):
        # eq(C) agrees between two distinct valid equilibrium functions.
        _, graph, _, weights = built(corpus_name)
        rng = random.Random(1)
        weights2 = perturbed(graph, weights, rng)
        assert verify_equilibrium(graph, weights2)
        eq, eq2 = eq_values(graph, weights), eq_values(graph, weights2)
        for cell in graph.figure.cells:
            cyc = cell_arcs(graph, cell)
            assert cycle_sum(eq, cyc) == cycle_sum(eq2, cyc)
        for hole in graph.holes:
            c = hole.contour
            assert cycle_sum(eq, c) == cycle_sum(eq2, c)
        outer = graph.outer
        assert cycle_sum(eq, outer) == cycle_sum(eq2, outer)


class TestWeights:
    def test_spanning_tree(self, corpus_name):
        _, graph, _, weights = built(corpus_name)
        # One arc into each vertex but w0 (id 0), in BFS order: each from w0
        # or a vertex the tree reached before.
        vs, head, rev = graph.vertices, graph.head, graph.rev
        heads = [head[k] for k in weights.tree]
        assert sorted(heads) == list(range(1, len(vs)))
        reached = {0: -1, **{v: i for i, v in enumerate(heads)}}
        for i, k in enumerate(weights.tree):
            assert reached[head[rev[k]]] < i
            assert eq_values(graph, weights)[k] == 0

    def test_tree_requirement_raised(self):
        # A potential-shifted equilibrium can have no eq = 0 spanning tree.
        _, graph, _, weights = built("2x2")
        eq = eq_values(graph, weights)
        bad = [e + 4 * (u.x - v.x) for (u, v), e in zip(grid_arcs(graph), eq)]
        with pytest.raises(TilerError):
            make_weights(graph, bad)

    def test_stored_fields(self):
        # b and eq - sp are read off t and the graph's spins, never stored
        # beside them.
        _, _, _, weights = built("2x2")
        names = [f.name for f in dataclasses.fields(weights)]
        assert names == ["t", "tree"]

    def test_t_b_structure(self, corpus_name):
        _, graph, steps, weights = built(corpus_name)
        assert_t_matches_eq(graph, reference_eq(graph, steps), weights)


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
