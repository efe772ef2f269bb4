"""Brute-force ground truth, kept independent of the height machinery.

`brute_enumerate` finds every exact cover of a figure by dominoes through
plain backtracking on the first uncovered cell.  `generalized_flip_adjacency`
and `bfs_distance` give oracle shortest flip distances for tests.
"""

from __future__ import annotations

from collections import deque

from .errors import TooLarge, Unreachable
from .grid import Cell, Figure

DEFAULT_CAP = 24


def brute_enumerate(figure: Figure, cap: int = DEFAULT_CAP):
    """All domino tilings as sorted tuples of cell-pair dominoes."""
    if len(figure) > cap:
        raise TooLarge(f"{len(figure)} cells exceeds the oracle cap {cap}")
    cells = figure.cells
    order = sorted(cells)
    tilings = []
    current = []
    covered = set()

    def backtrack():
        first = next((c for c in order if c not in covered), None)
        if first is None:
            tilings.append(tuple(sorted(current)))
            return
        for partner in (Cell(first.x + 1, first.y), Cell(first.x, first.y + 1)):
            if partner in cells and partner not in covered:
                covered.add(first)
                covered.add(partner)
                current.append((first, partner))
                backtrack()
                current.pop()
                covered.discard(first)
                covered.discard(partner)

    try:
        backtrack()
    finally:
        del backtrack  # in its own closure: a cycle left to the collector
    return sorted(tilings)


def generalized_flip_adjacency(graph, weights, cg, heights):
    """Adjacency of the generalized flip graph over the given height
    functions, computed two independent ways and cross-checked.

    The height criterion: two tilings are one flip apart iff their heights
    differ by exactly 4 on a single forced component and agree elsewhere.
    The dynamic criterion: apply every available flip and locate the result.
    """
    from .flips import apply_flip, available_flips

    reps = [graph.vertices[r] for r in cg.representatives]
    keys = [tuple(hf.h[v] for v in reps) for hf in heights]
    index = {k: i for i, k in enumerate(keys)}

    by_height = [set() for _ in heights]
    for i in range(len(heights)):
        for j in range(i + 1, len(heights)):
            diffs = [abs(a - b) for a, b in zip(keys[i], keys[j])]
            if sorted(diffs, reverse=True)[:1] == [4] and sum(diffs) == 4:
                by_height[i].add(j)
                by_height[j].add(i)

    by_flip = [set() for _ in heights]
    for i, hf in enumerate(heights):
        for flip in available_flips(cg, weights, hf):
            out = apply_flip(cg, weights, hf, flip)
            j = index[tuple(out.h[v] for v in reps)]
            by_flip[i].add(j)

    if by_height != by_flip:
        raise AssertionError("flip adjacency oracles disagree")
    return by_height


def bfs_distance(adjacency, start: int, goal: int) -> int:
    """Shortest path length in an adjacency-list graph."""
    if start == goal:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in adjacency[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                if j == goal:
                    return dist[j]
                queue.append(j)
    raise Unreachable(f"no flip path from {start} to {goal}")
