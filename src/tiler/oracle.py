"""Brute-force ground truth, kept independent of the height machinery.

`brute_enumerate` finds every exact cover of a figure by dominoes through
plain backtracking on the first uncovered cell; `tiler oracle-count` runs it.
"""

from __future__ import annotations

from .errors import TooLarge
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
