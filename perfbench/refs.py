"""Reference computations for the benchmark's output checks.

They share no code with `tiler`'s height machinery: an exact-cover checker
for domino lists, a broken-profile transfer-matrix tiling counter, and the
closed form for the flip distance between the extremal tilings of a square.
"""

from __future__ import annotations


def figure_cells(text: str) -> set:
    """Cells of an ASCII figure, in `tiler.parse_figure`'s coordinates:
    row r from the top and column c give cell (c, rows - 1 - r)."""
    rows = text.splitlines()
    while rows and rows[-1] == "":
        rows.pop()
    top = len(rows) - 1
    return {(c, top - r) for r, row in enumerate(rows) for c, ch in enumerate(row) if ch == "#"}


def is_exact_cover(cells: set, dominoes) -> bool:
    """True iff the dominoes (pairs of cells) are unit-adjacent pairs inside
    the figure that cover each of its cells exactly once."""
    covered = set()
    for c1, c2 in dominoes:
        (x1, y1), (x2, y2) = tuple(c1), tuple(c2)
        if abs(x1 - x2) + abs(y1 - y2) != 1:
            return False
        for c in ((x1, y1), (x2, y2)):
            if c not in cells or c in covered:
                return False
            covered.add(c)
    return covered == cells


def count_tilings(cells: set) -> int:
    """Number of domino tilings by a broken-profile transfer matrix.

    Cells are swept column by column along the narrower side of the
    bounding box.  Bit i of a profile says that cell i of the next line is
    already covered by a domino sticking out of the current line.  Holes
    and cells outside the figure are simply cells that must stay empty.
    """
    if not cells:
        return 1
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    if max(xs) - min(xs) < max(ys) - min(ys):
        cells = {(y, x) for x, y in cells}
        xs, ys = ys, xs
    x0, y0 = min(xs), min(ys)
    lines = max(xs) - x0 + 1
    width = max(ys) - y0 + 1
    inside = {(x - x0, y - y0) for x, y in cells}
    profiles = {0: 1}
    for line in range(lines):
        for i in range(width):
            here = (line, i) in inside
            down = (line + 1, i) in inside
            side = i + 1 < width and (line, i + 1) in inside
            bit = 1 << i
            nxt = {}
            for mask, ways in profiles.items():
                if mask & bit:
                    # Already covered from the previous line (only figure
                    # cells are ever marked), so it sticks out no further.
                    key = mask & ~bit
                    nxt[key] = nxt.get(key, 0) + ways
                    continue
                if not here:
                    nxt[mask] = nxt.get(mask, 0) + ways
                    continue
                if down:  # domino across to the next line
                    key = mask | bit
                    nxt[key] = nxt.get(key, 0) + ways
                if side and not mask & (bit << 1):  # domino along the line
                    key = mask | (bit << 1)
                    nxt[key] = nxt.get(key, 0) + ways
            profiles = nxt
    return profiles.get(0, 0)


def square_flip_distance(side: int) -> int:
    """Flips between the minimal and maximal tilings of a 2n x 2n square:
    n(4n^2 - 1)/3, the height displacement summed over vertices, over 4."""
    if side % 2:
        raise ValueError("only even squares are tileable")
    n = side // 2
    return n * (4 * n * n - 1) // 3
