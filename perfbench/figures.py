"""ASCII figures for the workloads, drawn from a seeded random generator.

Every figure is tileable by construction, so that no operation of a
workload fails on some seeds only:

- a rectangle with one even side, minus one black and one white cell,
  is tileable (Gomory's theorem);
- a square of even side minus 2x2 blocks aligned to even coordinates is
  tiled by the remaining 2x2 blocks.

The one figure that fails on purpose, `stacked_chain`, does not depend on
the seed.
"""

from __future__ import annotations


def draw(width: int, height: int, holes=()) -> str:
    """Rectangle of '#' with the given cells (x, y) cleared; y = 0 is the
    bottom row, as in `tiler.parse_figure`."""
    rows = [["#"] * width for _ in range(height)]
    for x, y in holes:
        rows[height - 1 - y][x] = "."
    return "\n".join("".join(r) for r in rows)


def block(x: int, y: int):
    """The four cells of the 2x2 block with lower-left cell (x, y)."""
    return [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]


def opposite_cells(rng, xs: range, ys: range):
    """Two cells of opposite colours with x in xs and y in ys, not
    8-adjacent, so that they are two separate single-cell holes."""
    while True:
        a = (rng.choice(xs), rng.choice(ys))
        b = (rng.choice(xs), rng.choice(ys))
        if (sum(a) + sum(b)) % 2 and max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1:
            return [a, b]


def two_cell_holes(rng, side: int, jitter: int = 2) -> str:
    """Square with two single-cell holes of opposite colours on its middle
    row, a third of the side apart, each moved by up to `jitter` cells.
    Worklist work varies by a few percent over the placements; anywhere in
    the square it varies by a third."""
    c, d = side // 2, side // 6

    def near(x, y):
        return (x + rng.randint(-jitter, jitter), y + rng.randint(-jitter, jitter))

    while True:
        a, b = near(c - d, c), near(c + d, c)
        if (sum(a) + sum(b)) % 2:
            return draw(side, side, [a, b])


def hole_lattice(rng, side: int, pitch: int = 8) -> str:
    """Square of even side with a k x k lattice of aligned 2x2 holes,
    k = (side - 4) // pitch, at a seeded even offset."""
    k = (side - 4) // pitch
    offsets = range(2, side - 2 - (k - 1) * pitch - 1, 2)
    ox, oy = rng.choice(offsets), rng.choice(offsets)
    holes = []
    for i in range(k):
        for j in range(k):
            holes += block(ox + i * pitch, oy + j * pitch)
    return draw(side, side, holes)


def stacked_chain(holes: int) -> str:
    """6 wide: `holes` domino holes at columns 2-3 on every other row, and
    one more hole at columns 1-2 above them.  Holes are found column by
    column, so the top hole comes first and its cut-line chain runs through
    all the others."""
    rows = ["######", "#..###"]
    for _ in range(holes):
        rows += ["######", "##..##"]
    rows.append("######")
    return "\n".join(rows)
