"""ASCII rendering and the JSON interchange format for tilings."""

from __future__ import annotations

import string

from .errors import ParseError
from .grid import Figure
from .tiling import Tiling

JSON_FORMAT = 1


def render_tiling(figure: Figure, tiling: Tiling) -> str:
    """Letter-pair rendering: both cells of a domino get the same letter
    (a-z cycling), cells outside the figure become spaces."""
    letters = {}
    for i, (c1, c2) in enumerate(tiling.dominoes):
        letter = string.ascii_lowercase[i % 26]
        letters[c1] = letters[c2] = letter
    rows = []
    for y in range(figure.min_y + figure.height - 1, figure.min_y - 1, -1):
        row = "".join(
            letters.get((x, y), " ")
            for x in range(figure.min_x, figure.min_x + figure.width)
        )
        rows.append(row.rstrip())
    return "\n".join(rows)


def tiling_to_json(tiling: Tiling) -> dict:
    return {
        "format": JSON_FORMAT,
        "dominoes": [[list(c1), list(c2)] for c1, c2 in tiling.dominoes],
    }


def dominoes_from_json(data) -> list:
    if not isinstance(data, dict) or "dominoes" not in data:
        raise ParseError("tiling JSON must be an object with a 'dominoes' key")
    if data.get("format", JSON_FORMAT) != JSON_FORMAT:
        raise ParseError(f"unsupported tiling format {data.get('format')!r}")
    try:
        dominoes = [(tuple(c1), tuple(c2)) for c1, c2 in data["dominoes"]]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed dominoes list: {exc}") from exc
    for domino in dominoes:
        for cell in domino:
            if len(cell) != 2 or any(type(x) is not int for x in cell):
                raise ParseError(f"cell {list(cell)} is not two integers")
    return dominoes
