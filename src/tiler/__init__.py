"""Domino tilings of holed figures: lattice structure, flips, enumeration
and exact uniform sampling."""

from .components import ComponentGraph, forced_components
from .equilibrium import (
    ArcWeights,
    CutLine,
    build_cut_lines,
    build_equilibrium,
    make_weights,
    step_values,
    verify_equilibrium,
)
from .errors import TilerError, Untileable
from .flips import (
    Flip,
    apply_flip,
    available_flips,
    flip_distance,
    flip_path,
    local_flip_connected,
    local_flip_count,
)
from .generation import count_tilings, enumerate_tilings, sample_uniform
from .grid import (
    Cell,
    Figure,
    FigureGraph,
    GridVertex,
    Hole,
    build_graph,
    parse_figure,
)
from .lattice import (
    OrderRelation,
    compare,
    delta,
    inf,
    max_tiling,
    maximal_height,
    min_tiling,
    minimal_height,
    sup,
)
from .oracle import brute_enumerate
from .render import render_tiling, tiling_to_json
from .tiling import (
    HeightFunction,
    Tiling,
    height_of_tiling,
    tiling_of_height,
    validate_tiling,
)


def pipeline(text: str):
    """Parse a figure and build its graph and equilibrium weights."""
    figure = parse_figure(text)
    graph = build_graph(figure)
    steps, weights = build_equilibrium(graph)
    return figure, graph, steps, weights
