"""Command-line front-end: `tiler VERB FILE [options]`.

Exit codes: 0 success, 1 untileable, 2 usage, parse or resource errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import pipeline
from .components import forced_components, quotient_edges
from .equilibrium import verify_equilibrium
from .errors import ParseError, TilerError, Untileable
from .flips import flip_distance, flip_path, local_flip_connected, local_flip_count
from .generation import _draw_sample, _prepare_sampler, count_tilings, enumerate_tilings
from .lattice import max_tiling, min_tiling, minimal_height
from .oracle import brute_enumerate
from .render import JSON_FORMAT, dominoes_from_json, render_tiling, tiling_to_json
from .tiling import height_of_tiling, validate_tiling


def _read(path) -> str:
    """Text of a UTF-8 input file; undecodable bytes are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _non_negative(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _vertex_str(v):
    return f"({v.x},{v.y})" + (f"#{v.copy}" if v.copy else "")


def _emit_tiling(figure, tiling, as_json):
    if as_json:
        print(json.dumps(tiling_to_json(tiling)))
    else:
        print(render_tiling(figure, tiling))


def _cmd_check(args, figure, graph, eqfn, weights):
    tileable = True
    try:
        minimal_height(graph, weights)
    except Untileable:
        tileable = False
    info = {
        "format": JSON_FORMAT,
        "cells": len(figure),
        "holes": len(graph.holes),
        "equilibrium_ok": verify_equilibrium(graph, eqfn),
        "tileable": tileable,
    }
    if args.json:
        print(json.dumps(info))
    else:
        for key, val in info.items():
            if key != "format":
                print(f"{key}: {val}")
    return 0 if tileable else 1


def _cmd_extreme(args, figure, graph, eqfn, weights):
    tiling = min_tiling(graph, weights) if args.verb == "min" else max_tiling(graph, weights)
    _emit_tiling(figure, tiling, args.json)
    return 0


def _cmd_count(args, figure, graph, eqfn, weights):
    n = count_tilings(graph, weights)
    print(json.dumps({"format": JSON_FORMAT, "count": n}) if args.json else n)
    return 0


def _cmd_enum(args, figure, graph, eqfn, weights):
    stream = enumerate_tilings(graph, weights)
    if args.limit is not None:
        stream = itertools.islice(stream, args.limit)
    if args.json:
        tilings = [tiling_to_json(t)["dominoes"] for t in stream]
        print(json.dumps({"format": JSON_FORMAT, "tilings": tilings}))
    else:
        for t in stream:
            print(render_tiling(figure, t))
            print()
    return 0


def _cmd_sample(args, figure, graph, eqfn, weights):
    prepared = _prepare_sampler(graph, weights)
    samples = [
        (seed, _draw_sample(graph, weights, prepared, seed))
        for seed in range(args.seed, args.seed + args.n)
    ]
    if args.json:
        out = [
            {"seed": seed, "dominoes": tiling_to_json(t)["dominoes"]}
            for seed, t in samples
        ]
        print(json.dumps({"format": JSON_FORMAT, "samples": out}))
    else:
        for _, t in samples:
            print(render_tiling(figure, t))
            print()
    return 0


def _cmd_dist(args, figure, graph, eqfn, weights):
    heights = []
    for path in (args.t1, args.t2):
        try:
            data = json.loads(_read(path))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not JSON: {exc}") from exc
        dominoes = dominoes_from_json(data)
        tiling = validate_tiling(graph, dominoes)
        heights.append(height_of_tiling(graph, weights, tiling))
    h1, h2 = heights
    cg = forced_components(graph, weights, min_tiling(graph, weights))
    dist = flip_distance(h1, h2, cg)
    local = local_flip_connected(graph, h1, h2)
    result = {"format": JSON_FORMAT, "distance": dist, "local_flip_connected": local}
    if local:
        result["local_flip_count"] = local_flip_count(graph, h1, h2)
    if args.path:
        result["path"] = [
            {"component": f.component, "direction": f.direction}
            for f in flip_path(cg, weights, h1, h2)
        ]
    if args.json:
        print(json.dumps(result))
    else:
        print(f"distance: {dist}")
        print(f"local-flip-connected: {str(local).lower()}")
        if args.path:
            for step in result["path"]:
                rep = graph.vertices[cg.representatives[step["component"]]]
                print(f"{step['direction']} {_vertex_str(rep)}")
    return 0


def _cmd_components(args, figure, graph, eqfn, weights):
    cg = forced_components(graph, weights, min_tiling(graph, weights))
    reps = [graph.vertices[r] for r in cg.representatives]
    rows = list(zip(cg.kinds, map(len, cg.components), reps))
    if args.json:
        out = {
            "format": JSON_FORMAT,
            "components": [
                {"kind": kind, "size": size, "representative": list(rep)}
                for kind, size, rep in rows
            ],
            "edges": [list(edge) for edge in quotient_edges(cg)],
        }
        print(json.dumps(out))
    else:
        for i, (kind, size, rep) in enumerate(rows):
            print(f"component {i}: kind={kind} size={size} rep={_vertex_str(rep)}")
        for i, j in quotient_edges(cg):
            print(f"edge: {i} -- {j}")
    return 0


def _cmd_eq(args, figure, graph, eqfn, weights):
    arcs = sorted((a, v) for a, v in eqfn.values.items() if v != 0)
    if args.json:
        out = {
            "format": JSON_FORMAT,
            "steps": {str(i): s for i, s in sorted(eqfn.steps.items())},
            "arcs": [
                {"from": list(a[0]), "to": list(a[1]), "value": v} for a, v in arcs
            ],
        }
        print(json.dumps(out))
    else:
        for i, s in sorted(eqfn.steps.items()):
            print(f"step[{i}] = {s}")
        for (u, v), val in arcs:
            print(f"{_vertex_str(u)}->{_vertex_str(v)}: {val}")
    return 0


def _cmd_oracle_count(args, figure, graph, eqfn, weights):
    print(len(brute_enumerate(figure)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="tiler", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("figure", help="ASCII figure file ('#' and '.')")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(run=run)  # run(args, *pipeline(figure text))
        return p

    add("check", _cmd_check, help="figure diagnostics and tileability")
    add("min", _cmd_extreme, help="minimal tiling")
    add("max", _cmd_extreme, help="maximal tiling")
    add("count", _cmd_count, help="number of tilings")
    p = add("enum", _cmd_enum, help="all tilings in lexicographic order")
    p.add_argument("--limit", type=_non_negative, default=None)
    p = add("sample", _cmd_sample, help="exact uniform samples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-n", type=_non_negative, default=1)
    p = add("dist", _cmd_dist, help="flip distance between two tilings")
    p.add_argument("t1", help="tiling JSON file")
    p.add_argument("t2", help="tiling JSON file")
    p.add_argument("--path", action="store_true", help="print a flip sequence")
    add("components", _cmd_components, help="forced components and quotient arcs")
    add("eq", _cmd_eq, help="equilibrium step values and nonzero arcs")
    add("oracle-count", _cmd_oracle_count, help="brute-force tiling count (debug)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, *pipeline(_read(args.figure)))
    except Untileable as exc:
        print(f"untileable: {exc}", file=sys.stderr)
        return 1
    except (TilerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        # The cut-line equilibrium recurses once per hole of a nested chain.
        print(f"error: chain of nested holes too deep ({exc})", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
