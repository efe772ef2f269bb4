"""The four workloads: their inputs, one round of operations, and the checks
of their outputs.

Each workload object has:

- `build(tiler, seed, small)`: the inputs the timed phase reuses (timed as
  part of `setup_s` together with importing `tiler`);
- `run_round(tiler, inputs, r, clock)`: round r of operations, each timed
  through `clock.op`; returns what the checks need (the full outputs for
  round 0, a digest for later rounds);
- `check(tiler, inputs, records)`: a list of problems, empty when every
  output is right; run after the timed phase;
- `memory_texts(inputs)`: figures whose `pipeline()` memory is measured in
  the traced run.

All calls into `tiler` go through module attributes at call time, so that a
traced run sees them.
"""

from __future__ import annotations

import json
import random

import figures
import refs

# Chi-square critical value for 35 degrees of freedom at p = 0.001: the
# 4x4 square has 36 tilings.
CHI2_4X4_CRITICAL = 66.62
CHI2_SAMPLES_PER_TILING = 10


def _failed_ok(records, allowed):
    """Problems for failed operations outside `allowed` (label, error)."""
    return [
        f"operation {label} failed with {error}"
        for label, error in records["failures"]
        if (label, error) not in allowed
    ]


def _rounds_agree(digests):
    """Problems for rounds whose digest differs from round 0's."""
    return [
        f"round {r} differs from round 0"
        for r in range(1, len(digests))
        if digests[r] != digests[0]
    ]


class Extremal:
    """Figure text -> minimal and maximal tilings and forced components."""

    name = "extremal"
    SIDE = 36
    CHAIN_HOLES = 700  # `step_values` overflows the stack from 521 holes on
    KNOWN_FAILURE = ("stacked-chain", "RecursionError")

    def build(self, tiler, seed, small):
        rng = random.Random(seed)
        side = 12 if small else self.SIDE
        texts = [("square", figures.draw(side, side))] * 2
        texts += [("two-cells", figures.two_cell_holes(rng, side)) for _ in range(2)]
        texts += [("hole-lattice", figures.hole_lattice(rng, side)) for _ in range(2)]
        texts.append(("stacked-chain", figures.stacked_chain(self.CHAIN_HOLES)))
        return {"side": side, "texts": texts}

    @staticmethod
    def operation(tiler, text):
        _, graph, _, weights = tiler.pipeline(text)
        hmin, pmin = tiler.minimal_height(graph, weights)
        hmax, pmax = tiler.maximal_height(graph, weights)
        tmin = tiler.tiling_of_height(graph, weights, hmin)
        tmax = tiler.tiling_of_height(graph, weights, hmax)
        cg = tiler.forced_components(graph, weights, tmin)
        return hmin, hmax, tmin, tmax, cg, (pmin, pmax)

    @staticmethod
    def digest(out):
        _, _, tmin, tmax, cg, passes = out
        return passes, hash(tmin.axes), hash(tmax.axes), len(cg.components)

    def run_round(self, tiler, inputs, r, clock):
        outputs = []
        for label, text in inputs["texts"]:
            out = clock.op(label, self.operation, tiler, text)
            if out is clock.FAILED:
                outputs.append(None)
            else:
                outputs.append(self.digest(out) if r else out)
        return outputs

    def check(self, tiler, inputs, records):
        problems = _failed_ok(records, {self.KNOWN_FAILURE})
        digests = []
        closed = refs.square_flip_distance(inputs["side"])
        for (label, text), out in zip(inputs["texts"], records["rounds"][0]):
            if out is None:
                digests.append(None)
                continue
            hmin, hmax, tmin, tmax, cg, _ = out
            cells = refs.figure_cells(text)
            for which, t in (("min", tmin), ("max", tmax)):
                if not refs.is_exact_cover(cells, t.dominoes):
                    problems.append(f"{label}: {which} tiling is not an exact cover")
            if any(hmin[v] > hmax[v] for v in hmin.h):
                problems.append(f"{label}: h_min exceeds h_max")
            if label == "square":
                moved = sum(hmax[v] - hmin[v] for v in hmin.h) // 4
                if moved != closed:
                    problems.append(f"square: sum(h_max - h_min)/4 = {moved}, expected {closed}")
            if sum(len(c) for c in cg.components) != len(hmin.h):
                problems.append(f"{label}: forced components do not partition the vertices")
            digests.append(self.digest(out))
        return problems + _rounds_agree([digests] + records["rounds"][1:])

    def memory_texts(self, inputs):
        return [text for label, text in inputs["texts"] if label != "stacked-chain"]


class Enumerate:
    """One tiling yielded by `enumerate_tilings`; every figure is consumed
    to its end."""

    name = "enumerate"

    def build(self, tiler, seed, small):
        rng = random.Random(seed)
        # A square, and two holed figures of `side` x `tall` cells.  The 2x2
        # hole keeps off the middle columns, where the count would double.
        side, tall = (4, 6) if small else (6, 7)
        hole = figures.block(rng.choice(range(1, side - 2, 2)), rng.choice(range(1, tall - 2)))
        cells = figures.opposite_cells(rng, range(1, side - 1), range(1, tall - 1))
        texts = [
            ("square", figures.draw(side, side)),
            ("2x2-hole", figures.draw(side, tall, hole)),
            ("two-cells", figures.draw(side, tall, cells)),
        ]
        built = []
        for label, text in texts:
            _, graph, _, weights = tiler.pipeline(text)
            built.append((label, text, graph, weights, _domino_bits(text)))
        return {"figures": built}

    def run_round(self, tiler, inputs, r, clock):
        outputs = []
        for label, _, graph, weights, bits in inputs["figures"]:
            codes = []
            stream = tiler.enumerate_tilings(graph, weights)
            while True:
                tiling = clock.op(label, next, stream, None)
                if tiling is clock.FAILED:
                    codes = None
                    break
                if tiling is None:
                    # The call that finds no successor yields no tiling.
                    clock.discard()
                    break
                codes.append(sum(bits[d] for d in tiling.dominoes))
            outputs.append(codes if r == 0 or codes is None else hash(tuple(codes)))
        return outputs

    def check(self, tiler, inputs, records):
        problems = _failed_ok(records, set())
        for (label, text, graph, weights, bits), codes in zip(
            inputs["figures"], records["rounds"][0]
        ):
            if codes is None:
                continue
            cells = refs.figure_cells(text)
            expected = refs.count_tilings(cells)
            if len(codes) != expected:
                problems.append(f"{label}: {len(codes)} tilings, transfer matrix says {expected}")
            if len(set(codes)) != len(codes):
                problems.append(f"{label}: a tiling is enumerated twice")
            by_bit = {b: d for d, b in bits.items()}
            for code in codes:
                dominoes = [d for b, d in by_bit.items() if code & b]
                if not refs.is_exact_cover(cells, dominoes):
                    problems.append(f"{label}: an enumerated tiling is not an exact cover")
                    break
            ends = [tiler.min_tiling(graph, weights), tiler.max_tiling(graph, weights)]
            ends = [sum(bits[d] for d in t.dominoes) for t in ends]
            if codes[:1] + codes[-1:] != ends:
                problems.append(f"{label}: enumeration does not run from min to max")
        first = [None if c is None else hash(tuple(c)) for c in records["rounds"][0]]
        return problems + _rounds_agree([first] + records["rounds"][1:])

    def memory_texts(self, inputs):
        return [text for _, text, *_ in inputs["figures"]]


def _domino_bits(text):
    """One bit per domino that fits in the figure, keyed like
    `Tiling.dominoes`: ((x, y), (x', y')) with the smaller cell first."""
    cells = refs.figure_cells(text)
    bits = {}
    for x, y in sorted(cells):
        for nb in ((x + 1, y), (x, y + 1)):
            if nb in cells:
                bits[((x, y), nb)] = 1 << len(bits)
    return bits


class Sample:
    """One `sample_uniform` call with a fixed seed."""

    name = "sample"
    SAMPLES_PER_FIGURE = 2  # per round

    def build(self, tiler, seed, small):
        side = 4 if small else 8
        centre = side // 2 - 1
        texts = [
            ("square", figures.draw(side, side)),
            ("two-cells", figures.draw(side, side, [(centre - 1, centre - 1), (centre, centre + 1)])),
            ("2x2-hole", figures.draw(side, side, figures.block(centre, centre))),
        ]
        built = []
        for label, text in texts:
            _, graph, _, weights = tiler.pipeline(text)
            built.append((label, text, graph, weights))
        return {"seed": seed, "figures": built}

    def seeds(self, inputs, r):
        rng = random.Random(f"{inputs['seed']}/{r}")
        return [rng.getrandbits(48) for _ in range(self.SAMPLES_PER_FIGURE)]

    def run_round(self, tiler, inputs, r, clock):
        outputs = []
        for seed in self.seeds(inputs, r):
            for label, _, graph, weights in inputs["figures"]:
                tiling = clock.op(label, tiler.sample_uniform, graph, weights, seed)
                outputs.append((label, seed, None if tiling is clock.FAILED else tiling))
        return outputs

    def check(self, tiler, inputs, records):
        problems = _failed_ok(records, set())
        figs = {label: rest for label, *rest in inputs["figures"]}
        for outputs in records["rounds"]:
            for label, seed, tiling in outputs:
                if tiling is None:
                    continue
                if not refs.is_exact_cover(refs.figure_cells(figs[label][0]), tiling.dominoes):
                    problems.append(f"{label}: sample {seed} is not an exact cover")
        for label, seed, tiling in records["rounds"][0][: len(figs)]:
            text, graph, weights = figs[label]
            if tiler.sample_uniform(graph, weights, seed).axes != tiling.axes:
                problems.append(f"{label}: seed {seed} does not reproduce its sample")
        problems += _chi_square_4x4(tiler)
        return problems

    def memory_texts(self, inputs):
        return [text for _, text, *_ in inputs["figures"]]


def _chi_square_4x4(tiler):
    """Uniformity of `sample_uniform` on the 4x4 square over the fixed seeds
    0..359, against the 36 tilings the transfer matrix counts."""
    text = figures.draw(4, 4)
    _, graph, _, weights = tiler.pipeline(text)
    tilings = refs.count_tilings(refs.figure_cells(text))
    n = tilings * CHI2_SAMPLES_PER_TILING
    seen = {}
    for seed in range(n):
        axes = tiler.sample_uniform(graph, weights, seed).axes
        seen[axes] = seen.get(axes, 0) + 1
    if len(seen) > tilings:
        return [f"4x4: {len(seen)} distinct samples, only {tilings} tilings exist"]
    expected = n / tilings
    observed = list(seen.values()) + [0] * (tilings - len(seen))
    chi2 = sum((o - expected) ** 2 / expected for o in observed)
    if chi2 > CHI2_4X4_CRITICAL:
        return [f"4x4: chi-square {chi2:.1f} exceeds {CHI2_4X4_CRITICAL}"]
    return []


def block_tiling(rng, side, hole_corners):
    """A seeded tiling of a square of even side minus aligned 2x2 holes:
    every other aligned 2x2 block is two horizontal or two vertical
    dominoes."""
    holes = set(hole_corners)
    dominoes = []
    for x in range(0, side, 2):
        for y in range(0, side, 2):
            if (x, y) in holes:
                continue
            if rng.random() < 0.5:
                dominoes += [((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1))]
            else:
                dominoes += [((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))]
    return dominoes


class Distance:
    """One pair of tilings as JSON domino lists -> validated heights, flip
    distance and a shortest flip path, as `tiler dist --path` computes them."""

    name = "distance"
    # (label, side, lower-left corners of aligned 2x2 holes).  The holes are
    # fixed: where they sit sets the min->max path length, which would move
    # the metrics by a quarter from seed to seed.  The seed picks the two
    # block tilings T1 and T2, whose distances to min and max concentrate.
    FIGURES = (
        ("square", 16, ()),
        ("block-hole", 16, ((6, 8),)),
        ("block-holes", 20, ((4, 12), (12, 6))),
    )
    SMALL_FIGURES = (("square", 4, ()), ("block-hole", 8, ((2, 4),)))
    PAIRS = (("min", "max"), ("min", "T1"), ("T1", "max"), ("min", "T2"), ("T2", "max"), ("T1", "T2"))
    # Operation costs fall in clusters: T1-T2 (about 10 ms), the 16x16
    # middle pairs (30 ms), the 16x16 min-max and 20x20 middle pairs
    # (80 ms), the 20x20 min-max pairs (230 ms).  Running the largest
    # figure's min-max both ways puts the median in the middle of the 30 ms
    # cluster and p95 in the middle of the 230 ms one, away from the edges
    # where a few operations more or less would move them.
    BOTH_WAYS = "block-holes"

    def build(self, tiler, seed, small):
        rng = random.Random(seed)
        built = []
        for label, side, corners in self.SMALL_FIGURES if small else self.FIGURES:
            holes = [c for x, y in corners for c in figures.block(x, y)]
            text = figures.draw(side, side, holes)
            _, graph, _, weights = tiler.pipeline(text)
            hmin, _ = tiler.minimal_height(graph, weights)
            hmax, _ = tiler.maximal_height(graph, weights)
            tmin = tiler.tiling_of_height(graph, weights, hmin)
            tmax = tiler.tiling_of_height(graph, weights, hmax)
            cg = tiler.forced_components(graph, weights, tmin)
            t1, t2 = (
                tiler.validate_tiling(graph, block_tiling(rng, side, corners))
                for _ in range(2)
            )
            js = {
                name: json.dumps(tiler.tiling_to_json(t))
                for name, t in (("min", tmin), ("max", tmax), ("T1", t1), ("T2", t2))
            }
            pairs = list(self.PAIRS) + ([("max", "min")] if label == self.BOTH_WAYS else [])
            built.append(
                {
                    "label": label, "side": side, "holes": len(corners), "text": text,
                    "graph": graph, "weights": weights, "cg": cg, "json": js,
                    "pairs": pairs,
                }
            )
        return {"figures": built}

    @staticmethod
    def operation(tiler, fig, first, second):
        graph, weights, cg = fig["graph"], fig["weights"], fig["cg"]
        heights = []
        for text in (first, second):
            dominoes = tiler.render.dominoes_from_json(json.loads(text))
            tiling = tiler.validate_tiling(graph, dominoes)
            heights.append(tiler.height_of_tiling(graph, weights, tiling))
        h1, h2 = heights
        return tiler.flip_distance(h1, h2, cg), tiler.flip_path(cg, weights, h1, h2)

    @staticmethod
    def digest(out):
        dist, path = out
        return dist, len(path), hash(tuple(path))

    def run_round(self, tiler, inputs, r, clock):
        outputs = []
        for fig in inputs["figures"]:
            for a, b in fig["pairs"]:
                label = f"{fig['label']}:{a}-{b}"
                out = clock.op(label, self.operation, tiler, fig, fig["json"][a], fig["json"][b])
                if out is clock.FAILED:
                    out = None
                elif r:
                    out = self.digest(out)
                outputs.append(out)
        return outputs

    def check(self, tiler, inputs, records):
        problems = _failed_ok(records, set())
        outputs = iter(records["rounds"][0])
        digests = []
        for fig in inputs["figures"]:
            label, graph, weights, cg = fig["label"], fig["graph"], fig["weights"], fig["cg"]
            cells = refs.figure_cells(fig["text"])
            heights, tilings = {}, {}
            for name, text in fig["json"].items():
                dominoes = tiler.render.dominoes_from_json(json.loads(text))
                if not refs.is_exact_cover(cells, dominoes):
                    problems.append(f"{label}: input {name} is not an exact cover")
                tilings[name] = tiler.validate_tiling(graph, dominoes)
                heights[name] = tiler.height_of_tiling(graph, weights, tilings[name])
            dist = {}
            for a, b in fig["pairs"]:
                out = next(outputs)
                if out is None:
                    digests.append(None)
                    continue
                d, path = out
                digests.append(self.digest(out))
                dist[a, b] = d
                if len(path) != d:
                    problems.append(f"{label}: path {a}-{b} has {len(path)} flips, distance {d}")
                h = heights[a]
                for flip in path:
                    h = tiler.apply_flip(cg, weights, h, flip)
                if tiler.tiling_of_height(graph, weights, h).axes != tilings[b].axes:
                    problems.append(f"{label}: path {a}-{b} does not reach {b}")
                if tiler.flip_distance(heights[b], heights[a], cg) != d:
                    problems.append(f"{label}: distance {a}-{b} is not symmetric")
            for name, h in heights.items():
                if tiler.flip_distance(h, h, cg) or tiler.flip_path(cg, weights, h, h):
                    problems.append(f"{label}: d({name}, {name}) is not 0")
            for t in ("T1", "T2"):
                if ("min", t) in dist and (t, "max") in dist and ("min", "max") in dist:
                    if dist["min", t] + dist[t, "max"] != dist["min", "max"]:
                        problems.append(f"{label}: d(min,{t}) + d({t},max) != d(min,max)")
            if not fig["holes"] and dist.get(("min", "max")) != refs.square_flip_distance(fig["side"]):
                problems.append(f"{label}: d(min, max) differs from n(4n^2-1)/3")
        return problems + _rounds_agree([digests] + records["rounds"][1:])

    def memory_texts(self, inputs):
        return [fig["text"] for fig in inputs["figures"]]


WORKLOADS = {w.name: w for w in (Extremal(), Enumerate(), Sample(), Distance())}
