"""Exhaustive enumeration in lexicographic order and exact uniform
sampling."""

import collections
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys

import pytest

import tiler
from tiler import generation
from tiler.components import forced_components
from tiler.cli import main
from tiler.errors import NotTileable, TooLarge
from tiler.flips import DOWN, UP, flip_distance
from tiler.generation import (
    component_order,
    count_tilings,
    enumerate_tilings,
    plan_update,
    sample_uniform,
)
from tiler.lattice import max_tiling, min_tiling, minimal_height
from tiler.oracle import brute_enumerate
from tiler.tiling import height_of_tiling

from .conftest import CORPUS, COUNTS, built
from .stepwise import assert_samples_match_reference, assert_successors_match_stepwise


class TestEnumerate:
    def test_counts(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        assert count_tilings(graph, weights) == COUNTS[enumerable_name]

    def test_equals_oracle(self, enumerable_name):
        fig, graph, _, weights = built(enumerable_name)
        ours = sorted(t.dominoes for t in enumerate_tilings(graph, weights))
        assert ours == brute_enumerate(fig)

    def test_first_min_last_max(self, enumerable_name):
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        tilings = list(enumerate_tilings(graph, weights))
        assert tilings[0] == min_tiling(graph, weights)
        assert tilings[-1] == max_tiling(graph, weights)

    def test_no_duplicates(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        tilings = [t.canonical() for t in enumerate_tilings(graph, weights)]
        assert len(set(tilings)) == len(tilings)

    def test_lex_monotone(self, enumerable_name):
        # Height tuples at ordered component representatives strictly
        # increase in reverse-lexicographic reading order.
        if COUNTS[enumerable_name] == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(enumerable_name)
        cg = forced_components(graph, weights, min_tiling(graph, weights))
        reps = [graph.vertices[cg.representatives[i]] for i in component_order(cg)]
        keys = [
            tuple(height_of_tiling(graph, weights, t).h[v] for v in reps)
            for t in enumerate_tilings(graph, weights)
        ]
        for k1, k2 in zip(keys, keys[1:]):
            assert k1 < k2

    def test_successors_match_stepwise(self, enumerable_name):
        _, graph, _, weights = built(enumerable_name)
        assert_successors_match_stepwise(graph, weights)

    def test_one_relaxation_per_figure(self, enumerable_name, monkeypatch):
        calls = []

        def recording(graph, weights):
            calls.append(graph)
            return minimal_height(graph, weights)

        monkeypatch.setattr(generation, "minimal_height", recording)
        _, graph, _, weights = built(enumerable_name)
        assert sum(1 for _ in enumerate_tilings(graph, weights)) == COUNTS[enumerable_name]
        assert calls == [graph]


class TestPlanUpdate:
    def test_deterministic(self):
        assert plan_update(123, 41, 7) == plan_update(123, 41, 7)

    def test_varies_with_time(self):
        picks = {p for when in range(1, 64, 8) for p in plan_update(5, when, 97)}
        assert len(picks) > 16

    def test_block_equals_hashlib(self):
        # The block of times when ... when + 7 reads the eight little-endian
        # words of one 64-byte digest of (seed mod 2^64, (when - 1) // 8).
        for seed in (0, 5, 2**64 + 5, -1):
            for block in range(32):
                key = struct.pack("<QQ", seed % 2**64, block)
                digest = hashlib.blake2b(key, digest_size=64).digest()
                words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 64, 8)]
                expected = [((u >> 1) % 97, UP if u % 2 else DOWN) for u in words]
                assert plan_update(seed, 8 * block + 1, 97) == expected

    def test_first_block_pinned(self):
        # Any change to the update stream changes this literal, and with it
        # the sample each seed returns.
        assert plan_update(0, 1, 97) == [
            (66, UP),
            (13, DOWN),
            (47, UP),
            (37, UP),
            (5, UP),
            (18, UP),
            (2, UP),
            (87, UP),
        ]


class TestBlake2b:
    def test_same_as_hashlib(self):
        # So digests, and every sample, are the ones hashlib gives.
        assert generation.blake2b is hashlib.blake2b

    def test_openssl_not_loaded(self):
        src = os.path.dirname(os.path.dirname(tiler.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, tiler\n"
            "_, graph, _, weights = tiler.pipeline('##\\n##')\n"
            "tiler.sample_uniform(graph, weights, 0)\n"
            "print('_hashlib' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "False"

    def test_standard_library_only(self):
        # `-S` keeps site-packages start-up hooks out of the child, so every
        # module it loads comes from tiler or from the standard library.
        src = os.path.dirname(os.path.dirname(tiler.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import json, sys, tiler, tiler.cli\n"
            "_, graph, _, weights = tiler.pipeline(sys.argv[1])\n"
            "tiler.count_tilings(graph, weights)\n"
            "list(tiler.enumerate_tilings(graph, weights))\n"
            "tiler.sample_uniform(graph, weights, 0)\n"
            "print(json.dumps(sorted(\n"
            "    name for name in sys.modules\n"
            "    if name != '__main__' and name.split('.')[0] != 'tiler'\n"
            "    and name.split('.')[0] not in sys.stdlib_module_names\n"
            ")))\n"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, CORPUS["4x4-minus-2x2"]],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert json.loads(out.stdout) == []


class TestSampleUniform:
    def test_deterministic(self):
        _, graph, _, weights = built("2x4")
        for seed in range(20):
            a = sample_uniform(graph, weights, seed)
            b = sample_uniform(graph, weights, seed)
            assert a == b

    def test_sample_is_a_known_tiling(self):
        _, graph, _, weights = built("3x4")
        known = {t.canonical() for t in enumerate_tilings(graph, weights)}
        for seed in range(50):
            assert sample_uniform(graph, weights, seed).canonical() in known

    def test_unique_tiling_shortcut(self):
        _, graph, _, weights = built("1x2")
        assert sample_uniform(graph, weights, 0) == min_tiling(graph, weights)

    def test_untileable(self):
        _, graph, _, weights = built("t-tetromino")
        with pytest.raises(NotTileable):
            sample_uniform(graph, weights, 0)

    def test_rough_uniformity_2x2(self):
        _, graph, _, weights = built("2x2")
        counts = collections.Counter(
            sample_uniform(graph, weights, seed).canonical()
            for seed in range(2000)
        )
        assert len(counts) == 2
        assert all(800 <= c <= 1200 for c in counts.values())

    def test_holed_figure(self):
        _, graph, _, weights = built("4x4-minus-2x2")
        counts = collections.Counter(
            sample_uniform(graph, weights, seed).canonical()
            for seed in range(400)
        )
        assert len(counts) == 2
        assert all(120 <= c <= 280 for c in counts.values())

    def test_sandwich_violation_detected(self, monkeypatch):
        # Chains alternate lower, upper: push the lower chain's component up
        # regardless of availability and leave the upper chain alone, so the
        # lower chain soon passes the upper one.
        from tiler import generation

        calls = itertools.count()

        def lower_chain_only(cg, heights, i, direction):
            n = next(calls)
            if n > 10_000:
                raise RuntimeError("the sandwich check never fired")
            if n % 2 == 0:
                heights[i] += 4
            return True

        monkeypatch.setattr(generation, "try_flip_inplace", lower_chain_only)
        _, graph, _, weights = built("3x4")
        with pytest.raises(AssertionError, match="CFTP sandwich property violated"):
            sample_uniform(graph, weights, 0)

    def test_window_cap(self, monkeypatch):
        # One update cannot join the 4x4 square's minimum and maximum.
        monkeypatch.setattr(generation, "WINDOW_CAP", 1)
        _, graph, _, weights = built("4x4")
        with pytest.raises(TooLarge, match="did not coalesce"):
            sample_uniform(graph, weights, 0)

    def test_window_cap_cli(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(generation, "WINDOW_CAP", 1)
        path = tmp_path / "4x4.txt"
        path.write_text(CORPUS["4x4"])
        assert main(["sample", str(path), "--seed", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_matches_reference(self, corpus_name):
        if COUNTS.get(corpus_name) == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = built(corpus_name)
        assert_samples_match_reference(graph, weights, range(50))

    def test_8x8_runs(self):
        _, graph, _, weights = built("8x8-two-holes")
        t = sample_uniform(graph, weights, 2026)
        assert len(t.dominoes) == 31

    def test_tiling_memory(self):
        """A sampled 8x8 tiling holds its 32 axes in a sorted tuple: 336 B
        with the object under CPython 3.11, at most 400 (2320 B when the
        axes were a frozenset)."""
        _, graph, _, weights = tiler.pipeline("\n".join(["#" * 8] * 8))
        t = sample_uniform(graph, weights, 0)
        assert len(t.axes) == 32 and list(t.axes) == sorted(t.axes)
        assert sys.getsizeof(t) + sys.getsizeof(t.axes) <= 400


def chi2_sf(x, df):
    """P(X > x) for X chi-square with an integer df, by the closed forms:
    e^(-x/2) times a Poisson tail for even df, plus erfc for odd df."""
    h = x / 2
    if df % 2 == 0:
        term, total = math.exp(-h), 0.0
        for i in range(df // 2):
            total += term
            term *= h / (i + 1)
        return total
    term, total = math.exp(-h) * math.sqrt(h) / math.gamma(1.5), math.erfc(math.sqrt(h))
    for i in range(df // 2):
        total += term
        term *= h / (i + 1.5)
    return total


class TestChi2:
    @pytest.mark.parametrize(
        "x, df", [(3.841459, 1), (5.991465, 2), (7.814728, 3), (18.307038, 10), (40.113272, 27)]
    )
    def test_five_percent_points(self, x, df):
        assert chi2_sf(x, df) == pytest.approx(0.05, abs=1e-6)


# Exact-distribution tests of the sampler: the flip distance from the
# minimum (the rank in the lattice) of the samples of seeds 0..1999, against
# the ranks of all enumerated tilings.  Rank bins are merged from the low end
# until each expects at least 5 samples (a short top tail joins the last
# bin); alpha = 0.001 over the two figures, 0.0005 each (Bonferroni).
RANK_FIGURES = {
    "6x6": ("\n".join(["######"] * 6), 6728),
    "6x6-minus-2x2": ("######\n######\n##..##\n##..##\n######\n######", 1444),
}
RANK_SEEDS = range(2000)
RANK_ALPHA = 0.001 / len(RANK_FIGURES)


def rank_bins(exact, seen, n):
    """(observed, expected) per merged rank bin."""
    total = sum(exact.values())
    bins, obs, exp = [], 0, 0.0
    for r in range(max(exact) + 1):
        obs, exp = obs + seen[r], exp + n * exact[r] / total
        if exp >= 5:
            bins.append((obs, exp))
            obs, exp = 0, 0.0
    if exp:
        last_obs, last_exp = bins.pop()
        bins.append((last_obs + obs, last_exp + exp))
    return bins


class TestExactDistribution:
    @pytest.mark.parametrize("name", sorted(RANK_FIGURES))
    def test_rank_chi_square(self, name):
        text, count = RANK_FIGURES[name]
        _, graph, _, weights = tiler.pipeline(text)
        hmin, _ = minimal_height(graph, weights)
        cg = forced_components(graph, weights, min_tiling(graph, weights))

        def rank(tiling):
            return flip_distance(hmin, height_of_tiling(graph, weights, tiling), cg)

        exact = collections.Counter(rank(t) for t in enumerate_tilings(graph, weights))
        assert sum(exact.values()) == count
        seen = collections.Counter(rank(sample_uniform(graph, weights, s)) for s in RANK_SEEDS)
        assert set(seen) <= set(exact)
        bins = rank_bins(exact, seen, len(RANK_SEEDS))
        chi2 = sum((o - e) ** 2 / e for o, e in bins)
        print(f"{name}: chi-square {chi2:.1f}, {len(bins) - 1} degrees of freedom")
        assert chi2_sf(chi2, len(bins) - 1) > RANK_ALPHA
