"""Tests of the benchmark's references, and smoke runs of every workload on
its smallest inputs.  Nothing here depends on timings."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import refs  # noqa: E402
from tests.conftest import CORPUS  # noqa: E402
from tiler import (  # noqa: E402
    brute_enumerate,
    flip_distance,
    forced_components,
    maximal_height,
    min_tiling,
    minimal_height,
    parse_figure,
    pipeline,
)

END_TO_END = {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
WORKLOADS = ["extremal", "enumerate", "sample", "distance"]


def square(side):
    return "\n".join(["#" * side] * side)


def test_transfer_matrix_matches_oeis_a004003():
    counts = [refs.count_tilings(refs.figure_cells(square(s))) for s in (2, 4, 6, 8)]
    assert counts == [2, 36, 6728, 12988816]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_transfer_matrix_matches_oracle(name):
    cells = refs.figure_cells(CORPUS[name])
    if len(cells) > 24:
        pytest.skip("beyond the oracle's cell cap")
    assert refs.count_tilings(cells) == len(brute_enumerate(parse_figure(CORPUS[name])))


def test_transfer_matrix_is_orientation_free():
    tall = "##\n##\n#.\n##\n##\n##\n.#\n##"
    wide = "\n".join("".join(row) for row in zip(*tall.splitlines()))
    assert refs.count_tilings(refs.figure_cells(tall)) == refs.count_tilings(
        refs.figure_cells(wide)
    )


def test_exact_cover_checker():
    text = "####\n#..#\n#..#\n####"
    cells = refs.figure_cells(text)
    _, graph, _, weights = pipeline(text)
    good = [tuple(map(tuple, d)) for d in min_tiling(graph, weights).dominoes]
    assert refs.is_exact_cover(cells, good)
    assert not refs.is_exact_cover(cells, good[:-1])  # gap
    assert not refs.is_exact_cover(cells, good + good[:1])  # overlap
    assert not refs.is_exact_cover(cells, good[:-1] + [((1, 1), (1, 2))])  # in a hole
    a, b = good[0]
    assert not refs.is_exact_cover(cells, good[1:] + [(a, (a[0] + 3, a[1]))])  # not a domino


@pytest.mark.parametrize("side", [2, 4, 6, 8])
def test_square_closed_form_matches_tiler(side):
    _, graph, _, weights = pipeline(square(side))
    hmin, _ = minimal_height(graph, weights)
    hmax, _ = maximal_height(graph, weights)
    cg = forced_components(graph, weights, min_tiling(graph, weights))
    assert flip_distance(hmin, hmax, cg) == refs.square_flip_distance(side)


def test_square_closed_form_values():
    assert [refs.square_flip_distance(s) for s in (16, 24)] == [680, 2300]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    got = set(result["metrics"])
    # The smallest inputs have too few operations for a tail percentile.
    assert got == expected or (not trace and got == expected - {"op_tail_ms"})


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "extremal", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
