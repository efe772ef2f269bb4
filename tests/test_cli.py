"""Command-line interface: verbs, exit codes and JSON output."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiler
from tiler import generation
from tiler.cli import main
from tiler.components import forced_components
from tiler.generation import sample_uniform
from tiler.lattice import min_tiling, minimal_height
from tiler.render import render_tiling, tiling_to_json

from .conftest import CORPUS, COUNTS
from .stepwise import grid_arcs


@pytest.fixture
def fig_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.txt"
        path.write_text(CORPUS[name] + "\n", encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_tileable(self, capsys, fig_file):
        code, out, _ = run(capsys, "check", fig_file("2x2"), "--json")
        assert code == 0
        info = json.loads(out)
        assert info["cells"] == 4
        assert info["tileable"] is True
        assert info["equilibrium_ok"] is True

    def test_untileable_exit_code(self, capsys, fig_file):
        code, out, _ = run(capsys, "check", fig_file("t-tetromino"))
        assert code == 1
        assert "tileable: False" in out


class TestMinMax:
    def test_min_render(self, capsys, fig_file):
        code, out, _ = run(capsys, "min", fig_file("2x2"))
        assert code == 0
        assert out == "ab\nab\n"

    def test_min_max_differ(self, capsys, fig_file):
        path = fig_file("2x4")
        _, lo, _ = run(capsys, "min", path, "--json")
        _, hi, _ = run(capsys, "max", path, "--json")
        assert json.loads(lo) != json.loads(hi)

    def test_untileable(self, capsys, fig_file):
        code, _, err = run(capsys, "min", fig_file("l-tromino"))
        assert code == 1
        assert err.startswith("untileable: outer boundary heights are contradictory")
        assert "GridVertex(x=0, y=0, copy=0)" in err


class TestCountEnum:
    def test_count(self, capsys, fig_file):
        code, out, _ = run(capsys, "count", fig_file("3x4"))
        assert (code, out.strip()) == (0, "11")

    def test_count_json(self, capsys, fig_file):
        _, out, _ = run(capsys, "count", fig_file("2x4"), "--json")
        assert json.loads(out)["count"] == 5

    def test_enum_json(self, capsys, fig_file):
        _, out, _ = run(capsys, "enum", fig_file("2x3"), "--json")
        assert len(json.loads(out)["tilings"]) == 3

    def test_enum_limit(self, capsys, fig_file):
        _, out, _ = run(capsys, "enum", fig_file("4x4"), "--json", "--limit", "2")
        assert len(json.loads(out)["tilings"]) == 2

    def test_oracle_count(self, capsys, fig_file):
        _, out, _ = run(capsys, "oracle-count", fig_file("3x4"))
        assert out.strip() == "11"


class TestSample:
    def test_seeded_and_repeatable(self, capsys, fig_file):
        path = fig_file("2x4")
        code, out1, _ = run(capsys, "sample", path, "--seed", "3", "-n", "4", "--json")
        assert code == 0
        _, out2, _ = run(capsys, "sample", path, "--seed", "3", "-n", "4", "--json")
        assert out1 == out2
        assert len(json.loads(out1)["samples"]) == 4

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_prepares_once(self, capsys, fig_file, monkeypatch, as_json):
        # One min, max and components per figure; the same tilings as five
        # separate sample_uniform calls.
        calls = []

        def recording(graph, weights):
            calls.append(graph)
            return minimal_height(graph, weights)

        monkeypatch.setattr(generation, "minimal_height", recording)
        flag = ["--json"] if as_json else []
        code, out, _ = run(capsys, "sample", fig_file("4x4"), "--seed", "3", "-n", "5", *flag)
        assert code == 0
        assert len(calls) == 1
        figure, graph, _, weights = tiler.pipeline(CORPUS["4x4"])
        tilings = [sample_uniform(graph, weights, seed) for seed in range(3, 8)]
        if as_json:
            assert [s["dominoes"] for s in json.loads(out)["samples"]] == [
                tiling_to_json(t)["dominoes"] for t in tilings
            ]
        else:
            assert out == "".join(render_tiling(figure, t) + "\n\n" for t in tilings)

    def test_seed_required(self, capsys, fig_file):
        with pytest.raises(SystemExit) as exc:
            main(["sample", fig_file("2x2")])
        assert exc.value.code == 2


class TestDist:
    def test_min_to_max(self, capsys, fig_file, tmp_path):
        path = fig_file("4x4-minus-2x2")
        _, lo, _ = run(capsys, "min", path, "--json")
        _, hi, _ = run(capsys, "max", path, "--json")
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        t1.write_text(lo)
        t2.write_text(hi)
        code, out, _ = run(capsys, "dist", path, str(t1), str(t2), "--json", "--path")
        assert code == 0
        result = json.loads(out)
        assert result["distance"] == 1
        assert result["local_flip_connected"] is False
        assert len(result["path"]) == 1

    def test_local_count(self, capsys, fig_file, tmp_path):
        path = fig_file("2x2")
        _, lo, _ = run(capsys, "min", path, "--json")
        _, hi, _ = run(capsys, "max", path, "--json")
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        t1.write_text(lo)
        t2.write_text(hi)
        _, out, _ = run(capsys, "dist", path, str(t1), str(t2), "--json")
        result = json.loads(out)
        assert result["local_flip_connected"] is True
        assert result["local_flip_count"] == 1


class TestDiagnostics:
    def test_components(self, capsys, fig_file):
        _, out, _ = run(capsys, "components", fig_file("4x4-minus-2x2"), "--json")
        result = json.loads(out)
        kinds = sorted(c["kind"] for c in result["components"])
        assert kinds == ["hole", "infinity"]

    def test_components_edges(self, capsys, fig_file, corpus_name):
        # The quotient edges, JSON and text, are the component pairs that
        # some figure arc joins.
        if COUNTS.get(corpus_name) == 0:
            pytest.skip("untileable figure")
        _, graph, _, weights = tiler.pipeline(CORPUS[corpus_name])
        cg = forced_components(graph, weights, min_tiling(graph, weights))
        comp = dict(zip(graph.vertices, cg.comp_of))
        pairs = sorted(
            {
                (min(i, j), max(i, j))
                for i, j in ((comp[u], comp[v]) for u, v in grid_arcs(graph))
                if i != j
            }
        )
        path = fig_file(corpus_name)
        _, out, _ = run(capsys, "components", path, "--json")
        assert json.loads(out)["edges"] == [list(p) for p in pairs]
        _, out, _ = run(capsys, "components", path)
        edges = [line for line in out.splitlines() if line.startswith("edge:")]
        assert edges == [f"edge: {i} -- {j}" for i, j in pairs]

    def test_eq(self, capsys, fig_file):
        _, out, _ = run(capsys, "eq", fig_file("3x3-ring"), "--json")
        result = json.loads(out)
        assert result["steps"] == {"0": -4}
        assert len(result["arcs"]) == 4  # two crossed edges, both directions

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "min", "/no/such/file")
        assert code == 2
        assert "error:" in err

    def test_bad_figure(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("#?\n##")
        code, _, err = run(capsys, "min", str(bad))
        assert code == 2
        assert "error:" in err


def exit_code(*argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


TILING_2X2 = b'{"dominoes": [[[0, 0], [0, 1]], [[1, 0], [1, 1]]]}'


class TestBadInput:
    @pytest.mark.parametrize(
        "figure, tiling",
        [
            (b"##\n##\n", b'{"dominoes": [[[0, 0, 1], [0, 1]], [[1, 0], [1, 1]]]}'),
            (b"##\n##\n", b'{"dominoes": [[[0, 0], [0.0, 1]], [[1, 0], [1, 1]]]}'),
            (b"##\n##\n", b'{"dominoes": [[[0, 0], [0, true]], [[1, 0], [1, 1]]]}'),
            (b"##\n##\n", b'{"dominoes": [[0, 0], [0, 1'),
            (b"##\n##\n", b"\xff\xfe{}"),
            (b"\xff#\n##\n", TILING_2X2),
            (b"##\n##\n", b'{"dominoes": [[[0, 0], [1, 1]], [[1, 0], [0, 1]]]}'),
            (b"##\n##\n", b'{"dominoes": [[[0, 0], [0, 0]], [[1, 0], [1, 1]]]}'),
        ],
        ids=[
            "three-coordinates",
            "float",
            "bool",
            "invalid-json",
            "tiling-not-utf8",
            "figure-not-utf8",
            "diagonal-domino",
            "same-cell-domino",
        ],
    )
    def test_malformed_files(self, capsys, tmp_path, figure, tiling):
        fig = tmp_path / "fig.txt"
        fig.write_bytes(figure)
        t = tmp_path / "t.json"
        t.write_bytes(tiling)
        ok = tmp_path / "ok.json"
        ok.write_bytes(TILING_2X2)
        code, _, err = run(capsys, "dist", str(fig), str(t), str(ok))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "verb, extra",
        [("enum", ["--limit", "-1"]), ("sample", ["--seed", "0", "-n", "-1"])],
    )
    def test_negative_counts(self, capsys, fig_file, verb, extra):
        assert exit_code(verb, fig_file("2x2"), *extra) == 2
        assert "error:" in capsys.readouterr().err


@st.composite
def figure_bytes(draw):
    """Random bytes, or rows of '#' and '.' up to 6x6."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    width = draw(st.integers(1, 6))
    rows = draw(
        st.lists(st.text(alphabet="#.", min_size=width, max_size=width), min_size=1, max_size=6)
    )
    return "\n".join(rows).encode()


@st.composite
def tiling_bytes(draw):
    """Random bytes, or a JSON dominoes list of small, sometimes odd cells."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    coord = st.integers(-1, 6)
    cell = st.lists(coord, min_size=1, max_size=3)
    dominoes = draw(st.lists(st.tuples(cell, cell), max_size=18))
    return json.dumps({"dominoes": dominoes}).encode()


FUZZ_VERBS = [
    ["check"],
    ["min"],
    ["max", "--json"],
    ["enum", "--limit", "3"],
    ["sample", "--seed", "1"],
    ["components"],
    ["eq"],
    ["dist", "T1", "T2", "--path"],
]


@settings(max_examples=200, deadline=None)
@given(figure_bytes(), tiling_bytes(), tiling_bytes(), st.sampled_from(FUZZ_VERBS))
def test_fuzz_exit_codes(figure, t1, t2, verb):
    # Any figure and tiling files give exit 0, 1 or 2; an exception other
    # than SystemExit escaping main would print a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in (("FIG", figure), ("T1", t1), ("T2", t2)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        argv = [verb[0], paths["FIG"]] + [paths.get(a, a) for a in verb[1:]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = exit_code(*argv)
    assert code in (0, 1, 2)


def run_child(*argv):
    """`python -m tiler.cli ARGV` in a child that imports the same `tiler`
    as this process, installed or not."""
    src = os.path.dirname(os.path.dirname(tiler.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tiler.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script(fig_file):
    out = run_child("count", fig_file("2x3"))
    assert out.returncode == 0
    assert out.stdout.strip() == "3"


@pytest.mark.parametrize("verb", ["check", "components"])
def test_deep_hole_chain(tmp_path, verb):
    # 600 stacked domino holes: the cut-line equilibrium recurses once per
    # hole of the chain and runs out of stack.  That is a resource error
    # (exit 2, one line), not a traceback.
    fig = tmp_path / "chain.txt"
    fig.write_text("\n".join(["######", "#..###"] + ["######", "##..##"] * 600 + ["######"]))
    out = run_child(verb, str(fig))
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr
    assert out.stderr.count("\n") == 1
    assert out.stdout == ""
