"""Golden CLI outputs: the stdout, stderr and exit code of each verb run with
`--json` on the corpus, and of inputs the CLI rejects, compared byte for
byte with `golden/cli.json`.

The file pins every output a refactor must leave unchanged.  Regenerate it
only when an output is meant to change, from the repository root:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from tiler.cli import main

from .conftest import CORPUS, COUNTS, ENUMERABLE

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"

# Inputs the CLI rejects with exit 2, by case id: (figure text, verb and
# options, the dominoes of `dist`'s first tiling).  No message names a file.
BAD_INPUTS = {
    "check/bad/ragged": ("##\n#", ["check"], None),
    "check/bad/bad-character": ("##\n#x", ["check"], None),
    "dist/bad/non-adjacent": ("##\n##", ["dist"], [[[0, 0], [1, 1]], [[0, 1], [1, 0]]]),
    "dist/bad/overlapping": ("##\n##", ["dist"], [[[0, 0], [0, 1]], [[0, 0], [1, 0]]]),
}


def cases() -> dict:
    """Case id -> (figure text, verb and options, dominoes of `dist`'s first
    tiling or None for the figure's min tiling)."""
    out = dict(BAD_INPUTS)
    for name in sorted(CORPUS):
        text = CORPUS[name]
        for verb in ("check", "min", "max", "components", "eq"):
            out[f"{verb}/{name}"] = (text, [verb], None)
        out[f"sample/{name}"] = (text, ["sample", "--seed", "0", "-n", "3"], None)
        if name in ENUMERABLE:
            out[f"count/{name}"] = (text, ["count"], None)
            out[f"enum/{name}"] = (text, ["enum", "--limit", "50"], None)
        if COUNTS.get(name) != 0:
            out[f"dist/{name}"] = (text, ["dist", "--path"], None)
    return out


def _cli(argv):
    """(stdout, stderr, exit code) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    return out.getvalue(), err.getvalue(), code


def run_case(text, verb, first, directory) -> dict:
    """The output of one case; `dist` runs from the figure's min tiling (or
    the given first dominoes) to its max tiling, written by the CLI itself."""
    figure = pathlib.Path(directory) / "figure.txt"
    figure.write_text(text + "\n", encoding="utf-8")
    argv = [verb[0], str(figure)]
    if verb[0] == "dist":
        for end in ("min", "max"):
            tiling = pathlib.Path(directory) / f"{end}.json"
            tiling.write_text(_cli([end, str(figure)])[0], encoding="utf-8")
            argv.append(str(tiling))
        if first is not None:
            pathlib.Path(argv[2]).write_text(json.dumps({"dominoes": first}), encoding="utf-8")
    stdout, stderr, code = _cli(argv + verb[1:])
    return {"stdout": stdout, "stderr": stderr, "code": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_match_golden_file(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_output(case, golden, tmp_path):
    assert run_case(*cases()[case], tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {case: run_case(*spec, tmp) for case, spec in sorted(cases().items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
