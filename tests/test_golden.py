"""Golden CLI outputs: the stdout and exit code of each verb run with
`--json` on the corpus, compared byte for byte with `golden/cli.json`.

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


def cases() -> dict:
    """Case id -> (corpus figure, verb and options)."""
    out = {}
    for name in sorted(CORPUS):
        for verb in ("check", "min", "max", "components", "eq"):
            out[f"{verb}/{name}"] = (name, [verb])
        out[f"sample/{name}"] = (name, ["sample", "--seed", "0", "-n", "3"])
        if name in ENUMERABLE:
            out[f"count/{name}"] = (name, ["count"])
            out[f"enum/{name}"] = (name, ["enum", "--limit", "50"])
        if COUNTS.get(name) != 0:
            out[f"dist/{name}"] = (name, ["dist", "--path"])
    return out


def _cli(argv):
    """(stdout, exit code) of one in-process CLI run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    return out.getvalue(), code


def run_case(name, verb, directory) -> dict:
    """The output of one case; `dist` runs from the figure's min tiling to
    its max tiling, both written by the CLI itself."""
    figure = pathlib.Path(directory) / f"{name}.txt"
    figure.write_text(CORPUS[name] + "\n", encoding="utf-8")
    argv = [verb[0], str(figure)]
    if verb[0] == "dist":
        for end in ("min", "max"):
            tiling = pathlib.Path(directory) / f"{end}.json"
            tiling.write_text(_cli([end, str(figure)])[0], encoding="utf-8")
            argv.append(str(tiling))
    stdout, code = _cli(argv + verb[1:])
    return {"stdout": stdout, "code": code}


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
