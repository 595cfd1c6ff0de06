"""Each demo, and README's library example and command lines, run against the sources in this checkout."""

import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import cowsec.cli as cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, args",
    [
        ("channel_walkthrough.py", []),
        ("montecarlo_validation.py", []),
        ("qber_curves.py", ["qber_curves.csv"]),
        ("source_intensity_optimization.py", ["optimal_intensity.csv"]),
    ],
)
def test_demo_runs(demo, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *(str(tmp_path / a) for a in args)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert all((tmp_path / a).is_file() for a in args)


def test_readme_library_example_prints_what_its_comments_say():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    with redirect_stdout(StringIO()) as out:
        exec(block, {})
    comments = [line.split("# ")[1].split()[0] for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().split()
    assert len(printed) == len(comments) == 3
    for value, comment in zip(printed, comments):
        decimals = len(comment.partition(".")[2])
        assert f"{float(value):.{decimals}f}" == comment


def test_readme_command_lines_run(tmp_path):
    block = re.search(r"## Command line\n\n```\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == 4
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "cowsec", line
        out = None
        if "--out" in argv:
            at = argv.index("--out") + 1
            out = tmp_path / argv[at]
            argv[at] = str(out)
        with redirect_stdout(StringIO()):
            assert cli.main(argv) == 0, line
        assert out is None or out.is_file(), line
