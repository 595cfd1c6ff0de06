"""Each demo runs to completion against the sources in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
