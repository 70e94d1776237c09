"""The experiment scripts run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "anchor_coverage.py": ["--budgets", "10,20", "--train-images", "60", "--test-images", "5"],
    "offset_ablation.py": ["--train-images", "60", "--test-images", "10", "--k", "30"],
    "run_demo.py": ["--k", "30", "--train-images", "60", "--test-images", "5",
                    "--out-dir", "demo"],
}


@pytest.mark.parametrize("script", list(SCRIPTS))
def test_script_exits_cleanly(script, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
