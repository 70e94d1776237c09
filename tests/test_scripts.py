"""The experiment scripts run end to end at tiny sizes."""

import os
import re
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


def run_script(script, args, cwd):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", list(SCRIPTS))
def test_script_exits_cleanly(script, tmp_path):
    result = run_script(script, SCRIPTS[script], tmp_path)
    assert result.returncode == 0, result.stderr


def test_anchor_coverage_reports_a_budget_over_its_training_lanes(tmp_path):
    result = run_script("anchor_coverage.py", ["--budgets", "10,1000", "--train-images", "60",
                                               "--test-images", "5"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[1]) < 1000  # "train <lanes> lanes | ..."
    budget, row = result.stdout.splitlines()[-1].split(maxsplit=1)
    # the clustered column holds the reason; the straight anchors still score
    match = re.fullmatch(r"refused: (.+) +(\d\.\d{4}) +\(\d+\.\ds\)", row)
    assert budget == "1000" and match and "exceeds" in match[1]
