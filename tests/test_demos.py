"""Smoke test: every script in demos/ runs to completion, and the ones
with recorded output print it unchanged."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# coupled_tops.py is the top moment law's only caller outside the tests
RECORDED = {"coupled_tops": ROOT / "tests" / "coupled_tops.stdout"}


def test_demos_found():
    # an empty glob would parametrize nothing and pass silently
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if script.stem in RECORDED:
        assert result.stdout == RECORDED[script.stem].read_text()
