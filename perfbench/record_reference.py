"""Regenerate perfbench/reference.json from the code in this checkout.

    python3 perfbench/record_reference.py

Runs every workload invocation once with --seed 12345 (the bundled
configs' own predictor seed) and stores what checks.extract reads from its
outputs.  Only rerun it on a build whose physics is trusted: the benchmark
judges every later build against this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS

SEED = 12345


def main() -> None:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    reference = {}
    for workload, invocations in WORKLOADS.items():
        reference[workload] = {}
        for inv in invocations:
            out_dir = root / ".perfbench_runs" / "reference" / workload / inv.name
            subprocess.run(
                [sys.executable, "-m", "kickres.cli", inv.command, "--config",
                 inv.config, "--out-dir", str(out_dir), "--seed", str(SEED), "--quiet"],
                env=env, cwd=root, check=True,
            )
            reference[workload][inv.name] = checks.extract(inv.command, out_dir)
    path = Path(__file__).resolve().parent / "reference.json"
    # One line per invocation keeps diffs of this file readable.
    blocks = []
    for workload, entries in reference.items():
        rows = ",\n  ".join(f"{json.dumps(n)}: {json.dumps(v)}" for n, v in entries.items())
        blocks.append(f"{json.dumps(workload)}: {{\n  {rows}}}")
    path.write_text("{\n " + ",\n ".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
