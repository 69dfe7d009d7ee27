"""Child process of a traced benchmark run.

Runs the workload's invocations in this process through `kickres.cli.main`,
alternating an untraced pass and a traced pass until `--seconds` have gone
by (at least one pair), and writes the spans and a summary to `--out`:

    python perfbench/traced_pass.py --workload predict --seed 1 --seconds 10 --out DIR

kickres must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from pathlib import Path

import kickres.cli as cli

from tracer import Tracer, summarize
from workloads import WORKLOADS


def run_pass(invocations, seed: int, out_dir: Path) -> tuple[float, dict]:
    codes = {}
    started = time.perf_counter()
    for inv in invocations:
        target = out_dir / inv.name
        shutil.rmtree(target, ignore_errors=True)
        codes[inv.name] = cli.main([
            inv.command, "--config", inv.config, "--out-dir", str(target),
            "--seed", str(seed), "--threads", "1", "--quiet",
        ])
    return time.perf_counter() - started, codes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    invocations = WORKLOADS[args.workload]

    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    codes = {}
    passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < args.seconds:
        for mode in ("untraced", "traced"):
            if mode == "traced":
                tracer.install()
            try:
                wall, codes[mode] = run_pass(invocations, args.seed, args.out / mode)
            finally:
                tracer.uninstall()
            walls[mode] += wall
        passes += 1

    with open(args.out / "spans.jsonl", "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    summary = {
        "passes": passes,
        "walls": walls,
        "codes": codes,
        "by_name": summarize(tracer.spans),
        "counters": dict(tracer.counters),
        "span_count": len(tracer.spans),
        "missing": sorted(set(tracer.missing)),
    }
    (args.out / "trace.json").write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
