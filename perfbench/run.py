"""kickres benchmark: run one workload through the real CLI and report.

    python3 perfbench/run.py --workload rotor-entangle --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports kickres from ./src and
writes only under ./.perfbench_runs.

--trace 0 times the workload end to end.  Each invocation is a fresh
`python -m kickres.cli ...` process, run one after another (a closed loop
with one client, `--threads 1`).  Passes over the workload's invocations
repeat until --seconds have gone by, and at least twice.  It reports

  wall_s       median over passes of the summed invocation wall times;
  setup_s      median over SETUP_LAUNCHES fresh interpreters of importing
               kickres.cli and loading the workload's configs;
  peak_rss_mb  peak RSS of the largest invocation (wait4 rusage), median
               over passes;

and prints fail_ratio (failed over attempted invocations) beside them.

--trace 1 runs the invocations inside one child process (traced_pass.py),
an untraced and a traced pass at a time, and reports the per-layer metrics
of tracer.METRICS, per pass, plus import times from `python -X importtime`.

Every pass is checked against reference.json (see checks.py), and its
output files must be byte-identical to the first pass's (for detune-scan
also to a `--threads 2` run; for --trace 1, traced to untraced).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every check passed; 2 when the checkout has
no kickres sources to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import tracer
from workloads import THREADS_CHECKED, WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
SETUP_LAUNCHES = 3
RUN_BUDGET_S = 170.0  # every child is killed past this point of the run

SETUP_CODE = """
import sys
from kickres.cli import load_config
args = sys.argv[1:]
for command, path in zip(args[::2], args[1::2]):
    load_config(path, command)
"""

ENV_CODE = """
import ctypes, glob, json, os, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.restype = ctypes.c_int
            threads = getter()
            break
print(json.dumps({"blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


class Runner:
    """Starts children one at a time and reaps each with its rusage."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.logs = 0

    def run(self, argv: list[str]):
        """(wall seconds, exit code, peak RSS in MiB, stdout, stderr)."""
        self.logs += 1
        err_path = self.run_dir / "logs" / f"{self.logs:04d}.stderr"
        out_path = err_path.with_suffix(".stdout")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    remaining = max(self.deadline - time.monotonic(), 0.0)
                    ready, _, _ = select.select([pidfd], [], [], remaining)
                finally:
                    os.close(pidfd)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not ready:
            raise RuntimeError(f"{argv[1:4]} still running at the {RUN_BUDGET_S:.0f} s budget")
        return (wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(),
                err_path.read_text())

    def cli(self, inv, seed: int, out_dir: Path, threads: int = 1):
        shutil.rmtree(out_dir, ignore_errors=True)
        return self.run([
            sys.executable, "-m", "kickres.cli", inv.command, "--config", inv.config,
            "--out-dir", str(out_dir), "--seed", str(seed), "--threads", str(threads),
            "--quiet",
        ])


class Gate:
    """Tallies invocations and the problems found in their outputs."""

    def __init__(self, reference: dict, workload: str):
        self.reference = reference[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def outputs(self, label: str, inv, code: int, stderr: str, out_dir: Path,
                expected_digest: dict | None = None) -> dict:
        """Check one invocation; return its output digest."""
        self.attempted += 1
        found = []
        out_digest: dict = {}
        if code != 0:
            found.append(f"exit code {code}: {stderr.strip()[-400:]}")
        else:
            try:
                got = checks.extract(inv.command, out_dir)
                found += checks.check(inv.name, inv.command, got, self.reference[inv.name])
                out_digest = checks.digest(out_dir)
            except checks.OUTPUT_ERRORS as exc:
                found.append(f"unreadable outputs: {exc!r}")
            if expected_digest is not None and out_digest != expected_digest:
                changed = sorted(k for k in set(out_digest) | set(expected_digest)
                                 if out_digest.get(k) != expected_digest.get(k))
                found.append(f"not byte-identical to the first pass: {changed}")
        if found:
            self.failed += 1
            self.problems += [f"{label} {inv.name}: {p}" for p in found]
        return out_digest


def preflight(root: Path, workload: str) -> str | None:
    if not (root / "src" / "kickres" / "cli.py").is_file():
        return f"no kickres sources under {root / 'src'}; run from a checkout root"
    for inv in WORKLOADS[workload]:
        if not (root / inv.config).is_file():
            return f"config {inv.config} is missing"
    return None


def environment(runner: Runner) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
    }
    _, code, _, out, _ = runner.run([sys.executable, "-c", ENV_CODE])
    if code == 0:
        info.update(json.loads(out))
    return info


def timed_run(runner: Runner, gate: Gate, workload: str, seed: int, seconds: float):
    invocations = WORKLOADS[workload]
    configs = dict.fromkeys((inv.command, inv.config) for inv in invocations)
    setup_argv = [sys.executable, "-c", SETUP_CODE] + [x for pair in configs for x in pair]
    setup = []
    for _ in range(SETUP_LAUNCHES):
        wall, code, _, _, err = runner.run(setup_argv)
        if code != 0:
            raise RuntimeError(f"set-up launch failed with exit code {code}: {err[-400:]}")
        setup.append(wall)

    out_root = runner.run_dir / "out"
    passes = []
    first_digest: dict = {}
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        record = {}
        for inv in invocations:
            wall, code, rss, _, err = runner.cli(inv, seed, out_root / inv.name)
            record[inv.name] = {"wall_s": wall, "rss_mb": rss, "exit": code}
            digest = gate.outputs(f"pass {len(passes)}", inv, code, err, out_root / inv.name,
                                  first_digest.get(inv.name))
            first_digest.setdefault(inv.name, digest)
        passes.append(record)

    if workload in THREADS_CHECKED:
        for inv in invocations:
            _, code, _, _, err = runner.cli(inv, seed, out_root / inv.name, threads=2)
            gate.outputs("--threads 2", inv, code, err, out_root / inv.name,
                         first_digest[inv.name])

    walls = [sum(r["wall_s"] for r in record.values()) for record in passes]
    peaks = [max(r["rss_mb"] for r in record.values()) for record in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }
    detail = {"passes": passes, "pass_walls_s": walls, "setup_samples_s": setup,
              "setup_sample_count": len(setup)}
    return metrics, detail


def traced_run(runner: Runner, gate: Gate, workload: str, seed: int, seconds: float):
    _, code, _, _, err = runner.run([sys.executable, "-X", "importtime", "-c",
                                     "import kickres.cli"])
    if code != 0:
        raise RuntimeError(f"import probe failed with exit code {code}: {err[-400:]}")
    imports = tracer.parse_importtime(err)

    trace_dir = runner.run_dir / "trace"
    trace_dir.mkdir()
    _, code, _, _, err = runner.run([
        sys.executable, str(HERE / "traced_pass.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--out", str(trace_dir),
    ])
    if code != 0:
        raise RuntimeError(f"traced pass failed with exit code {code}: {err[-400:]}")
    summary = json.loads((trace_dir / "trace.json").read_text())

    output_bytes = 0
    for inv in WORKLOADS[workload]:
        untraced = trace_dir / "untraced" / inv.name
        plain = gate.outputs("untraced", inv, summary["codes"]["untraced"][inv.name], "",
                             untraced)
        gate.outputs("traced", inv, summary["codes"]["traced"][inv.name], "",
                     trace_dir / "traced" / inv.name, plain)
        if untraced.is_dir():
            output_bytes += sum(p.stat().st_size for p in untraced.iterdir())

    values = tracer.layer_metrics(summary, output_bytes, imports)
    units = {name: unit for name, unit, _ in tracer.METRICS}
    metrics = {name: (values[name], units[name]) for name, _, _ in tracer.METRICS}
    # A target the code no longer has is reported, not failed: its metrics
    # read 0 and trace.coverage drops.
    detail = {"passes": summary["passes"], "walls_s": summary["walls"],
              "spans": str(trace_dir / "spans.jsonl"),
              "missing_targets": summary["missing"]}
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="kickres end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")

    root = Path.cwd()
    problem = preflight(root, args.workload)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    run_dir = root / ".perfbench_runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)

    runner = Runner(root, run_dir)
    gate = Gate(reference, args.workload)
    load_before = os.getloadavg()
    env = environment(runner)
    mode = traced_run if args.trace else timed_run
    try:
        metrics, detail = mode(runner, gate, args.workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    env["loaded"] = load_before[0] > env["nproc"]

    correct = gate.failed == 0
    fail_ratio = gate.failed / gate.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    if env["loaded"]:
        print(f"WARNING: load average {load_before[0]:.2f} exceeded nproc {env['nproc']} "
              "at the start of this run")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':36s} {fail_ratio:.6g} ratio ({gate.failed}/{gate.attempted})")
    if detail.get("missing_targets"):
        print(f"WARNING: trace targets not found: {detail['missing_targets']}")
    for problem in gate.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "fail_ratio": fail_ratio, "problems": gate.problems,
         "environment": env, "detail": detail, "seed": args.seed}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
