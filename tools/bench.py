"""Layer timings of kickres at fixed sizes, written to ``BENCH_<n>.json``.

    python tools/bench.py N            # BENCH_N.json at the repo root
    python tools/bench.py N --out FILE
    python tools/bench.py N --quick    # two reps, for the self-test

Each layer runs through kickres's own code, imported from this checkout's
``src``, and is timed REPS times (after one untimed warm-up rep); the file
records the median and the interquartile range of each, with the git sha,
a digest of the sources and the environment (numpy, the BLAS library and
its thread count, CPUs, Python).  A perf claim compares two such files
taken on one machine in one session.

The layers:
- ``kick_pair``: ``RotorEngine.kick`` (ifftn, phase, fftn) at fig4-family
  and detune-scan window shapes, both right after another kick
  (``clean``) and right after a ``_block_purity`` on fig4_head's step-4
  box of 129 x 137 (``after_purity``), as in a simulate step;
- ``block_purity``: the Gram purity of a random matrix of 45 x 81, of
  fig7's whole 101 x 101 window and of full fig4's last box, 864 x 945;
- ``mc_pass``: the Monte-Carlo pass of ``predict fig2`` (``epsilon_sample``
  over its steps, then ``epsilon_moments`` and ``slin_exact``), with the
  ``tracemalloc`` peak of one more, untimed pass as ``peak_bytes``;
- ``potential_evaluate``: fig2's potential at 200 000 random angle pairs;
- ``rotor_walk``: the 4-step ``observe`` pass of
  ``perfbench/configs/fig4_head.yaml`` (moments only, on its 945 x 960
  window, which never grows) and the 70-step ideal run of
  ``perfbench/configs/scan3.yaml`` (moments only, from a fresh engine on
  its 54 x 60 start window, which grows 7 times to 441 x 60), each with
  the ``tracemalloc`` peak of one more, untimed pass as ``peak_bytes``;
- ``top_jz_moments``: ``TopEngine.measure_jz_moments`` on fig7's j = 50
  pair after 50 steps, from a fresh state (marginals and box included);
- ``top_step``: one ``TopEngine.step`` of fig7 (j = 50, a skipped and a
  reversed twist) on that same evolved state;
- ``footprint``: a fresh interpreter that imports ``kickres.cli`` and, for
  ``top-simulate/fig7`` and ``detune-scan/scan3``, runs that invocation;
  its wall time, and as ``vm_hwm_mib`` the median of its own ``VmHWM``,
  read from /proc/self/status inside it.  The child's ``ru_maxrss`` is
  no use here: it starts from the launcher's high-water mark at exec.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# kickres from this checkout, imported after the path is set
from kickres.cli import (  # noqa: E402
    _initial_density,
    _rotor_run_pieces,
    load_config,
)
from kickres.entanglement import BipartitionSpec, _block_purity  # noqa: E402
from kickres.potential import split_interaction  # noqa: E402
from kickres.predictor import (  # noqa: E402
    epsilon_moments,
    epsilon_sample,
    slin_exact,
)
from kickres.rotor_engine import (  # noqa: E402
    RotorEngine,
    RotorLattice,
    RotorState,
    measure_moments,
    observe,
)
from kickres.top_engine import TopEngine, TopSpec, TopState  # noqa: E402

REPS = 15
KICK_SHAPES = ((864, 945), (1080, 1200), (1400, 60))
PURITY_BOX = (129, 137)
PURITY_SHAPES = ((45, 81), (101, 101), (864, 945))
EVALUATE_SAMPLES = 200_000
TOP_STEPS = 50
PART = BipartitionSpec(2, (0,))
CAP = 1 << 26
# layers whose memory is recorded too, from a pass after the timed reps
PEAK_LAYERS = (
    "mc_pass/fig2",
    "rotor_walk/fig4_head",
    "rotor_walk/scan3_ideal",
)
# the CLI arguments of each footprint child, after its import
FOOTPRINTS = {
    "footprint/import_kickres.cli": [],
    "footprint/top-simulate/fig7": [
        "top-simulate", "--config", str(ROOT / "configs" / "fig7.yaml"),
    ],
    "footprint/detune-scan/scan3": [
        "detune-scan",
        "--config",
        str(ROOT / "perfbench" / "configs" / "scan3.yaml"),
    ],
}
FOOTPRINT_CHILD = """
import sys
import kickres.cli
if sys.argv[1:] and kickres.cli.main(sys.argv[1:]) != 0:
    sys.exit(f"{sys.argv[1]} failed")
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")))
"""


def _random_amplitudes(shape, rng) -> np.ndarray:
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a / np.linalg.norm(a)


def _config(name: str, command: str):
    return load_config(ROOT / "configs" / f"{name}.yaml", command)


def _kick_layers(rng) -> dict:
    cfg = _config("fig4", "simulate")
    box = _random_amplitudes(PURITY_BOX, rng)
    layers = {}
    for shape in KICK_SHAPES:
        lattice = RotorLattice(tuple((0, m - 1) for m in shape))
        engine = RotorEngine(cfg.potential, cfg.plan, lattice)
        state = RotorState(lattice, _random_amplitudes(shape, rng))
        name = "kick_pair/{}x{}".format(*shape)

        def clean(engine=engine, state=state):
            engine.kick(state)
            return _timed(engine.kick, state)

        def after_purity(engine=engine, state=state):
            _block_purity(box, PART, CAP)
            return _timed(engine.kick, state)

        layers[f"{name}/clean"] = clean
        layers[f"{name}/after_purity"] = after_purity
    return layers


def _purity_layers(rng) -> dict:
    layers = {}
    for shape in PURITY_SHAPES:
        matrix = _random_amplitudes(shape, rng)
        layers["block_purity/{}x{}".format(*shape)] = (
            lambda m=matrix: _timed(_block_purity, m, PART, CAP)
        )
    return layers


def _predictor_layers(rng) -> dict:
    cfg = _config("fig2", "predict")
    _, _, v_i = split_interaction(cfg.potential, cfg.part.part_a)
    density = _initial_density(cfg)
    times = range(cfg.steps + 1)

    def mc_pass():
        sample = epsilon_sample(
            v_i, cfg.plan.shift_set, density, cfg.part, cfg.samples,
            cfg.seed, times,
        )
        epsilon_moments(sample)
        slin_exact(sample, times)

    angles = [rng.uniform(0.0, 2 * np.pi, EVALUATE_SAMPLES) for _ in range(2)]
    return {
        "mc_pass/fig2": lambda: _timed(mc_pass),
        f"potential_evaluate/{EVALUATE_SAMPLES}": (
            lambda: _timed(cfg.potential.evaluate, angles)
        ),
    }


def _rotor_walk_layers() -> dict:
    configs = ROOT / "perfbench" / "configs"
    cfg = load_config(configs / "fig4_head.yaml", "simulate")
    # fig4_head never grows its windows and observe never writes the
    # caller's state, so one engine and one start serve every rep
    engine, state = _rotor_run_pieces(cfg)
    scan = load_config(configs / "scan3.yaml", "detune-scan")
    ideal = replace(scan, steps=max(max(scan.horizons), scan.steps))

    def scan3_ideal():
        # the run grows its engine's lattice, so each rep takes a fresh one
        engine, state = _rotor_run_pieces(ideal)
        return _timed(observe, engine, state, ideal.steps, measure_moments)

    return {
        "rotor_walk/fig4_head": lambda: _timed(
            observe, engine, state, cfg.steps, measure_moments
        ),
        "rotor_walk/scan3_ideal": scan3_ideal,
    }


def _top_layers() -> dict:
    cfg = _config("fig7", "top-simulate")
    spec = TopSpec(
        top_count=cfg.plan.rotor_count,
        j_tot=cfg.j_tot,
        plan=cfg.plan,
        field_terms=cfg.field_terms,
    )
    engine = TopEngine(spec)
    start = TopState.jz_product(spec, cfg.initial["momenta"])
    evolved = engine.evolve(start, TOP_STEPS)

    def moments():
        # no cached marginals or box
        state = TopState._from_jx(spec, evolved._jx)
        return _timed(engine.measure_jz_moments, state)

    return {
        f"top_jz_moments/j{spec.j_tot}": moments,
        f"top_step/j{spec.j_tot}": lambda: _timed(engine.step, evolved),
    }


def _footprint(args: list, out_dir: str) -> tuple[float, float]:
    """(wall seconds, VmHWM in MiB) of one fresh CLI child."""
    if args:
        args = [*args, "--out-dir", out_dir, "--threads", "1", "--quiet"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_CHILD, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    wall = time.perf_counter() - started
    return wall, int(done.stdout.split()[1]) / 1024.0


def _timed(call, *args) -> float:
    started = time.perf_counter()
    call(*args)
    return time.perf_counter() - started


def _peak_bytes(run) -> int:
    """tracemalloc's peak over one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else ""


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kickres").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    """numpy's BLAS build and, for a bundled OpenBLAS, its thread count
    (None where no getter is found)."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
    threads = None
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))  # the copy numpy already loaded
        for symbol in getters:
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def measure(reps: int, seed: int = 0) -> dict:
    """Median and IQR in seconds of each layer over ``reps`` reps, run in
    turn within each rep so drift in the host's speed hits every layer,
    and the peak traced bytes of each of PEAK_LAYERS."""
    rng = np.random.default_rng(seed)
    layers = {
        **_kick_layers(rng),
        **_purity_layers(rng),
        **_predictor_layers(rng),
        **_rotor_walk_layers(),
        **_top_layers(),
    }
    for run in layers.values():  # warm-up: FFT plans, first-touch pages
        run()
    samples = {name: [] for name in layers}
    for _ in range(reps):
        for name, run in layers.items():
            samples[name].append(run())
    out = {}
    for name, values in samples.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {"median_s": median, "iqr_s": q3 - q1, "reps": reps}
    for name in PEAK_LAYERS:
        out[name]["peak_bytes"] = _peak_bytes(layers[name])
    return out


def footprints(reps: int) -> dict:
    """Median and IQR of each footprint child's wall time and its median
    VmHWM, the children run in turn within each rep."""
    samples = {name: [] for name in FOOTPRINTS}
    with tempfile.TemporaryDirectory() as out_dir:
        for _ in range(reps):
            for name, args in FOOTPRINTS.items():
                samples[name].append(_footprint(args, out_dir))
    out = {}
    for name, values in samples.items():
        walls, hwms = zip(*values)
        q1, median, q3 = np.percentile(walls, [25, 50, 75])
        out[name] = {
            "median_s": median,
            "iqr_s": q3 - q1,
            "reps": reps,
            "vm_hwm_mib": float(np.median(hwms)),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="writes BENCH_<n>.json")
    parser.add_argument("--out", type=Path, help="write here instead")
    parser.add_argument("--quick", action="store_true", help="two reps")
    args = parser.parse_args(argv)
    reps = 2 if args.quick else REPS
    report = {
        "bench": args.n,
        "git_sha": _git("rev-parse", "HEAD"),
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": _source_digest(),
        "environment": environment(),
        "layers": {**measure(reps), **footprints(reps)},
    }
    out = args.out or ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
