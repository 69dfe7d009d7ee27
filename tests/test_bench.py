"""Self-test of ``tools/bench.py``: a ``--quick`` run writes a BENCH file
with every layer the README's performance notes cite, the memory peaks
of the Monte-Carlo pass and the fig4_head and scan3 rotor walks, and the
high-water marks of the CLI footprint children."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"

LAYERS = {
    f"kick_pair/{shape}/{when}"
    for shape in ("864x945", "1080x1200", "1400x60")
    for when in ("clean", "after_purity")
} | {
    "block_purity/45x81",
    "block_purity/101x101",
    "block_purity/864x945",
    "mc_pass/fig2",
    "potential_evaluate/200000",
    "rotor_walk/fig4_head",
    "rotor_walk/scan3_ideal",
    "top_jz_moments/j50",
    "top_step/j50",
    "footprint/import_kickres.cli",
    "footprint/top-simulate/fig7",
    "footprint/detune-scan/scan3",
}


def test_quick_run_writes_every_layer(tmp_path):
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_0.json"
    assert bench.main(["0", "--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bench"] == 0
    assert re.fullmatch(r"[0-9a-f]{40}|", report["git_sha"])
    assert re.fullmatch(r"[0-9a-f]{64}", report["src_sha256"])
    env = report["environment"]
    assert env["numpy"] == np.__version__
    assert env["nproc"] >= 1 and env["python"] and env["cpu_model"]
    assert set(env["blas"]) == {"name", "version", "threads"}
    assert set(report["layers"]) == LAYERS
    for timing in report["layers"].values():
        assert timing["reps"] == 2
        assert timing["median_s"] > 0 and timing["iqr_s"] >= 0
    assert report["layers"]["mc_pass/fig2"]["peak_bytes"] > 0
    # each child's own high-water mark: a run's lies above a bare import's
    hwm = {
        name.split("/", 1)[1]: timing["vm_hwm_mib"]
        for name, timing in report["layers"].items()
        if name.startswith("footprint/")
    }
    assert 0 < hwm["import_kickres.cli"] < hwm["top-simulate/fig7"]
    assert hwm["import_kickres.cli"] < hwm["detune-scan/scan3"]
    # the first step's new state; the in-place steps add none
    walk = report["layers"]["rotor_walk/fig4_head"]["peak_bytes"]
    assert 945 * 960 * 16 < walk < 2 * 945 * 960 * 16
    # the last grow, 350 x 60 to 441 x 60: the old state, the new table,
    # the new state, one |a|^2 block and the FFT's buffers, and no redo
    # array (measured 1.54 MB; 1.97 MB with one)
    scan = report["layers"]["rotor_walk/scan3_ideal"]["peak_bytes"]
    old, new, block = 350 * 60 * 16, 441 * 60 * 16, 441 * 60 * 8
    assert old + 2 * new < scan < old + 2 * new + block + 256 * 1024
