"""Self-tests of the benchmark's tracer and correctness gate.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml

import checks
from tracer import METRICS, Tracer, parse_importtime, summarize

ROOT = Path(__file__).resolve().parent.parent

ROTOR = {
    "system": "rotor",
    "potential": {"terms": [
        {"coefficient": 0.1, "modes": [1, 0]},
        {"coefficient": 0.2, "modes": [0, 1]},
        {"coefficient": 1.0, "modes": [1, -1]},
    ]},
    "plan": [{"numerator": 1, "denominator": 1}, {"numerator": 1, "denominator": 2}],
    "steps": 3,
    "predictor": {"samples": 10000},
}
TINY = {
    "simulate": ROTOR,
    "predict": ROTOR,
    "detune-scan": {**ROTOR, "steps": 6,
                    "detune_scan": {"detunings": [1e-2], "horizons": [6]}},
    "top-simulate": {
        "system": "top", "j_tot": 3, "steps": 3,
        "field_terms": [{"coefficient": 0.02, "powers": [0, 2]},
                        {"coefficient": 0.005, "powers": [1, 1]}],
        "plan": ROTOR["plan"],
    },
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(seconds, *calls):
        def body():
            clock.now += seconds
            for call in calls:
                call()
        return body

    leaf = tracer.wrap("leaf", work(1.0))
    inner = tracer.wrap("inner", work(2.0, leaf))
    outer = tracer.wrap("outer", work(3.0, inner, inner, leaf))
    outer()

    spans = summarize(tracer.spans)
    assert spans["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0, "work": 0.0}
    assert spans["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0, "work": 0.0}
    assert spans["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0, "work": 0.0}
    assert sum(s["self_s"] for s in spans.values()) == spans["outer"]["total_s"]
    parents = [tracer.spans[span[3]][0] if span[3] >= 0 else None for span in tracer.spans]
    assert parents == [None, "outer", "inner", "outer", "inner", "outer"]


def test_parse_importtime_counts_top_level_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.sparse",
        "import time:       200 |        300 |     scipy.stats._stats_py",
        "import time:        50 |         50 |     scipy.stats.mvn",
        "import time:      1000 |       1350 |   kickres.predictor",
        "import time:        10 |       1360 | kickres",
        "import time:         5 |          5 | yaml",
        "import time:        40 |         40 | kickres.cli",
    ])
    assert parse_importtime(text) == pytest.approx({"kickres": 1400e-6, "scipy_stats": 350e-6})


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(METRICS)


def _run_all(cli, configs: dict, out: Path) -> dict:
    digests = {}
    for command, config in configs.items():
        target = out / command
        assert cli.main([command, "--config", str(config), "--out-dir", str(target),
                         "--seed", "7", "--quiet"]) == 0
        digests[command] = checks.digest(target)
    return digests


def test_wrappers_are_transparent_and_see_the_hot_calls(tmp_path):
    cli = pytest.importorskip("kickres.cli")
    configs = {}
    for command, body in TINY.items():
        configs[command] = tmp_path / f"{command}.yaml"
        configs[command].write_text(yaml.safe_dump(body))
    original_purity = cli.schmidt_purity

    plain = _run_all(cli, configs, tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_all(cli, configs, tmp_path / "traced")
    finally:
        tracer.uninstall()

    assert traced == plain
    assert tracer.missing == []
    assert cli.schmidt_purity is original_purity
    calls = {name: entry["calls"] for name, entry in summarize(tracer.spans).items()}
    for name in ("cli.load_config", "cli.runner", "entanglement.purity",
                 "rotor_engine.moments", "rotor_engine.kick", "rotor_engine.state",
                 "predictor.slin_exact", "predictor.epsilon_moments", "predictor.sample",
                 "predictor.analytic", "predictor.robustness", "potential.evaluate",
                 "top_engine.purity", "top_engine.field", "top_engine.moments"):
        assert calls.get(name, 0) > 0, name
    assert calls["cli.runner"] == len(TINY)
    assert tracer.counters["rotor_engine.steps_accepted"] == 3 + 6 + 6


def test_gate_passes_its_own_outputs_and_flags_corrupted_references(tmp_path):
    cli = pytest.importorskip("kickres.cli")
    config = tmp_path / "tiny.yaml"
    config.write_text(yaml.safe_dump(ROTOR))
    for command in ("simulate", "predict"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(config), "--out-dir", str(out),
                         "--quiet"]) == 0
        reference = checks.extract(command, out)
        assert checks.check("tiny", command, checks.extract(command, out), reference) == []

    corrupted = checks.extract("simulate", tmp_path / "simulate")
    corrupted["entropy"]["s_lin"][1] += 1e-6
    assert checks.check("tiny", "simulate", checks.extract("simulate", tmp_path / "simulate"),
                        corrupted)

    corrupted = checks.extract("predict", tmp_path / "predict")
    value, error = corrupted["mc"]["s_lin[1]"]
    corrupted["mc"]["s_lin[1]"] = [value + 10 * error, error]
    assert checks.check("tiny", "predict", checks.extract("predict", tmp_path / "predict"),
                        corrupted)
