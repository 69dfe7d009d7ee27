"""End-to-end tests of the config-driven experiment runner."""

import copy
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import kickres

from oracles import S_ODD_UNIT

from kickres.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_TRUNCATION,
    EXIT_VALIDATION,
    ConfigError,
    _csv_text,
    load_config,
    main,
)
from kickres.potential import PotentialSpec
from kickres.errors import ResourceCapError
from kickres.predictor import (
    DEFAULT_SAMPLES,
    MAX_SAMPLE_ROWS,
    SAMPLE_BLOCK,
    EpsilonMoments,
    ProductAngleDensity,
    ScalingFit,
)


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return path


def fig1_body(steps=12, **extra):
    body = {
        "system": "rotor",
        "potential": {
            "terms": [
                {"coefficient": 0.1, "modes": [1, 0]},
                {"coefficient": 0.2, "modes": [0, 1]},
                {"coefficient": 1.0, "modes": [1, -1]},
            ]
        },
        "plan": [
            {"numerator": 1, "denominator": 1},
            {"numerator": 1, "denominator": 2},
        ],
        "initial": {"type": "momentum_eigenstate", "momenta": [0, 0]},
        "bipartition": {"part_a": [0]},
        "steps": steps,
    }
    body.update(extra)
    return body


def one_rotor_body(steps=4):
    body = fig1_body(steps=steps)
    body["potential"]["terms"] = [{"coefficient": 0.5, "modes": [1]}]
    body["plan"] = [{"numerator": 1, "denominator": 1}]
    body["initial"]["momenta"] = [0]
    del body["bipartition"]
    return body


def top_body(steps=10):
    return {
        "system": "top",
        "j_tot": 12,
        "field_terms": [
            {"coefficient": 0.01, "powers": [1, 0]},
            {"coefficient": 0.02, "powers": [0, 1]},
            {"coefficient": 0.05, "powers": [1, 1]},
        ],
        "plan": [
            {"numerator": 1, "denominator": 1},
            {"numerator": 1, "denominator": 2},
        ],
        "initial": {"type": "momentum_eigenstate", "momenta": [0, 0]},
        "bipartition": {"part_a": [0]},
        "steps": steps,
    }


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest_sha256: ")
    header = lines[1].split(",")
    rows = [
        [float(cell) for cell in line.split(",")] for line in lines[2:]
    ]
    return header, rows


def run(command, config, out_dir, *flags):
    return main(
        [
            command,
            "--config",
            str(config),
            "--out-dir",
            str(out_dir),
            "--quiet",
            *flags,
        ]
    )


def child_env(**extra):
    """os.environ with this checkout's kickres first on PYTHONPATH, for a
    child interpreter."""
    src = str(Path(kickres.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    return env


class TestConfigValidation:
    def test_missing_required_field_names_path(self, tmp_path):
        path = write_config(tmp_path, "bad.yaml", {"system": "rotor"})
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        assert "plan" in str(excinfo.value)

    def test_unknown_field_names_full_path(self, tmp_path, capsys):
        # windows always grow, so auto_grow is no engine field
        for field, value in (("tail_tolerancee", 1e-10), ("auto_grow", True)):
            body = fig1_body()
            body["engine"] = {field: value}
            path = write_config(tmp_path, "bad.yaml", body)
            with pytest.raises(ConfigError) as excinfo:
                load_config(path, "simulate")
            assert f"engine.{field}" in str(excinfo.value)
            assert run("simulate", path, tmp_path / "out") == EXIT_VALIDATION
            assert f"engine.{field}" in capsys.readouterr().err

    def test_wrong_type_reports_path_and_type(self, tmp_path):
        body = fig1_body()
        body["potential"]["terms"][0]["coefficient"] = "big"
        path = write_config(tmp_path, "bad.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        message = str(excinfo.value)
        assert "potential.terms[0].coefficient" in message
        assert "str" in message

    def test_mode_count_mismatch(self, tmp_path):
        body = fig1_body()
        body["potential"]["terms"][0]["modes"] = [1]
        path = write_config(tmp_path, "bad.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        assert "potential.terms[0].modes" in str(excinfo.value)

    def test_system_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, "top.yaml", top_body())
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        assert "system" in str(excinfo.value)

    def test_term_phase_echoed_canonically(self, tmp_path):
        body = fig1_body()
        body["potential"]["terms"][0]["phase"] = -0.3
        body["potential"]["terms"][1]["kind"] = "sin"
        path = write_config(tmp_path, "fig1.yaml", body)
        cfg = load_config(path, "simulate")
        echoed = cfg.effective["potential"]["terms"]
        assert echoed[0]["phase"] == pytest.approx(2.0 * math.pi - 0.3)
        assert echoed[1]["phase"] == pytest.approx(1.5 * math.pi)
        assert all("kind" not in t for t in echoed)

    def test_tiny_negative_phase_echo_reloads_to_same_hash(self, tmp_path):
        body = fig1_body(steps=4)
        body["potential"]["terms"][2]["phase"] = -1e-17
        path = write_config(tmp_path, "fig1.yaml", body)
        cfg = load_config(path, "simulate")
        assert cfg.effective["potential"]["terms"][2]["phase"] == 0.0
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", path, out1) == EXIT_OK
        echo = out1 / "effective_config.yaml"
        assert run("simulate", echo, out2) == EXIT_OK
        hashes = [
            yaml.safe_load((out / "manifest.yaml").read_text())["content_hash"]
            for out in (out1, out2)
        ]
        assert hashes[0] == hashes[1]

    def test_term_phase_conflicts_with_sin_kind(self, tmp_path):
        body = fig1_body()
        body["potential"]["terms"][0]["kind"] = "sin"
        body["potential"]["terms"][0]["phase"] = 0.1
        path = write_config(tmp_path, "bad.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        assert "potential.terms[0].phase" in str(excinfo.value)

    def test_defaults_materialized_in_echo(self, tmp_path):
        body = fig1_body()
        body.pop("initial")
        body.pop("bipartition")
        path = write_config(tmp_path, "fig1.yaml", body)
        cfg = load_config(path, "simulate")
        eff = cfg.effective
        assert eff["initial"] == {
            "type": "momentum_eigenstate",
            "momenta": [0, 0],
        }
        assert eff["bipartition"] == {"part_a": [0]}
        assert eff["engine"] == {
            "tail_tolerance": 1e-10,
            "tail_budget": 1e-8,
            "window_margin": 16,
            "element_cap": 1 << 26,
        }
        assert eff["predictor"] == {"samples": 200000, "seed": 12345}
        assert eff["plan"][0]["delta_tau"] == 0.0

    def test_every_shipped_config_loads(self, tmp_path):
        # a schema change must not strand a bundled config, and the
        # effective-config echo of each loads back to the same config
        root = Path(__file__).resolve().parents[1]
        paths = sorted(root.glob("configs/*.yaml")) + sorted(
            root.glob("perfbench/configs/*.yaml")
        )
        assert paths
        for path in paths:
            body = yaml.safe_load(path.read_text())
            if body["system"] == "top":
                commands = ("top-simulate",)
            elif "detune_scan" in body:
                commands = ("detune-scan",)
            else:
                commands = ("simulate", "predict", "classify")
            for command in commands:
                cfg = load_config(path, command)
                assert cfg.command == command, path
                echo = tmp_path / "effective_config.yaml"
                echo.write_text(
                    yaml.safe_dump(
                        cfg.effective, sort_keys=True, default_flow_style=False
                    )
                )
                again = load_config(echo, command)
                assert again.effective == cfg.effective, (path, command)
                assert again == cfg, (path, command)

    def test_seed_override_lands_in_echo(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body())
        cfg = load_config(path, "simulate", seed_override=777)
        assert cfg.seed == 777
        assert cfg.effective["predictor"]["seed"] == 777

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_override_range_checked(self, tmp_path, seed):
        path = write_config(tmp_path, "fig1.yaml", fig1_body())
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate", seed_override=seed)
        assert excinfo.value.path == "predictor.seed"

    @pytest.mark.parametrize(
        "where",
        ["potential.terms[0].coefficient", "plan[0].delta_tau"],
    )
    def test_huge_integer_exits_2_naming_the_field(
        self, tmp_path, capsys, where
    ):
        # float(10**400) overflows; the parser reports it as not finite
        body = edited(fig1_body(), {where: 10**400})
        path = write_config(tmp_path, "huge.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "predict")
        assert excinfo.value.path == where
        assert run("predict", path, tmp_path / "out") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config error at {where}: must be finite" in err

    def test_zero_detuning_rejected(self, tmp_path):
        body = fig1_body()
        body["detune_scan"] = {"detunings": [1e-3, 0.0]}
        path = write_config(tmp_path, "scan.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "detune-scan")
        message = str(excinfo.value)
        assert "detune_scan.detunings[1]" in message
        assert "ideal run is the reference" in message

    def test_repeated_detuning_rejected(self, tmp_path):
        body = fig1_body()
        body["detune_scan"] = {"detunings": [1e-3, 1e-3, 1e-3]}
        path = write_config(tmp_path, "scan.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "detune-scan")
        assert excinfo.value.path == "detune_scan.detunings[1]"
        assert "repeats detunings[0]" in str(excinfo.value)
        assert run("detune-scan", path, tmp_path / "out") == EXIT_VALIDATION

    def test_detuned_base_plan_rejected_for_scan(self, tmp_path):
        body = fig1_body()
        body["plan"][0]["delta_tau"] = 1e-4
        body["detune_scan"] = {"detunings": [1e-3]}
        path = write_config(tmp_path, "scan.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "detune-scan")
        assert "exact base plan" in str(excinfo.value)

    def test_bipartition_rejected_for_a_single_body(self, tmp_path):
        body = one_rotor_body()
        body["bipartition"] = {"part_a": [7, 7, 3]}
        path = write_config(tmp_path, "one.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        assert excinfo.value.path == "bipartition"
        assert run("simulate", path, tmp_path / "out") == EXIT_VALIDATION

    def test_single_body_echo_reruns_without_bipartition(self, tmp_path):
        path = write_config(tmp_path, "one.yaml", one_rotor_body())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", path, out1) == EXIT_OK
        echo = yaml.safe_load((out1 / "effective_config.yaml").read_text())
        assert "bipartition" not in echo
        assert run("simulate", out1 / "effective_config.yaml", out2) == EXIT_OK
        for name in ("moments.csv", "entropy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_coherent_initial_rejected_for_tops(self, tmp_path):
        body = top_body()
        body["initial"] = {
            "type": "coherent",
            "centers": [[0.0, 0.0], [0.0, 0.0]],
            "width": 1.0,
        }
        path = write_config(tmp_path, "top.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "top-simulate")
        assert "initial.type" in str(excinfo.value)


DROP = object()


def edited(body, edits):
    """Copy of ``body`` with each dotted ``a.b[0].c`` path set (or DROPped)."""
    body = copy.deepcopy(body)
    for dotted, value in edits.items():
        keys = [
            int(key) if key.isdigit() else key
            for key in re.findall(r"[^.\[\]]+", dotted)
        ]
        node = body
        for key in keys[:-1]:
            node = node[key]
        if value is DROP:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return body


def scan_body():
    return fig1_body(detune_scan={"detunings": [1e-3, 2e-3]})


def coherent_body():
    return fig1_body(
        initial={"type": "coherent", "centers": [[0.0, 0.0], [1.0, 2.0]]}
    )


NOT_FOUND = object()
BAD_YAML = "plan: [1\n"

# (base body, command, edits, error path, full message): one fault each,
# covering every ConfigError the config code raises.  A field that is not
# valid where it appears is reported as such even when its value is also
# of the wrong type.
SINGLE_FAULTS = [
    (NOT_FOUND, "simulate", {}, None, "cannot read config: {oserror}"),
    (BAD_YAML, "simulate", {}, None, "invalid YAML: {yamlerror}"),
    (lambda: [1], "simulate", {}, "<root>", "expected a mapping, got list"),
    (fig1_body, "simulate", {"extra": 1}, "extra", "unknown field"),
    (fig1_body, "simulate", {"engine": {"tail_tolerancee": 1e-10}},
     "engine.tail_tolerancee", "unknown field"),
    (fig1_body, "simulate", {"plan[0].period": 2}, "plan[0].period",
     "unknown field"),
    (fig1_body, "simulate", {"potential.scale": 2}, "potential.scale",
     "unknown field"),
    (fig1_body, "simulate", {"potential.terms[1].amplitude": 2},
     "potential.terms[1].amplitude", "unknown field"),
    (fig1_body, "simulate", {"initial.phase": 0.0}, "initial.phase",
     "unknown field"),
    (fig1_body, "simulate", {"bipartition.part_b": [1]},
     "bipartition.part_b", "unknown field"),
    (fig1_body, "simulate", {"predictor": {"method": "mc"}},
     "predictor.method", "unknown field"),
    (scan_body, "detune-scan", {"detune_scan.method": "x"},
     "detune_scan.method", "unknown field"),
    (top_body, "top-simulate", {"field_terms[0].modes": [1, 0]},
     "field_terms[0].modes", "unknown field"),
    (fig1_body, "simulate", {"system": "spin"}, "system",
     "must be one of ['rotor', 'top'], got 'spin'"),
    (fig1_body, "simulate", {"system": 3}, "system",
     "expected a string, got int"),
    (top_body, "simulate", {}, "system",
     "command simulate requires system: rotor"),
    (fig1_body, "top-simulate", {}, "system",
     "command top-simulate requires system: top"),
    (fig1_body, "simulate", {"plan": DROP}, "plan", "missing required field"),
    (fig1_body, "simulate", {"plan": {}}, "plan", "expected a list, got dict"),
    (fig1_body, "simulate", {"plan": []}, "plan",
     "a plan needs at least one body"),
    (fig1_body, "simulate", {"plan[0]": 1}, "plan[0]",
     "expected a mapping, got int"),
    (fig1_body, "simulate", {"plan[0].numerator": DROP}, "plan[0].numerator",
     "missing required field"),
    (fig1_body, "simulate", {"plan[1].denominator": DROP},
     "plan[1].denominator", "missing required field"),
    (fig1_body, "simulate", {"plan[1].denominator": 0},
     "plan[1].denominator", "must be >= 1, got 0"),
    (fig1_body, "simulate", {"plan[0].numerator": 1.5}, "plan[0].numerator",
     "expected an integer, got float"),
    (fig1_body, "simulate", {"plan[0].numerator": True}, "plan[0].numerator",
     "expected an integer, got bool"),
    (fig1_body, "simulate", {"plan[0].delta_tau": "x"}, "plan[0].delta_tau",
     "expected a number, got str"),
    (fig1_body, "simulate", {"plan[0].delta_tau": math.nan},
     "plan[0].delta_tau", "must be finite"),
    (fig1_body, "simulate", {"potential": DROP}, "potential",
     "missing required field"),
    (fig1_body, "simulate", {"potential": []}, "potential",
     "expected a mapping, got list"),
    (fig1_body, "simulate", {"potential.terms": DROP}, "potential.terms",
     "missing required field"),
    (fig1_body, "simulate", {"potential.terms": 1}, "potential.terms",
     "expected a list, got int"),
    (fig1_body, "simulate", {"potential.terms[0]": "cos"},
     "potential.terms[0]", "expected a mapping, got str"),
    (fig1_body, "simulate", {"potential.terms[0].coefficient": DROP},
     "potential.terms[0].coefficient", "missing required field"),
    (fig1_body, "simulate", {"potential.terms[2].modes": DROP},
     "potential.terms[2].modes", "missing required field"),
    (fig1_body, "simulate", {"potential.terms[0].coefficient": "big"},
     "potential.terms[0].coefficient", "expected a number, got str"),
    (fig1_body, "simulate", {"potential.terms[0].coefficient": math.inf},
     "potential.terms[0].coefficient", "must be finite"),
    (fig1_body, "simulate", {"potential.terms[0].modes": [1]},
     "potential.terms[0].modes", "expected 2 entries"),
    (fig1_body, "simulate", {"potential.terms[0].modes": "1 0"},
     "potential.terms[0].modes", "expected a list, got str"),
    (fig1_body, "simulate", {"potential.terms[0].modes[1]": 0.5},
     "potential.terms[0].modes[1]", "expected an integer, got float"),
    (fig1_body, "simulate", {"potential.terms[0].kind": "tan"},
     "potential.terms[0].kind", "must be one of ['cos', 'sin'], got 'tan'"),
    (fig1_body, "simulate", {"potential.terms[0].kind": 1},
     "potential.terms[0].kind", "expected a string, got int"),
    (fig1_body, "simulate",
     {"potential.terms[0].kind": "sin", "potential.terms[0].phase": 0.1},
     "potential.terms[0].phase",
     "specify either kind: sin or phase, not both"),
    (fig1_body, "simulate",
     {"potential.terms[0].kind": "sin", "potential.terms[0].phase": "x"},
     "potential.terms[0].phase",
     "specify either kind: sin or phase, not both"),
    (fig1_body, "simulate", {"potential.terms[0].phase": "x"},
     "potential.terms[0].phase", "expected a number, got str"),
    (fig1_body, "simulate", {"potential.terms[1].modes": [0, 0]},
     "potential.terms[1]", "constant terms (all modes zero) are not allowed"),
    (fig1_body, "simulate",
     {"potential.terms[1].modes": [0, 0], "potential.terms[1].kind": "sin"},
     "potential.terms[1]", "constant terms (all modes zero) are not allowed"),
    (fig1_body, "simulate", {"field_terms": []}, "field_terms",
     "only valid for system: top"),
    (fig1_body, "simulate", {"field_terms": 5}, "field_terms",
     "only valid for system: top"),
    (fig1_body, "simulate", {"j_tot": "big"}, "j_tot",
     "only valid for system: top"),
    (top_body, "top-simulate", {"potential": 5}, "potential",
     "only valid for system: rotor"),
    (top_body, "top-simulate", {"j_tot": DROP}, "j_tot",
     "missing required field"),
    (top_body, "top-simulate", {"j_tot": 0}, "j_tot", "must be >= 1, got 0"),
    (top_body, "top-simulate", {"j_tot": 2.5}, "j_tot",
     "expected an integer, got float"),
    (top_body, "top-simulate", {"field_terms": {}}, "field_terms",
     "expected a list, got dict"),
    (top_body, "top-simulate", {"field_terms[1]": 2}, "field_terms[1]",
     "expected a mapping, got int"),
    (top_body, "top-simulate", {"field_terms[0].coefficient": DROP},
     "field_terms[0].coefficient", "missing required field"),
    (top_body, "top-simulate", {"field_terms[0].powers": DROP},
     "field_terms[0].powers", "missing required field"),
    (top_body, "top-simulate", {"field_terms[0].coefficient": None},
     "field_terms[0].coefficient", "expected a number, got NoneType"),
    (top_body, "top-simulate", {"field_terms[2].powers": [1]},
     "field_terms[2].powers", "expected 2 entries"),
    (top_body, "top-simulate", {"field_terms[0].powers[0]": -1},
     "field_terms[0].powers[0]", "must be >= 0, got -1"),
    (top_body, "top-simulate", {"field_terms[0].powers": [0, 0]},
     "field_terms[0]",
     "each field term must involve at least one spin operator"),
    (top_body, "top-simulate", {"field_terms[0].coefficient": 0.0},
     "field_terms[0]", "field coefficients must be finite and nonzero"),
    (fig1_body, "simulate", {"initial": []}, "initial",
     "expected a mapping, got list"),
    (fig1_body, "simulate", {"initial.type": "gaussian"}, "initial.type",
     "must be one of ['coherent', 'momentum_eigenstate'], got 'gaussian'"),
    (fig1_body, "simulate", {"initial.momenta": [0]}, "initial.momenta",
     "expected 2 entries"),
    (fig1_body, "simulate", {"initial.momenta": 0}, "initial.momenta",
     "expected a list, got int"),
    (fig1_body, "simulate", {"initial.momenta[0]": "a"}, "initial.momenta[0]",
     "expected an integer, got str"),
    (fig1_body, "simulate", {"initial.width": 1.0}, "initial.width",
     "only valid for type: coherent"),
    (fig1_body, "simulate", {"initial.centers": "x"}, "initial.centers",
     "only valid for type: coherent"),
    (coherent_body, "simulate", {"initial.centers": DROP}, "initial.centers",
     "missing required field"),
    (coherent_body, "simulate", {"initial.centers": 0.0}, "initial.centers",
     "expected a list, got float"),
    (coherent_body, "simulate", {"initial.centers": [[0.0, 0.0]]},
     "initial.centers", "expected 2 entries"),
    (coherent_body, "simulate", {"initial.centers[1]": [0.0]},
     "initial.centers[1]", "expected [theta0, p0]"),
    (coherent_body, "simulate", {"initial.centers[0]": 5},
     "initial.centers[0]", "expected a list, got int"),
    (coherent_body, "simulate", {"initial.centers[0][1]": "x"},
     "initial.centers[0][1]", "expected a number, got str"),
    (coherent_body, "simulate", {"initial.width": 0}, "initial.width",
     "must be > 0, got 0.0"),
    (coherent_body, "simulate", {"initial.width": -1}, "initial.width",
     "must be > 0, got -1.0"),
    (coherent_body, "simulate", {"initial.momenta": "x"}, "initial.momenta",
     "only valid for type: momentum_eigenstate"),
    (top_body, "top-simulate",
     {"initial": {"type": "coherent", "centers": [[0.0, 0.0]] * 2}},
     "initial.type",
     "tops support only momentum_eigenstate (J_z product states)"),
    (fig1_body, "simulate", {"bipartition": [0]}, "bipartition",
     "expected a mapping, got list"),
    (fig1_body, "simulate", {"bipartition.part_a": 0}, "bipartition.part_a",
     "expected a list, got int"),
    (fig1_body, "simulate", {"bipartition.part_a": [-1]},
     "bipartition.part_a[0]", "must be >= 0, got -1"),
    (fig1_body, "simulate", {"bipartition.part_a": [0, 0]},
     "bipartition.part_a", "part_a contains repeated indices"),
    (fig1_body, "simulate", {"bipartition.part_a": []}, "bipartition.part_a",
     "part_a must be nonempty"),
    (fig1_body, "simulate", {"bipartition.part_a": [0, 1]},
     "bipartition.part_a",
     "part_a must be a proper subset of the rotor indices"),
    (fig1_body, "simulate", {"bipartition.part_a": [5]},
     "bipartition.part_a", "rotor index 5 out of range for 2 rotors"),
    (one_rotor_body, "simulate", {"bipartition": "x"}, "bipartition",
     "a single body has no bipartition"),
    (fig1_body, "simulate", {"steps": DROP}, "steps",
     "missing required field"),
    (fig1_body, "simulate", {"steps": 0}, "steps", "must be >= 1, got 0"),
    (fig1_body, "simulate", {"steps": "10"}, "steps",
     "expected an integer, got str"),
    (fig1_body, "simulate", {"engine": 1}, "engine",
     "expected a mapping, got int"),
    (fig1_body, "simulate", {"engine": {"tail_tolerance": 0}},
     "engine.tail_tolerance", "must be > 0, got 0.0"),
    (fig1_body, "simulate", {"engine": {"tail_tolerance": "x"}},
     "engine.tail_tolerance", "expected a number, got str"),
    (fig1_body, "simulate", {"engine": {"tail_budget": -1}},
     "engine.tail_budget", "must be > 0, got -1.0"),
    (fig1_body, "simulate", {"engine": {"window_margin": -1}},
     "engine.window_margin", "must be >= 0, got -1"),
    (fig1_body, "simulate", {"engine": {"element_cap": 0}},
     "engine.element_cap", "must be >= 1, got 0"),
    (fig1_body, "simulate", {"predictor": "x"}, "predictor",
     "expected a mapping, got str"),
    (fig1_body, "simulate", {"predictor": {"samples": 0}},
     "predictor.samples", "must be >= 10000, got 0"),
    (fig1_body, "simulate", {"predictor": {"seed": -1}}, "predictor.seed",
     "must be >= 0, got -1"),
    (fig1_body, "simulate", {"predictor": {"seed": 2**64}}, "predictor.seed",
     "must be <= 18446744073709551615, got 18446744073709551616"),
    (scan_body, "simulate", {}, "detune_scan",
     "only valid for the detune-scan command"),
    (scan_body, "predict", {"detune_scan": 5}, "detune_scan",
     "only valid for the detune-scan command"),
    (fig1_body, "detune-scan", {}, "detune_scan", "missing required field"),
    (scan_body, "detune-scan", {"detune_scan": []}, "detune_scan",
     "expected a mapping, got list"),
    (scan_body, "detune-scan", {"detune_scan.detunings": DROP},
     "detune_scan.detunings", "missing required field"),
    (scan_body, "detune-scan", {"detune_scan.detunings": 1e-3},
     "detune_scan.detunings", "expected a list, got float"),
    (scan_body, "detune-scan", {"detune_scan.detunings": []},
     "detune_scan.detunings", "needs at least one value"),
    (scan_body, "detune-scan", {"detune_scan.detunings[1]": "a"},
     "detune_scan.detunings[1]", "expected a number, got str"),
    (scan_body, "detune-scan", {"detune_scan.detunings[1]": 0.0},
     "detune_scan.detunings[1]",
     "0 is not a scan point: the ideal run is the reference"),
    (scan_body, "detune-scan", {"detune_scan.detunings[0]": -1e-3},
     "detune_scan.detunings[0]", "must be positive"),
    (scan_body, "detune-scan", {"detune_scan.detunings[1]": 1e-3},
     "detune_scan.detunings[1]",
     "repeats detunings[0]: each value is one scan point"),
    (scan_body, "detune-scan", {"detune_scan.threshold": 0},
     "detune_scan.threshold", "must be > 0, got 0.0"),
    (scan_body, "detune-scan", {"detune_scan.horizons": [10]},
     "detune_scan.horizons", "expected one horizon per detuning"),
    (scan_body, "detune-scan", {"detune_scan.horizons": [10, 0]},
     "detune_scan.horizons[1]", "must be >= 1, got 0"),
    (scan_body, "detune-scan", {"detune_scan.horizons": 10},
     "detune_scan.horizons", "expected a list, got int"),
    (scan_body, "detune-scan", {"plan[1].delta_tau": 1e-4}, "plan",
     "detune-scan needs an exact base plan (all delta_tau = 0)"),
    (fig1_body, "simulate", {"out_dir": 5}, "out_dir",
     "expected a string, got int"),
    # below the predictor's Monte-Carlo floor: named at load, before a draw
    (fig1_body, "predict", {"predictor": {"samples": 100}},
     "predictor.samples", "must be >= 10000, got 100"),
]


@pytest.mark.parametrize(
    "base, command, edits, where, message",
    SINGLE_FAULTS,
    ids=[f"{i}-{case[3]}" for i, case in enumerate(SINGLE_FAULTS)],
)
def test_single_fault_names_path_and_message(
    tmp_path, base, command, edits, where, message
):
    path = tmp_path / "config.yaml"
    if base is NOT_FOUND:
        try:
            path.read_text()
        except OSError as exc:
            message = message.format(oserror=exc)
    elif base is BAD_YAML:
        path.write_text(base)
        try:
            yaml.safe_load(base)
        except yaml.YAMLError as exc:
            message = message.format(yamlerror=exc)
    else:
        path.write_text(yaml.safe_dump(edited(base(), edits)))
    with pytest.raises(ConfigError) as excinfo:
        load_config(path, command)
    where = str(path) if where is None else where
    assert excinfo.value.path == where
    assert str(excinfo.value) == f"config error at {where}: {message}"


class TestSimulate:
    def test_entropy_alternates_with_closed_form_value(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=12))
        out = tmp_path / "out"
        assert run("simulate", path, out) == EXIT_OK
        _, rows = read_csv(out / "entropy.csv")
        for t, _, s_lin in rows:
            if int(t) % 2 == 0:
                assert abs(s_lin) < 1e-9
            else:
                assert abs(s_lin - S_ODD_UNIT) < 1e-9

    def test_moment_columns_and_laws(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=10))
        out = tmp_path / "out"
        assert run("simulate", path, out) == EXIT_OK
        header, rows = read_csv(out / "moments.csv")
        assert header == [
            "t",
            "mean_p1",
            "p2_1",
            "D_1",
            "sigma2_1",
            "var_1",
            "mean_p2",
            "p2_2",
            "D_2",
            "sigma2_2",
            "var_2",
        ]
        for row in rows:
            t = int(row[0])
            sigma1, sigma2 = row[4], row[9]
            expected1 = 0.005 * t * t + (0.5 if t % 2 else 0.0)
            expected2 = 0.52 if t % 2 else 0.0
            assert abs(sigma1 - expected1) < 1e-8
            assert abs(sigma2 - expected2) < 1e-8

    def test_empty_interaction_gives_zero_entropy(self, tmp_path):
        body = fig1_body(steps=8)
        body["potential"]["terms"] = [
            {"coefficient": 0.5, "modes": [1, 0]},
            {"coefficient": 0.5, "modes": [0, 1]},
        ]
        path = write_config(tmp_path, "local.yaml", body)
        out = tmp_path / "out"
        assert run("simulate", path, out) == EXIT_OK
        _, rows = read_csv(out / "entropy.csv")
        assert len(rows) == 9
        for _, _, s_lin in rows:
            assert abs(s_lin) < 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=9))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", path, out1) == EXIT_OK
        assert run("simulate", path, out2) == EXIT_OK
        for name in ("moments.csv", "entropy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_effective_config_echo_closure(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=9))
        out1 = tmp_path / "a"
        assert run("simulate", path, out1) == EXIT_OK
        out2 = tmp_path / "b"
        assert run("simulate", out1 / "effective_config.yaml", out2) == EXIT_OK
        for name in ("moments.csv", "entropy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_hash_matches_identity_block(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=6))
        out = tmp_path / "out"
        assert run("simulate", path, out) == EXIT_OK
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        identity_text = yaml.safe_dump(
            manifest["identity"], sort_keys=True, default_flow_style=False
        )
        recomputed = hashlib.sha256(identity_text.encode()).hexdigest()
        assert manifest["content_hash"] == recomputed
        first_line = (out / "moments.csv").read_text().splitlines()[0]
        assert first_line == f"# manifest_sha256: {recomputed}"
        assert "moments.csv" in manifest["identity"]["outputs"]

    def test_manifest_runtime_records_window_growth(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=100))
        out = tmp_path / "out"
        assert run("simulate", path, out) == EXIT_OK
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        # growth is the normal path: no warning, and the windows it picks
        # stay out of the hashed identity
        assert manifest["identity"]["warnings"] == []
        assert manifest["identity"]["dimensions"] == []
        (record,) = manifest["runtime"]["runs"]
        assert record["grow_events"] >= 1
        assert record["window_shape"] == [
            hi - lo + 1 for lo, hi in record["windows"]
        ]

    def test_tight_element_cap_still_runs(self, tmp_path):
        # The worst-case window of this run, 73 cells, exactly fills the
        # cap.  The growing run starts on 49 cells; neither 1.25x growth
        # (90 cells) nor the minimum pad (85) fits, so it grows to the 73
        # the cap allows and finishes like an uncapped run.
        body = one_rotor_body(steps=10)
        body["potential"]["terms"] = [{"coefficient": 2.0, "modes": [1]}]
        free = write_config(tmp_path, "free.yaml", body)
        body["engine"] = {"element_cap": 73}
        capped = write_config(tmp_path, "capped.yaml", body)
        assert run("simulate", capped, tmp_path / "capped") == EXIT_OK
        assert run("simulate", free, tmp_path / "free") == EXIT_OK
        manifest = yaml.safe_load(
            (tmp_path / "capped" / "manifest.yaml").read_text()
        )
        assert manifest["runtime"]["runs"][0]["window_shape"] == [73]
        _, rows = read_csv(tmp_path / "capped" / "moments.csv")
        _, ref_rows = read_csv(tmp_path / "free" / "moments.csv")
        np.testing.assert_allclose(rows, ref_rows, rtol=1e-8, atol=1e-10)

    def test_validation_exit_code(self, tmp_path):
        path = write_config(tmp_path, "bad.yaml", {"system": "rotor"})
        assert run("simulate", path, tmp_path / "out") == EXIT_VALIDATION

    def test_truncation_exit_code(self, tmp_path, capsys):
        # both rotors secondary: the pi-periodic coupling accumulates
        # coherently, and the tail mass the grown windows keep, summed
        # over the steps, passes the budget
        body = fig1_body(steps=40)
        body["potential"]["terms"] = [{"coefficient": 1.0, "modes": [1, -1]}]
        body["plan"] = [
            {"numerator": 1, "denominator": 2},
            {"numerator": 1, "denominator": 2},
        ]
        body["engine"] = {"tail_budget": 1e-30}
        path = write_config(tmp_path, "tight.yaml", body)
        assert run("simulate", path, tmp_path / "out") == EXIT_TRUNCATION
        assert "exceeds budget 1.0e-30 at step 3" in capsys.readouterr().err

    def test_resource_cap_exit_code(self, tmp_path):
        body = fig1_body(steps=200)
        body["engine"] = {"element_cap": 4000}
        path = write_config(tmp_path, "cap.yaml", body)
        assert run("simulate", path, tmp_path / "out") == EXIT_RESOURCE

    def test_window_growth_cap_exit_code(self, tmp_path, capsys):
        # the ballistic rotor's window must grow past the cap mid-run
        body = one_rotor_body(steps=200)
        body["potential"]["terms"] = [{"coefficient": 2.0, "modes": [1]}]
        body["engine"] = {"element_cap": 200}
        path = write_config(tmp_path, "cap.yaml", body)
        assert run("simulate", path, tmp_path / "out") == EXIT_RESOURCE
        assert (
            "rotors [0] must grow past the element cap 200 at step 40"
            in capsys.readouterr().err
        )


class TestPredict:
    def test_report_contents(self, tmp_path):
        body = fig1_body(steps=5)
        body["predictor"] = {"samples": 20000, "seed": 4242}
        path = write_config(tmp_path, "fig1.yaml", body)
        out = tmp_path / "out"
        assert run("predict", path, out) == EXIT_OK
        report = yaml.safe_load((out / "report.yaml").read_text())
        regimes = report["regimes"]
        assert regimes["interaction_class"] == "antisymmetric"
        assert regimes["consistent"] is True
        eps = report["epsilon_moments"]
        # the block is EpsilonMoments' fields plus its eps_sq property
        assert set(eps) == {
            "eps_plus_sq",
            "eps_minus_sq",
            "eps_cross",
            "eps_sq",
            "norm",
            "s_odd",
            "eps_plus_mean",
            "eps_minus_mean",
            "std_errors",
            "sample_count",
        }
        fields = {f.name for f in dataclasses.fields(EpsilonMoments)}
        assert set(eps) == fields | {"eps_sq"}
        assert set(eps["std_errors"]) == fields - {
            "norm",
            "std_errors",
            "sample_count",
        }
        assert eps["eps_plus_sq"] == 0.0
        assert abs(eps["eps_minus_sq"] - 2.0) < 1e-12
        assert (
            abs(eps["s_odd"] - S_ODD_UNIT) < 3 * eps["std_errors"]["s_odd"]
        )
        params = report["wavepacket_params"]
        assert abs(params[0]["lambda_plus"] - 0.005) < 1e-12
        assert abs(params[1]["lambda_minus"] - 0.52) < 1e-12
        header, rows = read_csv(out / "predicted_moments.csv")
        assert header == ["t", "D_1", "sigma2_1", "D_2", "sigma2_2"]
        assert rows[4][2] == pytest.approx(0.005 * 16)

    def test_odd_step_entropy_is_the_s_odd_sample(self, tmp_path):
        # one Monte-Carlo sample per run: the curve and the epsilon
        # moments share it, so the odd steps repeat s_odd exactly
        body = fig1_body(steps=7)
        body["predictor"] = {"samples": 20000, "seed": 4242}
        path = write_config(tmp_path, "fig1.yaml", body)
        out = tmp_path / "out"
        assert run("predict", path, out) == EXIT_OK
        report = yaml.safe_load((out / "report.yaml").read_text())
        s_odd = report["epsilon_moments"]["s_odd"]
        _, rows = read_csv(out / "predicted_entropy.csv")
        odd = [row[1] for row in rows if row[0] % 2 == 1]
        assert len(odd) == 4
        assert all(value == s_odd for value in odd)

    def test_seed_flag_changes_mc_estimates(self, tmp_path):
        body = fig1_body(steps=2)
        body["predictor"] = {"samples": 20000, "seed": 1}
        path = write_config(tmp_path, "fig1.yaml", body)
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        assert run("predict", path, out1) == EXIT_OK
        assert run("predict", path, out2, "--seed", "99") == EXIT_OK
        assert run("predict", path, out3, "--seed", "99") == EXIT_OK
        r1 = yaml.safe_load((out1 / "report.yaml").read_text())
        r2 = yaml.safe_load((out2 / "report.yaml").read_text())
        assert (
            r1["epsilon_moments"]["s_odd"] != r2["epsilon_moments"]["s_odd"]
        )
        assert (out2 / "report.yaml").read_bytes() == (
            out3 / "report.yaml"
        ).read_bytes()

    def test_one_draw_per_run(self, tmp_path, monkeypatch):
        # the epsilon moments and the entropy curve share one four-block
        # draw, made in blocks of SAMPLE_BLOCK rows: per block, two angle
        # samples (plain and primed) and one evaluation per nonzero parity
        # part, here the odd part of an antisymmetric coupling
        calls = {"sample": 0, "rows": 0, "evaluate": 0}
        sample, evaluate = ProductAngleDensity.sample, PotentialSpec.evaluate

        def counted_sample(self, rng, count, *args, **kwargs):
            calls["sample"] += 1
            calls["rows"] += count
            return sample(self, rng, count, *args, **kwargs)

        def counted_evaluate(*args, **kwargs):
            calls["evaluate"] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(ProductAngleDensity, "sample", counted_sample)
        monkeypatch.setattr(PotentialSpec, "evaluate", counted_evaluate)
        body = fig1_body(steps=6)
        body["predictor"] = {"samples": 20000, "seed": 5}
        path = write_config(tmp_path, "fig1.yaml", body)
        assert run("predict", path, tmp_path / "out") == EXIT_OK
        blocks = -(-20000 // SAMPLE_BLOCK)
        assert blocks == 2
        assert calls == {
            "sample": 2 * blocks,
            "rows": 2 * 20000,
            "evaluate": blocks,
        }

    def test_oversized_sample_count_exits_4_before_sampling(
        self, tmp_path, capsys, monkeypatch
    ):
        # streamed in blocks, 1e11 samples would run for hours instead of
        # failing at allocation; the cap fails the run at load
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled past the cap")

        monkeypatch.setattr(ProductAngleDensity, "sample", no_sampling)
        body = fig1_body(steps=60)
        body["predictor"] = {"samples": 100000000000}
        path = write_config(tmp_path, "huge.yaml", body)
        out = tmp_path / "out"
        assert run("predict", path, out) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err == (
            "resource cap exceeded: predictor.samples: 100000000000 samples "
            f"x 61 S_lin rows is 6100000000000, cap is {MAX_SAMPLE_ROWS}\n"
        )
        assert not out.exists()

    def test_sample_cap_counts_samples_times_rows(self, tmp_path):
        body = fig1_body(steps=9)
        body["predictor"] = {"samples": MAX_SAMPLE_ROWS // 10}
        path = write_config(tmp_path, "edge.yaml", body)
        assert load_config(path, "predict").samples == MAX_SAMPLE_ROWS // 10
        assert load_config(path, "simulate").steps == 9
        body["predictor"]["samples"] += 1
        path = write_config(tmp_path, "over.yaml", body)
        with pytest.raises(ResourceCapError, match="^predictor.samples: "):
            load_config(path, "predict")
        load_config(path, "simulate")  # no Monte-Carlo pass to cap

    def test_every_bundled_config_fits_the_sample_cap(self):
        root = Path(__file__).resolve().parents[1]
        paths = sorted(root.glob("configs/*.yaml")) + sorted(
            root.glob("perfbench/configs/*.yaml")
        )
        assert paths
        for path in paths:
            body = yaml.safe_load(path.read_text())
            samples = body.get("predictor", {}).get("samples", DEFAULT_SAMPLES)
            assert samples * (body["steps"] + 1) <= MAX_SAMPLE_ROWS, path

    def test_empty_interaction_predict(self, tmp_path):
        body = fig1_body(steps=4)
        body["potential"]["terms"] = [{"coefficient": 0.5, "modes": [1, 0]}]
        path = write_config(tmp_path, "local.yaml", body)
        out = tmp_path / "out"
        assert run("predict", path, out) == EXIT_OK
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["epsilon_moments"] is None
        assert math.isinf(report["crossover_time"])
        _, rows = read_csv(out / "predicted_entropy.csv")
        assert all(row[1] == 0.0 for row in rows)


class TestCoherentStart:
    def test_simulate_and_predict_agree_up_to_the_start_spread(
        self, tmp_path
    ):
        # sigma2 from simulate also counts the start's momentum spread,
        # 2 width^2 per rotor (README, coherent offset)
        width = 1.5
        body = fig1_body(
            steps=12,
            initial={
                "type": "coherent",
                "centers": [[0.5, 0.0], [1.0, 3.0]],
                "width": width,
            },
        )
        path = write_config(tmp_path, "coherent.yaml", body)
        sim, pred = tmp_path / "sim", tmp_path / "pred"
        assert run("simulate", path, sim) == EXIT_OK
        assert run("predict", path, pred) == EXIT_OK
        header, simulated = read_csv(sim / "moments.csv")
        predicted_header, predicted = read_csv(pred / "predicted_moments.csv")
        assert len(simulated) == len(predicted) == 13
        for n in (1, 2):
            d_sim, d_pred = (
                h.index(f"D_{n}") for h in (header, predicted_header)
            )
            s_sim, s_pred = (
                h.index(f"sigma2_{n}") for h in (header, predicted_header)
            )
            for row, ref in zip(simulated, predicted):
                assert abs(row[d_sim] - ref[d_pred]) <= 1e-12
                offset = row[s_sim] - ref[s_pred]
                assert abs(offset - 2 * width**2) <= 1e-12
        _, entropy = read_csv(sim / "entropy.csv")
        _, expected = read_csv(pred / "predicted_entropy.csv")
        odd = [
            (row[2], ref[1], ref[2])
            for row, ref in zip(entropy, expected)
            if row[0] % 2 == 1
        ]
        assert len(odd) == 6
        for s_lin, mean, error in odd:
            assert error > 0.0
            assert abs(s_lin - mean) <= 4 * error


class TestClassify:
    @pytest.mark.parametrize("command", ["classify", "predict"])
    def test_single_body_exits_validation(self, tmp_path, capsys, command):
        path = write_config(tmp_path, "one.yaml", one_rotor_body())
        assert run(command, path, tmp_path / "out") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "needs at least two bodies to bipartition" in err

    def test_classify_writes_regime_report(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=3))
        out = tmp_path / "out"
        assert run("classify", path, out) == EXIT_OK
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["regimes"]["rotor_classes"] == [
            "asymmetric",
            "antisymmetric",
        ]
        assert "wavepacket_params" not in report


class TestDetuneScan:
    def scan_body(self, detunings, horizons):
        body = {
            "system": "rotor",
            "potential": {
                "terms": [
                    {"coefficient": 2.0, "modes": [1, 0]},
                    {"coefficient": 3.0, "modes": [0, 1]},
                    {"coefficient": 0.1, "modes": [1, -1]},
                ]
            },
            "plan": [
                {"numerator": 1, "denominator": 1},
                {"numerator": 1, "denominator": 2},
            ],
            "steps": max(horizons),
            "detune_scan": {
                "detunings": detunings,
                "threshold": 0.01,
                "horizons": horizons,
            },
        }
        return body

    def test_scan_outputs_and_fit(self, tmp_path):
        body = self.scan_body([3e-3, 1e-3, 3e-4], [15, 25, 45])
        path = write_config(tmp_path, "scan.yaml", body)
        out = tmp_path / "out"
        assert run("detune-scan", path, out) == EXIT_OK
        header, rows = read_csv(out / "tD.csv")
        assert header == ["delta_tau", "t_D"]
        times = {row[0]: row[1] for row in rows}
        assert all(math.isfinite(t) for t in times.values())
        # smaller detuning survives longer
        assert times[3e-4] > times[3e-3]
        report = yaml.safe_load((out / "report.yaml").read_text())
        # the block is ScalingFit's fields
        assert set(report["fit"]) == {
            "slope",
            "intercept",
            "stderr",
            "ci95",
            "points",
        }
        fields = {f.name for f in dataclasses.fields(ScalingFit)}
        assert set(report["fit"]) == fields
        assert report["fit"]["points"] == 3
        assert -1.0 < report["fit"]["slope"] < -0.2
        for i in (1, 2, 3):
            _, delta_rows = read_csv(out / f"delta_{i}.csv")
            assert delta_rows[0][0] == 1.0

    def test_threads_do_not_change_bytes(self, tmp_path):
        body = self.scan_body([3e-3, 1e-3], [12, 20])
        path = write_config(tmp_path, "scan.yaml", body)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("detune-scan", path, out1) == EXIT_OK
        assert run("detune-scan", path, out2, "--threads", "3") == EXIT_OK
        for name in ("delta_1.csv", "delta_2.csv", "tD.csv", "report.yaml"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_runs_recorded_outside_the_hash(self, tmp_path):
        body = self.scan_body([3e-3, 1e-3], [12, 20])
        path = write_config(tmp_path, "scan.yaml", body)
        out = tmp_path / "out"
        assert run("detune-scan", path, out) == EXIT_OK
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["identity"]["warnings"] == []
        runs = manifest["runtime"]["runs"]
        assert [(r["delta_tau"], r["steps"]) for r in runs] == [
            (0.0, 20),
            (3e-3, 12),
            (1e-3, 20),
        ]
        assert all(r["grow_events"] >= 1 for r in runs)
        assert all(len(r["window_shape"]) == 2 for r in runs)

    def test_loads_no_scipy(self, tmp_path):
        body = self.scan_body([3e-3, 1e-3, 3e-4], [15, 25, 45])
        path = write_config(tmp_path, "scan.yaml", body)
        out = tmp_path / "out"
        code = "\n".join(
            (
                "import sys",
                "import kickres.cli",
                "def scipy_modules():",
                "    return sorted(m for m in sys.modules"
                " if m.startswith('scipy'))",
                "assert scipy_modules() == [], scipy_modules()",
                "argv = ['detune-scan', '--config', sys.argv[1],"
                " '--out-dir', sys.argv[2], '--quiet']",
                "assert kickres.cli.main(argv) == 0",
                "assert scipy_modules() == [], scipy_modules()",
                # one thread needs no pool, nor the logging it imports
                "assert 'concurrent.futures' not in sys.modules",
            )
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(path), str(out)],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["fit"]["points"] == 3

    def test_fit_skipped_below_three_points(self, tmp_path):
        body = self.scan_body([3e-3], [15])
        path = write_config(tmp_path, "scan.yaml", body)
        out = tmp_path / "out"
        assert run("detune-scan", path, out) == EXIT_OK
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert "skipped" in report["fit"]


class TestTopSimulate:
    def test_jz_columns_and_even_step_entropy(self, tmp_path):
        path = write_config(tmp_path, "top.yaml", top_body(steps=10))
        out = tmp_path / "out"
        assert run("top-simulate", path, out) == EXIT_OK
        header, rows = read_csv(out / "moments.csv")
        assert header[:6] == [
            "t",
            "mean_jz1",
            "jz2_1",
            "D_1",
            "sigma2_1",
            "var_1",
        ]
        assert len(rows) == 11
        even = [row for row in rows if int(row[0]) % 2 == 0]
        # the principal top's sigma2_1 grows quadratically at even steps
        rate = even[1][4] / 4.0
        assert rate > 0
        for row in even[1:]:
            assert row[4] == pytest.approx(rate * row[0] ** 2, rel=0.01)
        # every field term is odd in J_2x, so lambda_+ = 0 for the
        # secondary top: its sigma2_2 returns to 0 at every even step
        for row in even:
            assert abs(row[9]) <= 1e-12
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["identity"]["dimensions"] == [[25, 25]]
        _, entropy_rows = read_csv(out / "entropy.csv")
        assert entropy_rows[0][1] == pytest.approx(1.0)

    def test_moments_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the J_z moments are read in the J_x frame with elementwise
        # products and sums only, and every purity sums its Gram matrix
        # with numpy, so moments.csv and entropy.csv must not depend on
        # the BLAS thread count.  The rotor runs cover purity products up
        # to the fig4 head's; a larger gemm's own bits still depend on it.
        # The Monte-Carlo pass makes no BLAS call on its samples, so
        # predict's files must not depend on it either
        root = Path(__file__).resolve().parents[1]
        body = yaml.safe_load((root / "configs" / "fig7.yaml").read_text())
        body["steps"] = 50
        simulated = ("moments.csv", "entropy.csv")
        predicted = ("predicted_entropy.csv", "report.yaml")
        runs = [
            ("top-simulate", write_config(tmp_path, "fig7_short.yaml", body),
             simulated),
            ("simulate", root / "configs" / "fig1.yaml", simulated),
            ("simulate", root / "perfbench" / "configs" / "fig4_head.yaml",
             simulated),
            ("predict", root / "configs" / "fig2.yaml", predicted),
        ]
        outputs = []
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            files = []
            for k, (command, path, names) in enumerate(runs):
                out = tmp_path / f"threads{threads}" / str(k)
                done = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "kickres.cli",
                        command,
                        "--config",
                        str(path),
                        "--out-dir",
                        str(out),
                        "--quiet",
                    ],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                assert done.returncode == 0, done.stderr
                for name in names:
                    files.append((out / name).read_bytes())
            outputs.append(files)
        assert outputs[0] == outputs[1]

    def test_runs_without_lapack(self, tmp_path, monkeypatch):
        # the J_x eigenbasis comes from its three-term recursion
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        path = write_config(tmp_path, "top.yaml", top_body(steps=4))
        assert run("top-simulate", path, tmp_path / "out") == EXIT_OK

    def test_purity_workspace_cap_exit_code(self, tmp_path):
        # the 5 x 5 state fits the cap of 30, its purity workspace does not
        body = top_body(steps=2)
        body["j_tot"] = 2
        body["engine"] = {"element_cap": 30}
        path = write_config(tmp_path, "top.yaml", body)
        assert run("top-simulate", path, tmp_path / "o") == EXIT_RESOURCE

    def test_half_integer_j_rejected(self, tmp_path):
        body = top_body()
        body["j_tot"] = 2.5
        path = write_config(tmp_path, "top.yaml", body)
        assert run("top-simulate", path, tmp_path / "o") == EXIT_VALIDATION

    def test_out_of_range_m_exits_validation(self, tmp_path):
        body = top_body()
        body["initial"]["momenta"] = [0, 99]
        path = write_config(tmp_path, "top.yaml", body)
        assert run("top-simulate", path, tmp_path / "o") == EXIT_VALIDATION


def _script_launch() -> list[str]:
    # what the installed ``kickres`` script runs: pyproject's entry point
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text()
    module, func = re.search(r'^kickres = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


@pytest.mark.parametrize("launch", ["module", "script"])
def test_cli_process_flushes_output_and_keeps_exit_code(tmp_path, launch):
    # both entry points skip the interpreter teardown after flushing, so
    # what the process printed and the code main() returned still arrive
    good = write_config(tmp_path, "top.yaml", top_body(steps=2))
    bad_body = top_body(steps=2)
    bad_body["j_tot"] = 2.5
    bad = write_config(tmp_path, "bad.yaml", bad_body)
    env = child_env()
    entry = ["-m", "kickres.cli"] if launch == "module" else _script_launch()
    done = [
        subprocess.run(
            [sys.executable, *entry, "top-simulate", "--config", str(path),
             "--out-dir", str(tmp_path / path.stem)],
            env=env,
            capture_output=True,
            text=True,
        )
        for path in (good, bad)
    ]
    assert done[0].returncode == EXIT_OK, done[0].stderr
    assert done[0].stdout.startswith("top-simulate: wrote entropy.csv")
    assert done[1].returncode == EXIT_VALIDATION
    assert done[1].stderr.startswith("validation error:")
    assert done[1].stdout == ""


def test_runs_without_random_numbers_load_no_openssl(tmp_path):
    # the manifest hash comes from the interpreter's own sha256, so only
    # predict maps OpenSSL's libcrypto: numpy.random imports secrets, and
    # that imports hmac and _hashlib
    runs = {
        "simulate": fig1_body(steps=2),
        "classify": fig1_body(steps=2),
        "detune-scan": TestDetuneScan().scan_body([3e-3], [15]),
        "top-simulate": top_body(steps=2),
    }
    argv = []
    for command, body in runs.items():
        argv += [command, str(write_config(tmp_path, f"{command}.yaml", body))]
    code = "\n".join(
        (
            "import sys",
            "from kickres.cli import main",
            "args = sys.argv[1:]",
            "for command, path in zip(args[::2], args[1::2]):",
            "    run = [command, '--config', path, '--out-dir',"
            " path + '.out', '--quiet']",
            "    assert main(run) == 0, run",
            "assert '_hashlib' not in sys.modules",
        )
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_threads_flag_validated(tmp_path):
    path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=2))
    code = main(
        [
            "simulate",
            "--config",
            str(path),
            "--out-dir",
            str(tmp_path / "o"),
            "--threads",
            "0",
            "--quiet",
        ]
    )
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "command", ["predict", "classify", "simulate", "top-simulate"]
)
def test_threads_above_one_rejected_without_parallel_work(
    tmp_path, capsys, command
):
    body = top_body(steps=2) if command == "top-simulate" else fig1_body(2)
    path = write_config(tmp_path, "config.yaml", body)
    assert run(command, path, tmp_path / "a", "--threads", "2") == (
        EXIT_VALIDATION
    )
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    assert run(command, path, tmp_path / "b", "--threads", "1") == EXIT_OK


def test_seed_flag_validated(tmp_path):
    path = write_config(tmp_path, "fig1.yaml", fig1_body(steps=2))
    code = main(
        [
            "simulate",
            "--config",
            str(path),
            "--out-dir",
            str(tmp_path / "o"),
            "--seed",
            "-5",
            "--quiet",
        ]
    )
    assert code == EXIT_VALIDATION


SUBCOMMAND_HELP = {
    "simulate": "split-operator rotor run -> moments.csv, entropy.csv",
    "predict": "analytic regime/moment/entropy report",
    "classify": "symmetry classes and regimes only",
    "detune-scan": "ideal vs detuned runs -> delta CSVs, tD.csv",
    "top-simulate": "twisted-top run -> moments.csv, entropy.csv",
}


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == EXIT_OK
    out = capsys.readouterr().out
    for name, text in SUBCOMMAND_HELP.items():
        line = rf"^ +{re.escape(name)} +{re.escape(text)}$"
        assert re.search(line, out, re.M), (name, out)


def test_unknown_subcommand_exits_2_naming_the_choices(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["simulat", "--config", "fig1.yaml"])
    assert stop.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid choice: 'simulat'" in err
    for name in SUBCOMMAND_HELP:
        assert repr(name) in err


def test_csv_cells():
    # integers print as they are, every float with 17 significant digits
    cells = [5, np.int64(5), 7.0, np.float64(0.1), math.inf, -0.0]
    text = _csv_text(["x"], [[value] for value in cells])
    assert text.split("\n") == [
        "x", "5", "5", "7", "0.10000000000000001", "inf", "-0", ""
    ]
