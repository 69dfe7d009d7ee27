"""End-to-end tests of the config-driven experiment runner."""

import hashlib
import math

import numpy as np
import pytest
import yaml

from oracles import S_ODD_UNIT

from kickres.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_TRUNCATION,
    EXIT_VALIDATION,
    ConfigError,
    load_config,
    main,
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


class TestConfigValidation:
    def test_missing_required_field_names_path(self, tmp_path):
        path = write_config(tmp_path, "bad.yaml", {"system": "rotor"})
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        assert "plan" in str(excinfo.value)

    def test_unknown_field_names_full_path(self, tmp_path):
        body = fig1_body()
        body["engine"] = {"tail_tolerancee": 1e-10}
        path = write_config(tmp_path, "bad.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "simulate")
        assert "engine.tail_tolerancee" in str(excinfo.value)

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
        assert eff["engine"]["tail_tolerance"] == 1e-10
        assert eff["engine"]["auto_grow"] is True
        assert eff["predictor"] == {"samples": 200000, "seed": 12345}
        assert eff["plan"][0]["delta_tau"] == 0.0

    def test_seed_override_lands_in_echo(self, tmp_path):
        path = write_config(tmp_path, "fig1.yaml", fig1_body())
        cfg = load_config(path, "simulate", seed_override=777)
        assert cfg.seed == 777
        assert cfg.effective["predictor"]["seed"] == 777

    def test_zero_detuning_rejected(self, tmp_path):
        body = fig1_body()
        body["detune_scan"] = {"detunings": [1e-3, 0.0]}
        path = write_config(tmp_path, "scan.yaml", body)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, "detune-scan")
        message = str(excinfo.value)
        assert "detune_scan.detunings[1]" in message
        assert "ideal run is the reference" in message

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

    def test_validation_exit_code(self, tmp_path):
        path = write_config(tmp_path, "bad.yaml", {"system": "rotor"})
        assert run("simulate", path, tmp_path / "out") == EXIT_VALIDATION

    def test_truncation_exit_code(self, tmp_path):
        # both rotors secondary: the pi-periodic coupling accumulates
        # coherently, so the fixed window edge sees growing tail mass
        body = fig1_body(steps=40)
        body["potential"]["terms"] = [{"coefficient": 1.0, "modes": [1, -1]}]
        body["plan"] = [
            {"numerator": 1, "denominator": 2},
            {"numerator": 1, "denominator": 2},
        ]
        body["engine"] = {
            "auto_grow": False,
            "window_margin": 0,
            "tail_tolerance": 1e-28,
        }
        path = write_config(tmp_path, "tight.yaml", body)
        assert run("simulate", path, tmp_path / "out") == EXIT_TRUNCATION

    def test_resource_cap_exit_code(self, tmp_path):
        body = fig1_body(steps=200)
        body["engine"] = {"element_cap": 4000}
        path = write_config(tmp_path, "cap.yaml", body)
        assert run("simulate", path, tmp_path / "out") == EXIT_RESOURCE


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


class TestClassify:
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
        # secondary top twists make sigma2 grow quadratically at even steps
        growth = [row[9] for row in rows if int(row[0]) % 2 == 0]
        assert growth[-1] > growth[1] > 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["identity"]["dimensions"] == [[25, 25]]
        _, entropy_rows = read_csv(out / "entropy.csv")
        assert entropy_rows[0][1] == pytest.approx(1.0)

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
