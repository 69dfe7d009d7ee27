"""Correctness and determinism gate for the outputs of one invocation.

`extract` reduces an invocation's output directory to the values the gate
compares; `record_reference.py` stores that summary, taken from a trusted
build, in reference.json, and `check` compares a fresh run against it:

* simulated moments and s_lin: 1e-8 relative or 1e-10 absolute;
* fig1 simulate, the paper's cross-check: every odd-step s_lin equals the
  exact 1 - <cos eps> to 1e-10;
* closed-form predictor fields (wavepacket coefficients, eps^2 moments,
  t*, the predicted moment curves): 1e-12 relative;
* Monte-Carlo predictor fields: within z standard errors of the reference,
  with the two runs' reported errors combined; the fig1 s_odd also within
  z of its exact value.  z is the larger of 4 (3 for the
  cross-check) and the Bonferroni bound that keeps the chance of a false alarm
  on a correct program below 1e-6 per invocation, over all the fields it
  tests at once;
* detune-scan: agreement times exactly as recorded, and the fitted
  log-log slope within its own ci95 of -1/2;
* classify: the regime table exactly.

Byte equality is kept for the determinism check (`digest`), which compares
passes of the same code and seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from statistics import NormalDist

import yaml

SIM_REL, SIM_ABS = 1e-8, 1e-10
EXACT_REL, EXACT_ABS = 1e-12, 1e-15
# fig1: odd-step linear entropy 1 - <cos eps> for V_I = cos(theta1 - theta2)
FIG1_S_ODD = 0.581812227138689
FIG1_S_ODD_TOL = 1e-10
FALSE_ALARM = 1e-6
MC_SIGMAS = 4.0
CROSS_CHECK_SIGMAS = 3.0
SCAN_SLOPE = -0.5
THIN_ABOVE = 201

# What reading a missing or malformed output file can raise.
OUTPUT_ERRORS = (OSError, KeyError, IndexError, ValueError, TypeError, yaml.YAMLError)

EXACT_EPS_FIELDS = ("eps_plus_sq", "eps_minus_sq", "eps_cross", "eps_sq", "norm")
MC_EPS_FIELDS = ("s_odd", "eps_plus_mean", "eps_minus_mean")


def read_csv(path: Path) -> dict[str, list[float]]:
    """Columns of a kickres CSV, skipping the manifest stamp line."""
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def _thin(table: dict[str, list[float]]) -> dict[str, list[float]]:
    """Every 10th row of a long series, to keep reference.json small."""
    if len(table["t"]) <= THIN_ABOVE:
        return table
    return {name: values[::10] for name, values in table.items()}


def _report(out_dir: Path) -> dict:
    return yaml.safe_load((out_dir / "report.yaml").read_text())


def extract(command: str, out_dir: Path) -> dict:
    """The values of one invocation's outputs that the gate compares."""
    if command in ("simulate", "top-simulate"):
        return {
            "moments": _thin(read_csv(out_dir / "moments.csv")),
            "entropy": _thin(read_csv(out_dir / "entropy.csv")),
        }
    if command == "classify":
        return {"regimes": _report(out_dir)["regimes"]}
    if command == "detune-scan":
        report = _report(out_dir)
        return {
            "t_D": read_csv(out_dir / "tD.csv")["t_D"],
            "slope": report["fit"]["slope"],
            "ci95": report["fit"]["ci95"],
        }
    if command == "predict":
        report = _report(out_dir)
        eps = report["epsilon_moments"]
        exact = {"crossover_time": report["crossover_time"]}
        for j, rotor in enumerate(report["wavepacket_params"]):
            for key, value in rotor.items():
                if key != "symmetry_class":
                    exact[f"rotor{j}.{key}"] = value
        for key in EXACT_EPS_FIELDS:
            exact[f"eps.{key}"] = eps[key]
        mc = {
            f"eps.{key}": [eps[key], eps["std_errors"][key]] for key in MC_EPS_FIELDS
        }
        curve = read_csv(out_dir / "predicted_entropy.csv")
        for t, value, error in zip(curve["t"], curve["s_lin"], curve["std_error"]):
            mc[f"s_lin[{int(t)}]"] = [value, error]
        return {
            "regimes": report["regimes"],
            "classes": [r["symmetry_class"] for r in report["wavepacket_params"]],
            "sample_count": eps["sample_count"],
            "exact": exact,
            "predicted_moments": read_csv(out_dir / "predicted_moments.csv"),
            "mc": mc,
        }
    raise ValueError(f"no extractor for command {command!r}")


def _close(got: float, ref: float, rel: float, tol: float) -> bool:
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= max(tol, rel * abs(ref))


def _compare_columns(label, got: dict, ref: dict, rel, tol, problems: list) -> None:
    if sorted(got) != sorted(ref):
        problems.append(f"{label}: columns {sorted(got)} != {sorted(ref)}")
        return
    for name, ref_values in ref.items():
        values = got[name]
        if len(values) != len(ref_values):
            problems.append(f"{label}.{name}: {len(values)} rows, want {len(ref_values)}")
            continue
        for row, (a, b) in enumerate(zip(values, ref_values)):
            if not _close(a, b, rel, tol):
                problems.append(f"{label}.{name}[{row}] = {a!r}, reference {b!r}")
                break


def sigma_limit(floor: float, fields: int) -> float:
    """Largest |z| allowed when `fields` z-scores are tested together."""
    return max(floor, NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2 * max(fields, 1))))


def _compare_mc(got: dict, ref: dict, problems: list) -> None:
    if sorted(got) != sorted(ref):
        problems.append(f"mc fields {sorted(set(got) ^ set(ref))} differ")
        return
    limit = sigma_limit(MC_SIGMAS, len(ref))
    for key, (ref_value, ref_error) in ref.items():
        value, error = got[key]
        sigma = math.hypot(error, ref_error)
        if sigma == 0.0:
            if not _close(value, ref_value, EXACT_REL, 1e-12):
                problems.append(f"{key} = {value!r}, exact reference {ref_value!r}")
        elif abs(value - ref_value) > limit * sigma:
            problems.append(
                f"{key} = {value!r} is {abs(value - ref_value) / sigma:.2f} sigma "
                f"from the reference {ref_value!r} (limit {limit:.2f})"
            )


def check(name: str, command: str, got: dict, ref: dict) -> list[str]:
    """Problems found in `got` (from `extract`) against the reference."""
    problems: list[str] = []
    if command in ("simulate", "top-simulate"):
        for block in ("moments", "entropy"):
            _compare_columns(block, got[block], ref[block], SIM_REL, SIM_ABS, problems)
        if name == "fig1" and command == "simulate":
            entropy = got["entropy"]
            for t, s_lin in zip(entropy["t"], entropy["s_lin"]):
                if int(t) % 2 == 1 and abs(s_lin - FIG1_S_ODD) > FIG1_S_ODD_TOL:
                    problems.append(
                        f"cross-check: s_lin({int(t)}) = {s_lin!r}, exact {FIG1_S_ODD!r}"
                    )
                    break
    elif command == "classify":
        if got["regimes"] != ref["regimes"]:
            problems.append(f"regimes {got['regimes']} != {ref['regimes']}")
    elif command == "detune-scan":
        if got["t_D"] != ref["t_D"]:
            problems.append(f"t_D {got['t_D']} != {ref['t_D']}")
        if abs(got["slope"] - SCAN_SLOPE) > got["ci95"]:
            problems.append(
                f"slope {got['slope']!r} is not within ci95 {got['ci95']!r} of {SCAN_SLOPE}"
            )
    elif command == "predict":
        for key in ("regimes", "classes", "sample_count"):
            if got[key] != ref[key]:
                problems.append(f"{key} {got[key]} != {ref[key]}")
        for key, ref_value in ref["exact"].items():
            value = got["exact"].get(key)
            if value is None or not _close(value, ref_value, EXACT_REL, EXACT_ABS):
                problems.append(f"{key} = {value!r}, reference {ref_value!r}")
        _compare_columns(
            "predicted_moments", got["predicted_moments"], ref["predicted_moments"],
            EXACT_REL, EXACT_ABS, problems,
        )
        _compare_mc(got["mc"], ref["mc"], problems)
        if name == "fig1":
            value, error = got["mc"]["eps.s_odd"]
            limit = sigma_limit(CROSS_CHECK_SIGMAS, 1)
            if not abs(value - FIG1_S_ODD) <= limit * error:
                problems.append(
                    f"cross-check: predicted s_odd {value!r} +- {error!r} is more "
                    f"than {limit:.2f} sigma from the exact {FIG1_S_ODD!r}"
                )
    else:
        problems.append(f"no check for command {command!r}")
    return problems


# Fields that legitimately differ between identical runs: the wall clock,
# and the echo of --out-dir.
VOLATILE = {"manifest.yaml": "runtime", "effective_config.yaml": "out_dir"}


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file, without the VOLATILE fields."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name in VOLATILE:
            mapping = yaml.safe_load(data)
            mapping.pop(VOLATILE[path.name], None)
            data = yaml.safe_dump(mapping, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out
