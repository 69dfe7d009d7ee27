"""Config-driven experiment runner.

Subcommands
    simulate      rotor split-operator run -> moments.csv + entropy.csv
    predict       pure analytic pipeline -> report.yaml
    classify      symmetry/regime table only -> report.yaml
    detune-scan   ideal vs detuned runs -> delta_*.csv, tD.csv, report.yaml
    top-simulate  twisted-top run -> moments.csv + entropy.csv (jz_ columns)

All physics parameters come from a YAML config; the only flags are
--config, --out-dir, --seed, --threads, --quiet.  Every subcommand accepts
--threads, but only detune-scan uses it: it runs the ideal and detuned
trajectories in parallel, and its output bytes do not depend on the
thread count.  Defaults are
materialized into an echoed effective config so a run is reproducible
from its own artifacts, and every CSV cell is written with 17
significant digits so identical (config, seed) pairs give byte-identical
files.  Each output references the run manifest by the content hash of
the manifest's deterministic identity block (the wall clock lives in a
separate runtime block).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import __version__
from .entanglement import BipartitionSpec, schmidt_purity
from .errors import (
    KickresError,
    ResourceCapError,
    TruncationError,
    ValidationError,
)
from .potential import (
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    sine_term,
    split_interaction,
    term_text,
)
from .predictor import (
    ProductAngleDensity,
    RobustnessResult,
    classify_regimes,
    crossover_time,
    deviation_series,
    epsilon_moments,
    predict_moments,
    slin_exact,
    wavepacket_params,
)
from .rotor_engine import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_TAIL_BUDGET,
    DEFAULT_TAIL_TOL,
    RotorEngine,
    RotorLattice,
    RotorState,
    displacement_stats,
    measure_moments,
)
from .top_engine import (
    FieldTerm,
    TopEngine,
    TopSpec,
    TopState,
    top_purity,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TRUNCATION = 3
EXIT_RESOURCE = 4

DEFAULT_SAMPLES = 200_000
DEFAULT_SEED = 12345
MAX_SEED = 2**64 - 1


class ConfigError(ValidationError):
    """Schema violation carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def fmt(value) -> str:
    """Full round-trip float formatting for CSV cells."""
    return f"{float(value):.17g}"


# ----------------------------------------------------------------------
# schema walking


def _type_name(value) -> str:
    return type(value).__name__


def _as_mapping(node, path) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {_type_name(node)}")
    return node


def _as_list(node, path) -> list:
    if not isinstance(node, list):
        raise ConfigError(path, f"expected a list, got {_type_name(node)}")
    return node


def _as_int(node, path, minimum=None, maximum=None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(path, f"expected an integer, got {_type_name(node)}")
    if minimum is not None and node < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {node}")
    if maximum is not None and node > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {node}")
    return node


def _as_float(node, path, positive=False) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, f"expected a number, got {_type_name(node)}")
    value = float(node)
    if not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if positive and value <= 0.0:
        raise ConfigError(path, f"must be > 0, got {value}")
    return value


def _as_bool(node, path) -> bool:
    if not isinstance(node, bool):
        raise ConfigError(path, f"expected a boolean, got {_type_name(node)}")
    return node


def _as_str(node, path, choices=None) -> str:
    if not isinstance(node, str):
        raise ConfigError(path, f"expected a string, got {_type_name(node)}")
    if choices is not None and node not in choices:
        raise ConfigError(
            path, f"must be one of {sorted(choices)}, got {node!r}"
        )
    return node


def _reject_unknown(mapping: dict, path: str, known: Sequence[str]) -> None:
    extra = sorted(set(mapping) - set(known))
    if extra:
        raise ConfigError(
            f"{path}.{extra[0]}" if path else extra[0],
            "unknown field",
        )


# ----------------------------------------------------------------------
# config parsing


@dataclass
class ExperimentConfig:
    """Validated experiment description plus its effective-config echo."""

    command: str
    system: str
    steps: int
    potential: PotentialSpec | None
    plan: ResonancePlan
    j_tot: int | None
    field_terms: tuple
    initial: dict
    part: BipartitionSpec | None
    tail_tolerance: float
    tail_budget: float
    window_margin: int
    auto_grow: bool
    element_cap: int
    samples: int
    seed: int
    detunings: tuple
    threshold: float
    horizons: tuple
    out_dir: Path
    effective: dict


def _parse_potential(node, path, body_count) -> tuple:
    block = _as_mapping(node, path)
    _reject_unknown(block, path, ("terms",))
    if "terms" not in block:
        raise ConfigError(f"{path}.terms", "missing required field")
    raw_terms = _as_list(block["terms"], f"{path}.terms")
    terms = []
    echo_terms = []
    for i, item in enumerate(raw_terms):
        tpath = f"{path}.terms[{i}]"
        term = _as_mapping(item, tpath)
        _reject_unknown(term, tpath, ("coefficient", "modes", "kind", "phase"))
        for req in ("coefficient", "modes"):
            if req not in term:
                raise ConfigError(f"{tpath}.{req}", "missing required field")
        coeff = _as_float(term["coefficient"], f"{tpath}.coefficient")
        modes = [
            _as_int(m, f"{tpath}.modes[{k}]")
            for k, m in enumerate(_as_list(term["modes"], f"{tpath}.modes"))
        ]
        if len(modes) != body_count:
            raise ConfigError(
                f"{tpath}.modes", f"expected {body_count} entries"
            )
        kind = _as_str(term.get("kind", "cos"), f"{tpath}.kind", {"cos", "sin"})
        if "phase" in term and kind == "sin":
            raise ConfigError(
                f"{tpath}.phase", "specify either kind: sin or phase, not both"
            )
        phase = _as_float(term.get("phase", 0.0), f"{tpath}.phase")
        try:
            built = (
                FourierTerm(coeff, tuple(modes), phase)
                if kind == "cos"
                else sine_term(coeff, modes)
            )
        except ValidationError as exc:
            raise ConfigError(tpath, str(exc)) from exc
        terms.append(built)
        echo_terms.append(
            {
                "coefficient": built.coefficient,
                "modes": list(built.modes),
                "phase": built.phase,
            }
        )
    try:
        spec = PotentialSpec(rotor_count=body_count, terms=tuple(terms))
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc
    return spec, {"terms": echo_terms}


def _parse_field_terms(node, path, body_count) -> tuple:
    raw = _as_list(node, path)
    terms = []
    echo = []
    for i, item in enumerate(raw):
        tpath = f"{path}[{i}]"
        term = _as_mapping(item, tpath)
        _reject_unknown(term, tpath, ("coefficient", "powers"))
        for req in ("coefficient", "powers"):
            if req not in term:
                raise ConfigError(f"{tpath}.{req}", "missing required field")
        coeff = _as_float(term["coefficient"], f"{tpath}.coefficient")
        powers = [
            _as_int(k, f"{tpath}.powers[{n}]", minimum=0)
            for n, k in enumerate(_as_list(term["powers"], f"{tpath}.powers"))
        ]
        if len(powers) != body_count:
            raise ConfigError(
                f"{tpath}.powers", f"expected {body_count} entries"
            )
        try:
            terms.append(FieldTerm(coeff, tuple(powers)))
        except ValidationError as exc:
            raise ConfigError(tpath, str(exc)) from exc
        echo.append({"coefficient": coeff, "powers": list(powers)})
    return tuple(terms), echo


def _parse_plan(node, path) -> tuple:
    raw = _as_list(node, path)
    if not raw:
        raise ConfigError(path, "a plan needs at least one body")
    rationals, detunings, echo = [], [], []
    for i, item in enumerate(raw):
        ppath = f"{path}[{i}]"
        entry = _as_mapping(item, ppath)
        _reject_unknown(
            entry, ppath, ("numerator", "denominator", "delta_tau")
        )
        for req in ("numerator", "denominator"):
            if req not in entry:
                raise ConfigError(f"{ppath}.{req}", "missing required field")
        r = _as_int(entry["numerator"], f"{ppath}.numerator", minimum=1)
        s = _as_int(entry["denominator"], f"{ppath}.denominator", minimum=1)
        d = _as_float(entry.get("delta_tau", 0.0), f"{ppath}.delta_tau")
        rationals.append((r, s))
        detunings.append(d)
        echo.append({"numerator": r, "denominator": s, "delta_tau": d})
    try:
        plan = ResonancePlan(tuple(rationals), tuple(detunings))
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc
    return plan, echo


def _parse_initial(node, path, body_count) -> tuple:
    block = _as_mapping(node, path)
    known = ("type", "momenta", "centers", "width")
    _reject_unknown(block, path, known)
    kind = _as_str(
        block.get("type", "momentum_eigenstate"),
        f"{path}.type",
        {"momentum_eigenstate", "coherent"},
    )
    if kind == "momentum_eigenstate":
        momenta = [
            _as_int(m, f"{path}.momenta[{i}]")
            for i, m in enumerate(
                _as_list(block.get("momenta", [0] * body_count),
                         f"{path}.momenta")
            )
        ]
        if len(momenta) != body_count:
            raise ConfigError(f"{path}.momenta", f"expected {body_count} entries")
        for extra in ("centers", "width"):
            if extra in block:
                raise ConfigError(
                    f"{path}.{extra}",
                    "only valid for type: coherent",
                )
        descriptor = {"type": kind, "momenta": momenta}
        return descriptor, descriptor
    if "centers" not in block:
        raise ConfigError(f"{path}.centers", "missing required field")
    raw_centers = _as_list(block["centers"], f"{path}.centers")
    if len(raw_centers) != body_count:
        raise ConfigError(f"{path}.centers", f"expected {body_count} entries")
    centers = []
    for i, pair in enumerate(raw_centers):
        cp = f"{path}.centers[{i}]"
        pair = _as_list(pair, cp)
        if len(pair) != 2:
            raise ConfigError(cp, "expected [theta0, p0]")
        centers.append(
            (_as_float(pair[0], f"{cp}[0]"), _as_float(pair[1], f"{cp}[1]"))
        )
    width = _as_float(block.get("width", 1.0), f"{path}.width", positive=True)
    if "momenta" in block:
        raise ConfigError(
            f"{path}.momenta", "only valid for type: momentum_eigenstate"
        )
    descriptor = {
        "type": kind,
        "centers": [[a, b] for a, b in centers],
        "width": width,
    }
    return descriptor, descriptor


def load_config(
    config_path: Path,
    command: str,
    seed_override: int | None = None,
    out_dir_override: Path | None = None,
) -> ExperimentConfig:
    """Parse and strictly validate a YAML experiment config."""
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(str(config_path), f"cannot read config: {exc}")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(str(config_path), f"invalid YAML: {exc}")
    root = _as_mapping(raw, "<root>")

    known = (
        "system",
        "potential",
        "field_terms",
        "j_tot",
        "plan",
        "initial",
        "bipartition",
        "steps",
        "engine",
        "predictor",
        "detune_scan",
        "out_dir",
    )
    _reject_unknown(root, "", known)

    expected_system = "top" if command == "top-simulate" else "rotor"
    system = _as_str(
        root.get("system", expected_system), "system", {"rotor", "top"}
    )
    if system != expected_system:
        raise ConfigError(
            "system", f"command {command} requires system: {expected_system}"
        )

    if "plan" not in root:
        raise ConfigError("plan", "missing required field")
    plan, plan_echo = _parse_plan(root["plan"], "plan")
    body_count = plan.rotor_count

    potential = None
    potential_echo = None
    field_terms: tuple = ()
    field_echo = None
    j_tot = None
    if system == "rotor":
        if "potential" not in root:
            raise ConfigError("potential", "missing required field")
        if "field_terms" in root or "j_tot" in root:
            key = "field_terms" if "field_terms" in root else "j_tot"
            raise ConfigError(key, "only valid for system: top")
        potential, potential_echo = _parse_potential(
            root["potential"], "potential", body_count
        )
    else:
        if "potential" in root:
            raise ConfigError("potential", "only valid for system: rotor")
        if "j_tot" not in root:
            raise ConfigError("j_tot", "missing required field")
        j_tot = _as_int(root["j_tot"], "j_tot", minimum=1)
        field_terms, field_echo = _parse_field_terms(
            root.get("field_terms", []), "field_terms", body_count
        )

    initial, initial_echo = _parse_initial(
        root.get("initial", {"type": "momentum_eigenstate"}),
        "initial",
        body_count,
    )
    if system == "top" and initial["type"] != "momentum_eigenstate":
        raise ConfigError(
            "initial.type",
            "tops support only momentum_eigenstate (J_z product states)",
        )

    part = None
    if body_count >= 2:
        part_block = _as_mapping(
            root.get("bipartition", {"part_a": [0]}), "bipartition"
        )
        _reject_unknown(part_block, "bipartition", ("part_a",))
        part_a = [
            _as_int(j, f"bipartition.part_a[{i}]", minimum=0)
            for i, j in enumerate(
                _as_list(part_block.get("part_a", [0]), "bipartition.part_a")
            )
        ]
        try:
            part = BipartitionSpec(
                rotor_count=body_count, part_a=tuple(part_a)
            )
        except ValidationError as exc:
            raise ConfigError("bipartition.part_a", str(exc)) from exc
    elif "bipartition" in root:
        raise ConfigError(
            "bipartition", "a single body has no bipartition"
        )

    if "steps" not in root:
        raise ConfigError("steps", "missing required field")
    steps = _as_int(root["steps"], "steps", minimum=1)

    engine = _as_mapping(root.get("engine", {}), "engine")
    engine_known = (
        "tail_tolerance",
        "tail_budget",
        "window_margin",
        "auto_grow",
        "element_cap",
    )
    _reject_unknown(engine, "engine", engine_known)
    tail_tolerance = _as_float(
        engine.get("tail_tolerance", DEFAULT_TAIL_TOL),
        "engine.tail_tolerance",
        positive=True,
    )
    tail_budget = _as_float(
        engine.get("tail_budget", DEFAULT_TAIL_BUDGET),
        "engine.tail_budget",
        positive=True,
    )
    window_margin = _as_int(
        engine.get("window_margin", 16), "engine.window_margin", minimum=0
    )
    auto_grow = _as_bool(engine.get("auto_grow", True), "engine.auto_grow")
    element_cap = _as_int(
        engine.get("element_cap", DEFAULT_ELEMENT_CAP),
        "engine.element_cap",
        minimum=1,
    )

    pred = _as_mapping(root.get("predictor", {}), "predictor")
    _reject_unknown(pred, "predictor", ("samples", "seed"))
    samples = _as_int(
        pred.get("samples", DEFAULT_SAMPLES), "predictor.samples", minimum=1
    )
    seed = _as_int(
        pred.get("seed", DEFAULT_SEED),
        "predictor.seed",
        minimum=0,
        maximum=MAX_SEED,
    )
    if seed_override is not None:
        seed = seed_override

    detunings: tuple = ()
    threshold = 0.01
    horizons: tuple = ()
    if command == "detune-scan":
        if "detune_scan" not in root:
            raise ConfigError("detune_scan", "missing required field")
        scan = _as_mapping(root["detune_scan"], "detune_scan")
        _reject_unknown(
            scan, "detune_scan", ("detunings", "threshold", "horizons")
        )
        if "detunings" not in scan:
            raise ConfigError("detune_scan.detunings", "missing required field")
        raw_d = _as_list(scan["detunings"], "detune_scan.detunings")
        if not raw_d:
            raise ConfigError("detune_scan.detunings", "needs at least one value")
        values = []
        for i, d in enumerate(raw_d):
            value = _as_float(d, f"detune_scan.detunings[{i}]")
            if value == 0.0:
                raise ConfigError(
                    f"detune_scan.detunings[{i}]",
                    "0 is not a scan point: the ideal run is the reference",
                )
            if value < 0.0:
                raise ConfigError(
                    f"detune_scan.detunings[{i}]", "must be positive"
                )
            values.append(value)
        detunings = tuple(values)
        threshold = _as_float(
            scan.get("threshold", 0.01), "detune_scan.threshold", positive=True
        )
        raw_h = scan.get("horizons", [steps] * len(detunings))
        horizons = tuple(
            _as_int(h, f"detune_scan.horizons[{i}]", minimum=1)
            for i, h in enumerate(_as_list(raw_h, "detune_scan.horizons"))
        )
        if len(horizons) != len(detunings):
            raise ConfigError(
                "detune_scan.horizons", "expected one horizon per detuning"
            )
        if not plan.is_exact:
            raise ConfigError(
                "plan",
                "detune-scan needs an exact base plan (all delta_tau = 0)",
            )
    elif "detune_scan" in root:
        raise ConfigError(
            "detune_scan", "only valid for the detune-scan command"
        )

    out_dir = Path(
        out_dir_override
        if out_dir_override is not None
        else _as_str(root.get("out_dir", f"runs/{command}"), "out_dir")
    )

    effective: dict = {"system": system, "plan": plan_echo}
    if system == "rotor":
        effective["potential"] = potential_echo
    else:
        effective["j_tot"] = j_tot
        effective["field_terms"] = field_echo
    effective["initial"] = initial_echo
    if part is not None:
        effective["bipartition"] = {"part_a": list(part_a)}
    effective["steps"] = steps
    effective["engine"] = {
        "tail_tolerance": tail_tolerance,
        "tail_budget": tail_budget,
        "window_margin": window_margin,
        "auto_grow": auto_grow,
        "element_cap": element_cap,
    }
    effective["predictor"] = {"samples": samples, "seed": seed}
    if command == "detune-scan":
        effective["detune_scan"] = {
            "detunings": list(detunings),
            "threshold": threshold,
            "horizons": list(horizons),
        }
    effective["out_dir"] = str(out_dir)

    return ExperimentConfig(
        command=command,
        system=system,
        steps=steps,
        potential=potential,
        plan=plan,
        j_tot=j_tot,
        field_terms=field_terms,
        initial=initial,
        part=part,
        tail_tolerance=tail_tolerance,
        tail_budget=tail_budget,
        window_margin=window_margin,
        auto_grow=auto_grow,
        element_cap=element_cap,
        samples=samples,
        seed=seed,
        detunings=detunings,
        threshold=threshold,
        horizons=horizons,
        out_dir=out_dir,
        effective=effective,
    )


# ----------------------------------------------------------------------
# output plumbing


def _canonical_yaml(obj) -> str:
    return yaml.safe_dump(obj, sort_keys=True, default_flow_style=False)


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            else:
                cells.append(fmt(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_outputs(
    cfg: ExperimentConfig,
    files: dict,
    dimensions,
    warnings: list,
    started: float,
    quiet: bool,
) -> None:
    """Write all artifacts, stamping each with the manifest identity hash.

    The identity block excludes out_dir and wall clock, so the same
    physics + seed gives byte-identical data files wherever they land.
    """
    identity = {
        "command": cfg.command,
        "code_version": __version__,
        "effective_config": {
            k: v for k, v in cfg.effective.items() if k != "out_dir"
        },
        "seeds": {"predictor": cfg.seed},
        "dimensions": dimensions,
        "warnings": warnings,
        "outputs": sorted(files),
    }
    content_hash = hashlib.sha256(
        _canonical_yaml(identity).encode()
    ).hexdigest()
    manifest = {
        "identity": identity,
        "content_hash": content_hash,
        "runtime": {
            "wall_clock_seconds": round(time.monotonic() - started, 3),
        },
    }
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stamp = f"# manifest_sha256: {content_hash}\n"
    for name, text in files.items():
        (out / name).write_text(stamp + text)
    (out / "manifest.yaml").write_text(_canonical_yaml(manifest))
    (out / "effective_config.yaml").write_text(
        _canonical_yaml(cfg.effective)
    )
    if not quiet:
        names = " ".join(sorted(files) + ["manifest.yaml"])
        print(f"{cfg.command}: wrote {names} -> {out}")


def _moment_rows(series, body_count: int):
    rows = []
    for rec in series:
        row = [rec.t]
        for j in range(body_count):
            row.extend(
                (
                    rec.mean[j],
                    rec.second[j],
                    rec.displacement[j],
                    rec.spread[j],
                    rec.variance[j],
                )
            )
        rows.append(row)
    return rows


def _moment_columns(body_count: int, prefix: str):
    cols = ["t"]
    for j in range(1, body_count + 1):
        cols.extend(
            (
                f"mean_{prefix}{j}",
                f"{prefix}2_{j}",
                f"D_{j}",
                f"sigma2_{j}",
                f"var_{j}",
            )
        )
    return cols


# ----------------------------------------------------------------------
# subcommands


def _rotor_run_pieces(cfg: ExperimentConfig):
    """Lattice, engine, and initial state for a rotor config."""
    descriptor = cfg.initial
    if descriptor["type"] == "momentum_eigenstate":
        sizing = descriptor["momenta"]
    else:
        sizing = [int(round(p0)) for _, p0 in descriptor["centers"]]
        margin_extra = int(math.ceil(6.0 * descriptor["width"])) + 2
    lattice = RotorLattice.for_run(
        cfg.potential,
        sizing,
        cfg.steps,
        margin=cfg.window_margin
        + (0 if descriptor["type"] == "momentum_eigenstate" else margin_extra),
        element_cap=cfg.element_cap,
    )
    engine = RotorEngine(
        cfg.potential,
        cfg.plan,
        lattice,
        tail_tol=cfg.tail_tolerance,
        tail_budget=cfg.tail_budget,
        auto_grow=cfg.auto_grow,
    )
    if descriptor["type"] == "momentum_eigenstate":
        state = RotorState.momentum_eigenstate(lattice, descriptor["momenta"])
    else:
        state = RotorState.coherent_product(
            lattice,
            [tuple(c) for c in descriptor["centers"]],
            descriptor["width"],
        )
    return engine, state


def _simulate_files(
    cfg: ExperimentConfig, engine, state, measure, purity, prefix: str
):
    """Moments and entropy along engine.trajectory -> (files, warnings).

    ``measure(state, t)`` gives the step's MomentRecord and
    ``purity(state, part)`` its bipartite purity; entropy rows are
    omitted for a single body.
    """
    records = []
    entropy_rows = []
    for t, current in engine.trajectory(state, cfg.steps):
        records.append(measure(current, t))
        if cfg.part is not None:
            value = purity(current, cfg.part)
            entropy_rows.append([t, value, 1.0 - value])
    series = displacement_stats(records)
    n = cfg.plan.rotor_count
    files = {
        "moments.csv": _csv_text(
            _moment_columns(n, prefix), _moment_rows(series, n)
        ),
        "entropy.csv": _csv_text(("t", "purity", "s_lin"), entropy_rows),
    }
    warnings = []
    if cfg.part is None:
        warnings.append("entropy undefined for a single body; rows omitted")
    return files, warnings


def run_simulate(cfg: ExperimentConfig, quiet: bool = False) -> None:
    started = time.monotonic()
    engine, state = _rotor_run_pieces(cfg)
    files, warnings = _simulate_files(
        cfg, engine, state, measure_moments, schmidt_purity, "p"
    )
    if engine.grow_events:
        warnings.append(f"window auto-grow events: {engine.grow_events}")
    dims = [list(w) for w in engine.lattice.windows]
    _write_outputs(cfg, files, dims, warnings, started, quiet)


def _initial_density(cfg: ExperimentConfig) -> ProductAngleDensity:
    descriptor = cfg.initial
    if descriptor["type"] == "momentum_eigenstate":
        return ProductAngleDensity.uniform(cfg.plan.rotor_count)
    factors = []
    width = descriptor["width"]
    for theta0, p0 in descriptor["centers"]:
        reach = int(math.ceil(8.0 * width))
        quanta = np.arange(
            int(math.floor(p0)) - reach, int(math.ceil(p0)) + reach + 1
        )
        amps = np.exp(-((quanta - p0) ** 2) / (4.0 * width**2)) * np.exp(
            -1j * quanta * theta0
        )
        factors.append(amps / np.linalg.norm(amps))
    return ProductAngleDensity.from_factors(factors)


def _regimes_block(report) -> dict:
    return {
        "rotor_classes": [c.name.lower() for c in report.rotor_classes],
        "rotor_regimes": list(report.rotor_regimes),
        "interaction_class": report.interaction_class.name.lower(),
        "interaction_regime": report.interaction_regime,
        "selection_rule_ok": list(report.selection_rule_ok),
        "consistent": report.consistent,
    }


def run_classify(cfg: ExperimentConfig, quiet: bool = False) -> None:
    started = time.monotonic()
    if cfg.part is None:
        raise ValidationError(
            "classification needs at least two bodies to bipartition"
        )
    report = classify_regimes(cfg.potential, cfg.plan, cfg.part)
    body = {
        "report_version": 1,
        "potential": [term_text(t) for t in cfg.potential.terms],
        "regimes": _regimes_block(report),
    }
    files = {"report.yaml": _canonical_yaml(body)}
    _write_outputs(cfg, files, [], [], started, quiet)


def run_predict(cfg: ExperimentConfig, quiet: bool = False) -> None:
    started = time.monotonic()
    if cfg.part is None:
        raise ValidationError(
            "prediction needs at least two bodies to bipartition"
        )
    report = classify_regimes(cfg.potential, cfg.plan, cfg.part)
    shift = cfg.plan.shift_set
    density = _initial_density(cfg)
    params = wavepacket_params(cfg.potential, shift, density)
    per_rotor = [
        {
            "alpha_plus": params.alpha_plus[j],
            "alpha_minus": params.alpha_minus[j],
            "lambda_plus": params.lambda_plus[j],
            "lambda_minus": params.lambda_minus[j],
            "kappa": params.kappa[j],
            "symmetry_class": params.symmetry[j].name.lower(),
        }
        for j in range(params.rotor_count)
    ]
    curve_rows = []
    for t in range(cfg.steps + 1):
        displacement, spread = predict_moments(params, t)
        row = [t]
        for j in range(params.rotor_count):
            row.extend((displacement[j], spread[j]))
        curve_rows.append(row)

    _, _, v_i = split_interaction(cfg.potential, cfg.part.part_a)
    epsilon_block = None
    tstar: float = math.inf
    slin_rows = []
    if v_i.is_zero:
        slin_rows = [[t, 0.0, 0.0] for t in range(cfg.steps + 1)]
    else:
        moments = epsilon_moments(
            v_i, shift, density, cfg.part, cfg.samples, cfg.seed
        )
        epsilon_block = {
            "eps_plus_sq": moments.eps_plus_sq,
            "eps_minus_sq": moments.eps_minus_sq,
            "eps_cross": moments.eps_cross,
            "eps_sq": moments.eps_sq,
            "norm": moments.norm,
            "s_odd": moments.s_odd,
            "eps_plus_mean": moments.eps_plus_mean,
            "eps_minus_mean": moments.eps_minus_mean,
            "std_errors": dict(moments.std_errors),
            "sample_count": moments.sample_count,
        }
        if moments.norm > 0.0:
            tstar = crossover_time(moments)
        for t in range(cfg.steps + 1):
            est = slin_exact(
                v_i, shift, density, cfg.part, t, cfg.samples, cfg.seed + t
            )
            slin_rows.append([t, est.value, est.std_error])

    body = {
        "report_version": 1,
        "potential": [term_text(t) for t in cfg.potential.terms],
        "regimes": _regimes_block(report),
        "wavepacket_params": per_rotor,
        "epsilon_moments": epsilon_block,
        "crossover_time": tstar,
    }
    moment_cols = ["t"]
    for j in range(1, params.rotor_count + 1):
        moment_cols.extend((f"D_{j}", f"sigma2_{j}"))
    files = {
        "report.yaml": _canonical_yaml(body),
        "predicted_moments.csv": _csv_text(moment_cols, curve_rows),
        "predicted_entropy.csv": _csv_text(
            ("t", "s_lin", "std_error"), slin_rows
        ),
    }
    _write_outputs(cfg, files, [], [], started, quiet)


def _run_single_detuning(cfg, delta_tau, horizon):
    plan = ResonancePlan(
        cfg.plan.rationals, (delta_tau,) * cfg.plan.rotor_count
    )
    engine, state = _rotor_run_pieces(replace(cfg, plan=plan, steps=horizon))
    records = [
        measure_moments(s, t) for t, s in engine.trajectory(state, horizon)
    ]
    return records, engine.grow_events


def run_detune_scan(
    cfg: ExperimentConfig, quiet: bool = False, threads: int = 1
) -> None:
    started = time.monotonic()
    ideal_horizon = max(max(cfg.horizons), cfg.steps)
    jobs = [(0.0, ideal_horizon)] + list(zip(cfg.detunings, cfg.horizons))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda job: _run_single_detuning(cfg, *job), jobs)
            )
    else:
        results = [_run_single_detuning(cfg, *job) for job in jobs]
    ideal_records, grow_total = results[0]
    warnings = []
    if grow_total:
        warnings.append(f"ideal run auto-grow events: {grow_total}")

    files = {}
    delta_series = []
    for i, (delta_tau, horizon) in enumerate(
        zip(cfg.detunings, cfg.horizons), start=1
    ):
        records, grew = results[i]
        deltas = deviation_series(records, ideal_records[: horizon + 1])
        delta_series.append(deltas)
        files[f"delta_{i}.csv"] = _csv_text(
            ("t", "delta1"), [[t, d] for t, d in deltas]
        )
        if grew:
            warnings.append(
                f"detuned run {i} (delta_tau={delta_tau:g}) "
                f"auto-grow events: {grew}"
            )
    result = RobustnessResult.assemble(
        cfg.threshold, cfg.detunings, delta_series
    )
    files["tD.csv"] = _csv_text(
        ("delta_tau", "t_D"),
        list(zip(result.detunings, result.agreement_times)),
    )
    if result.fit is not None:
        fit_block = {
            "slope": result.fit.slope,
            "intercept": result.fit.intercept,
            "stderr": result.fit.stderr,
            "ci95": result.fit.ci95,
            "points": result.fit.points,
        }
    else:
        fit_block = {
            "skipped": "needs >= 3 finite agreement times to fit"
        }
    body = {
        "report_version": 1,
        "threshold": cfg.threshold,
        "agreement_times": {
            fmt(d): (t if math.isfinite(t) else "inf")
            for d, t in zip(result.detunings, result.agreement_times)
        },
        "fit": fit_block,
    }
    files["report.yaml"] = _canonical_yaml(body)
    _write_outputs(cfg, files, [], warnings, started, quiet)


def run_top_simulate(cfg: ExperimentConfig, quiet: bool = False) -> None:
    started = time.monotonic()
    spec = TopSpec(
        top_count=cfg.plan.rotor_count,
        j_tot=cfg.j_tot,
        plan=cfg.plan,
        field_terms=cfg.field_terms,
        element_cap=cfg.element_cap,
    )
    engine = TopEngine(spec)
    state = TopState.jz_product(spec, cfg.initial["momenta"])
    files, warnings = _simulate_files(
        cfg, engine, state, engine.measure_jz_moments, top_purity, "jz"
    )
    _write_outputs(cfg, files, [list(spec.shape)], warnings, started, quiet)


# ----------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickres",
        description="Resonant kicked-rotor and kicked-top experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "split-operator rotor run -> moments.csv, entropy.csv"),
        ("predict", "analytic regime/moment/entropy report"),
        ("classify", "symmetry classes and regimes only"),
        ("detune-scan", "ideal vs detuned runs -> delta CSVs, tD.csv"),
        ("top-simulate", "twisted-top run -> moments.csv, entropy.csv"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, type=Path)
        cmd.add_argument("--out-dir", type=Path, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--threads", type=int, default=1)
        cmd.add_argument("--quiet", action="store_true")
    return parser


_RUNNERS = {
    "simulate": run_simulate,
    "predict": run_predict,
    "classify": run_classify,
    "detune-scan": run_detune_scan,
    "top-simulate": run_top_simulate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
            raise ConfigError("--seed", "must fit in an unsigned 64-bit value")
        if args.threads < 1:
            raise ConfigError("--threads", "must be >= 1")
        cfg = load_config(
            args.config,
            args.command,
            seed_override=args.seed,
            out_dir_override=args.out_dir,
        )
        if args.command == "detune-scan":
            run_detune_scan(cfg, quiet=args.quiet, threads=args.threads)
        else:
            _RUNNERS[args.command](cfg, quiet=args.quiet)
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValidationError, KickresError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
