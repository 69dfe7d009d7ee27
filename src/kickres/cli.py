"""Config-driven experiment runner.

Subcommands
    simulate      rotor split-operator run -> moments.csv + entropy.csv
    predict       pure analytic pipeline -> report.yaml
    classify      symmetry/regime table only -> report.yaml
    detune-scan   ideal vs detuned runs -> delta_*.csv, tD.csv, report.yaml
    top-simulate  twisted-top run -> moments.csv + entropy.csv (jz_ columns)

All physics parameters come from a YAML config; one parser takes the
subcommand and the only flags, --config, --out-dir, --seed, --threads,
--quiet, so ``kickres <cmd> --help`` prints the one shared help.  Only
detune-scan uses --threads: it spreads the ideal and detuned trajectories
over that many threads, which share the BLAS library's own threads, so on
a small machine it can run slower than --threads 1; its output bytes do
not depend on the thread count.  The other subcommands have no parallel
work and reject values above 1.

Each config block has one field table below, the one place a field is
defined: its check, default, bounds and where it is valid.  ``_fields``
checks a block against its table; the checked block, defaults filled
in, is also its part of the echoed effective config, so a run is
reproducible from its own artifacts.  Every CSV cell is written with
17 significant digits so identical (config, seed) pairs give
byte-identical files.  Each output references the run manifest by the
content hash of the manifest's deterministic identity block (the wall
clock and each rotor run's window growth live in a separate runtime
block).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

try:  # hashlib loads OpenSSL, 3.5 MiB or more of RSS, for one ~1 kB digest
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_THRESHOLD,
    MAX_SAMPLE_ROWS,
    MIN_SAMPLE_COUNT,
    ProductAngleDensity,
    RobustnessResult,
    classify_regimes,
    crossover_time,
    deviation_series,
    epsilon_moments,
    epsilon_sample,
    predict_moments,
    slin_exact,
    wavepacket_params,
)
from .rotor_engine import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_TAIL_BUDGET,
    DEFAULT_TAIL_TOL,
    DEFAULT_WINDOW_MARGIN,
    RotorEngine,
    RotorLattice,
    RotorState,
    _coherent_packet,
    measure_moments,
    observe,
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

MAX_SEED = 2**64 - 1


class ConfigError(ValidationError):
    """Schema violation carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


# ----------------------------------------------------------------------
# config schema


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
    try:
        value = float(node)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if positive and value <= 0.0:
        raise ConfigError(path, f"must be > 0, got {value}")
    return value


def _as_str(node, path, choices=None) -> str:
    if not isinstance(node, str):
        raise ConfigError(path, f"expected a string, got {_type_name(node)}")
    if choices is not None and node not in choices:
        raise ConfigError(
            path, f"must be one of {sorted(choices)}, got {node!r}"
        )
    return node


def _count(values: list, path: str, count: int) -> None:
    if len(values) != count:
        raise ConfigError(path, f"expected {count} entries")


def _ints(node, path, minimum=None, count=None) -> list:
    values = [
        _as_int(value, f"{path}[{i}]", minimum)
        for i, value in enumerate(_as_list(node, path))
    ]
    if count is not None:
        _count(values, path, count)
    return values


def _centers(node, path, count) -> list:
    _count(_as_list(node, path), path, count)
    centers = []
    for i, pair in enumerate(node):
        here = f"{path}[{i}]"
        if len(_as_list(pair, here)) != 2:
            raise ConfigError(here, "expected [theta0, p0]")
        centers.append(
            [_as_float(x, f"{here}[{k}]") for k, x in enumerate(pair)]
        )
    return centers


def _detunings(node, path) -> list:
    values: list = []
    for i, item in enumerate(_as_list(node, path)):
        here = f"{path}[{i}]"
        value = _as_float(item, here)
        if value == 0.0:
            raise ConfigError(
                here, "0 is not a scan point: the ideal run is the reference"
            )
        if value < 0.0:
            raise ConfigError(here, "must be positive")
        if value in values:
            raise ConfigError(
                here,
                f"repeats detunings[{values.index(value)}]: "
                "each value is one scan point",
            )
        values.append(value)
    if not values:
        raise ConfigError(path, "needs at least one value")
    return values


def _plan(node, path) -> list:
    if not _as_list(node, path):
        raise ConfigError(path, "a plan needs at least one body")
    return [
        _fields(entry, f"{path}[{i}]", _PLAN_ENTRY, {})
        for i, entry in enumerate(node)
    ]


def _expected_system(command: str) -> str:
    return "top" if command == "top-simulate" else "rotor"


def _system(node, path, command) -> str:
    system = _as_str(node, path, ("rotor", "top"))
    expected = _expected_system(command)
    if system != expected:
        raise ConfigError(
            path, f"command {command} requires system: {expected}"
        )
    return system


def _reject_unknown(mapping: dict, path: str, known: Sequence[str]) -> None:
    extra = sorted(set(mapping) - set(known))
    if extra:
        raise ConfigError(
            f"{path}.{extra[0]}" if path else extra[0],
            "unknown field",
        )


# One table per config block; an entry is
#   (name, check, default, bounds, valid_when)
# where ``check(value, path, **bounds)`` returns the checked value (a
# tuple is a nested table, a one-table list a list of such mappings);
# ``default`` is _REQUIRED, a value, or a function of the fields seen so
# far, as is each bound; and ``valid_when`` is None or (condition,
# message): where the condition fails the field must be absent.
_REQUIRED = object()


def _bodies(seen: dict) -> int:
    return len(seen["plan"])


def _only(key: str, value: str) -> tuple:
    return (lambda seen: seen[key] == value, f"only valid for {key}: {value}")


_PLAN_ENTRY = (
    ("numerator", _as_int, _REQUIRED, {"minimum": 1}, None),
    ("denominator", _as_int, _REQUIRED, {"minimum": 1}, None),
    ("delta_tau", _as_float, 0.0, {}, None),
)
_TERM = (
    ("coefficient", _as_float, _REQUIRED, {}, None),
    ("modes", _ints, _REQUIRED, {"count": _bodies}, None),
    ("kind", _as_str, "cos", {"choices": ("cos", "sin")}, None),
    ("phase", _as_float, 0.0, {}, (
        lambda seen: seen["kind"] == "cos",
        "specify either kind: sin or phase, not both",
    )),
)
_POTENTIAL = (("terms", [_TERM], _REQUIRED, {}, None),)
_FIELD_TERM = (
    ("coefficient", _as_float, _REQUIRED, {}, None),
    ("powers", _ints, _REQUIRED, {"minimum": 0, "count": _bodies}, None),
)
_COHERENT = _only("type", "coherent")
_INITIAL = (
    ("type", _as_str, "momentum_eigenstate",
     {"choices": ("coherent", "momentum_eigenstate")}, None),
    ("centers", _centers, _REQUIRED, {"count": _bodies}, _COHERENT),
    ("width", _as_float, 1.0, {"positive": True}, _COHERENT),
    ("momenta", _ints, lambda seen: [0] * _bodies(seen),
     {"count": _bodies}, _only("type", "momentum_eigenstate")),
)
_BIPARTITION = (("part_a", _ints, [0], {"minimum": 0}, None),)
_ENGINE = (
    ("tail_tolerance", _as_float, DEFAULT_TAIL_TOL, {"positive": True}, None),
    ("tail_budget", _as_float, DEFAULT_TAIL_BUDGET, {"positive": True}, None),
    ("window_margin", _as_int, DEFAULT_WINDOW_MARGIN, {"minimum": 0}, None),
    ("element_cap", _as_int, DEFAULT_ELEMENT_CAP, {"minimum": 1}, None),
)
_PREDICTOR = (
    ("samples", _as_int, DEFAULT_SAMPLES, {"minimum": MIN_SAMPLE_COUNT},
     None),
    ("seed", _as_int, DEFAULT_SEED, {"minimum": 0, "maximum": MAX_SEED}, None),
)
_DETUNE_SCAN = (
    ("detunings", _detunings, _REQUIRED, {}, None),
    ("threshold", _as_float, DEFAULT_THRESHOLD, {"positive": True}, None),
    ("horizons", _ints, lambda seen: [seen["steps"]] * len(seen["detunings"]),
     {"minimum": 1}, None),
)
_ROOT = (
    ("system", _system, lambda seen: _expected_system(seen["command"]),
     {"command": lambda seen: seen["command"]}, None),
    ("plan", _plan, _REQUIRED, {}, None),
    ("potential", _POTENTIAL, _REQUIRED, {}, _only("system", "rotor")),
    ("j_tot", _as_int, _REQUIRED, {"minimum": 1}, _only("system", "top")),
    ("field_terms", [_FIELD_TERM], [], {}, _only("system", "top")),
    ("initial", _INITIAL, {}, {}, None),
    ("bipartition", _BIPARTITION, {}, {}, (
        lambda seen: _bodies(seen) >= 2, "a single body has no bipartition"
    )),
    ("steps", _as_int, _REQUIRED, {"minimum": 1}, None),
    ("engine", _ENGINE, {}, {}, None),
    ("predictor", _PREDICTOR, {}, {}, None),
    ("detune_scan", _DETUNE_SCAN, _REQUIRED, {}, (
        lambda seen: seen["command"] == "detune-scan",
        "only valid for the detune-scan command",
    )),
    ("out_dir", _as_str, lambda seen: f"runs/{seen['command']}", {}, None),
)


def _fields(node, path: str, table: tuple, scope: dict) -> dict:
    """Check a mapping against its field table -> the checked mapping.

    Unknown fields are rejected first.  Then, in table order, a field is
    rejected if present where it is not valid (whatever its value),
    reported if required and missing, and otherwise checked, its default
    filled in when absent.  Conditions, computed defaults and bounds see
    ``scope`` plus the fields checked before them.  The result is the
    block's effective-config echo.
    """
    block = _as_mapping(node, path)
    _reject_unknown(block, path, [entry[0] for entry in table])
    out: dict = {}
    seen = dict(scope)
    for name, check, default, bounds, valid_when in table:
        here = f"{path}.{name}" if path else name
        if valid_when is not None and not valid_when[0](seen):
            if name in block:
                raise ConfigError(here, valid_when[1])
            continue
        if name in block:
            value = block[name]
        elif default is _REQUIRED:
            raise ConfigError(here, "missing required field")
        else:
            value = default(seen) if callable(default) else default
        if isinstance(check, tuple):
            value = _fields(value, here, check, seen)
        elif isinstance(check, list):
            value = [
                _fields(item, f"{here}[{i}]", check[0], seen)
                for i, item in enumerate(_as_list(value, here))
            ]
        else:
            value = check(value, here, **{
                k: b(seen) if callable(b) else b for k, b in bounds.items()
            })
        out[name] = seen[name] = value
    return out


def _built(path: str, make, *args):
    """``make(*args)``, with its ValidationError reported at ``path``."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc


# ----------------------------------------------------------------------
# config parsing


@dataclass
class ExperimentConfig:
    """Validated experiment description plus its effective-config echo."""

    command: str
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
    element_cap: int
    samples: int
    seed: int
    detunings: tuple
    threshold: float
    horizons: tuple
    out_dir: Path
    effective: dict


_NO_SCAN = {"detunings": (), "threshold": DEFAULT_THRESHOLD, "horizons": ()}


def load_config(
    config_path: Path,
    command: str,
    seed_override: int | None = None,
    out_dir_override: Path | None = None,
) -> ExperimentConfig:
    """Parse and strictly validate a YAML experiment config.

    The field tables check each field; the rules here tie fields together.
    """
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(str(config_path), f"cannot read config: {exc}")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(str(config_path), f"invalid YAML: {exc}")
    root = _as_mapping(raw, "<root>")
    if out_dir_override is not None:
        root = {**root, "out_dir": str(out_dir_override)}
    eff = _fields(root, "", _ROOT, {"command": command})
    body_count = len(eff["plan"])
    plan = ResonancePlan(
        tuple((e["numerator"], e["denominator"]) for e in eff["plan"]),
        tuple(e["delta_tau"] for e in eff["plan"]),
    )

    potential = None
    if "potential" in eff:
        terms = []
        for i, term in enumerate(eff["potential"]["terms"]):
            here = f"potential.terms[{i}]"
            args = (term["coefficient"], tuple(term["modes"]))
            terms.append(
                _built(here, FourierTerm, *args, term["phase"])
                if term["kind"] == "cos"
                else _built(here, sine_term, *args)
            )
        potential = PotentialSpec(rotor_count=body_count, terms=tuple(terms))
        eff["potential"] = {
            "terms": [
                {"coefficient": t.coefficient, "modes": list(t.modes),
                 "phase": t.phase}
                for t in terms
            ]
        }
    field_terms = []
    for i, term in enumerate(eff.get("field_terms", ())):
        args = (term["coefficient"], tuple(term["powers"]))
        field_terms.append(_built(f"field_terms[{i}]", FieldTerm, *args))
    if eff["system"] == "top" and eff["initial"]["type"] == "coherent":
        raise ConfigError(
            "initial.type",
            "tops support only momentum_eigenstate (J_z product states)",
        )
    part = None
    if "bipartition" in eff:
        part_a = tuple(eff["bipartition"]["part_a"])
        part = _built(
            "bipartition.part_a", BipartitionSpec, body_count, part_a
        )
    if seed_override is not None:
        eff["predictor"] = _fields(
            {**eff["predictor"], "seed": seed_override},
            "predictor",
            _PREDICTOR,
            {},
        )
    if command == "predict":
        # the pass reduces each sample into up to steps + 1 S_lin rows;
        # like the element cap, the cap fails a run before any work
        samples, rows = eff["predictor"]["samples"], eff["steps"] + 1
        if samples * rows > MAX_SAMPLE_ROWS:
            raise ResourceCapError(
                f"predictor.samples: {samples} samples x {rows} S_lin rows "
                f"is {samples * rows}, cap is {MAX_SAMPLE_ROWS}"
            )

    scan = eff.get("detune_scan", _NO_SCAN)
    if scan is not _NO_SCAN:
        if len(scan["horizons"]) != len(scan["detunings"]):
            raise ConfigError(
                "detune_scan.horizons", "expected one horizon per detuning"
            )
        if not plan.is_exact:
            raise ConfigError(
                "plan",
                "detune-scan needs an exact base plan (all delta_tau = 0)",
            )
    out_dir = Path(eff["out_dir"])
    eff["out_dir"] = str(out_dir)

    return ExperimentConfig(
        command=command,
        steps=eff["steps"],
        potential=potential,
        plan=plan,
        j_tot=eff.get("j_tot"),
        field_terms=tuple(field_terms),
        initial=eff["initial"],
        part=part,
        **eff["engine"],
        **eff["predictor"],
        detunings=tuple(scan["detunings"]),
        threshold=scan["threshold"],
        horizons=tuple(scan["horizons"]),
        out_dir=out_dir,
        effective=eff,
    )


# ----------------------------------------------------------------------
# output plumbing


def _canonical_yaml(obj) -> str:
    return yaml.safe_dump(obj, sort_keys=True, default_flow_style=False)


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    # .17g round-trips every float; an integer cell is a step count far
    # below 2**53, so it prints exactly as str(int) does
    lines = [",".join(columns)]
    lines += [",".join(f"{value:.17g}" for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_outputs(
    cfg: ExperimentConfig,
    files: dict,
    dimensions,
    warnings: list,
    started: float,
    quiet: bool,
    runs: list | None = None,
) -> None:
    """Write all artifacts, stamping each with the manifest identity hash.

    The identity block excludes out_dir and wall clock, so the same
    physics + seed gives byte-identical data files wherever they land.
    ``runs`` (rotor runs: grow events and final windows) goes into the
    runtime block beside the wall clock, outside the hash.
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
    content_hash = sha256(_canonical_yaml(identity).encode()).hexdigest()
    manifest = {
        "identity": identity,
        "content_hash": content_hash,
        "runtime": {
            "wall_clock_seconds": round(time.monotonic() - started, 3),
        },
    }
    if runs is not None:
        manifest["runtime"]["runs"] = runs
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stamp = f"# manifest_sha256: {content_hash}\n"
    for name, text in files.items():
        with (out / name).open("w") as handle:
            handle.writelines((stamp, text))
    (out / "manifest.yaml").write_text(_canonical_yaml(manifest))
    (out / "effective_config.yaml").write_text(
        _canonical_yaml(cfg.effective)
    )
    if not quiet:
        names = " ".join(sorted(files) + ["manifest.yaml"])
        print(f"{cfg.command}: wrote {names} -> {out}")


# moments.csv's columns for each body j, after "t": the header, with
# {p} the moment's letter, and the MomentRecord field the cells come from
_MOMENT_COLUMNS = (
    ("mean_{p}{j}", "mean"),
    ("{p}2_{j}", "second"),
    ("D_{j}", "displacement"),
    ("sigma2_{j}", "spread"),
    ("var_{j}", "variance"),
)


def _moments_csv(series, prefix: str) -> str:
    bodies = range(len(series[0].mean))
    columns = ["t"] + [
        header.format(p=prefix, j=j + 1)
        for j in bodies
        for header, _ in _MOMENT_COLUMNS
    ]
    rows = []
    for rec in series:
        fields = [getattr(rec, name) for _, name in _MOMENT_COLUMNS]
        rows.append([rec.t] + [values[j] for j in bodies for values in fields])
    return _csv_text(columns, rows)


# ----------------------------------------------------------------------
# subcommands


def _rotor_run_pieces(cfg: ExperimentConfig):
    """Lattice, engine, and initial state for a rotor config."""
    initial = cfg.initial
    margin = cfg.window_margin
    if initial["type"] == "momentum_eigenstate":
        sizing = initial["momenta"]
        start, args = RotorState.momentum_eigenstate, (sizing,)
    else:
        sizing = [int(round(p0)) for _, p0 in initial["centers"]]
        margin += int(math.ceil(6.0 * initial["width"])) + 2
        start = RotorState.coherent_product
        args = (initial["centers"], initial["width"])
    lattice = RotorLattice.start_window(
        cfg.potential,
        sizing,
        cfg.steps,
        margin=margin,
        element_cap=cfg.element_cap,
    )
    engine = RotorEngine(
        cfg.potential,
        cfg.plan,
        lattice,
        tail_tol=cfg.tail_tolerance,
        tail_budget=cfg.tail_budget,
    )
    return engine, start(lattice, *args)


def _simulate_files(
    cfg: ExperimentConfig, engine, state, measure, purity, prefix: str
):
    """Moments and entropy along the run -> (files, warnings).

    ``measure(state, t)`` gives the step's MomentRecord and
    ``purity(state, part)`` its bipartite purity; entropy rows are
    omitted for a single body.
    """
    part = cfg.part
    series, purities = observe(
        engine,
        state,
        cfg.steps,
        measure,
        None if part is None else lambda current: purity(current, part),
    )
    entropy_rows = [[r.t, p, 1.0 - p] for r, p in zip(series, purities)]
    files = {
        "moments.csv": _moments_csv(series, prefix),
        "entropy.csv": _csv_text(("t", "purity", "s_lin"), entropy_rows),
    }
    warnings = []
    if part is None:
        warnings.append("entropy undefined for a single body; rows omitted")
    return files, warnings


def _run_record(engine: RotorEngine, **labels) -> dict:
    """Manifest runtime entry of one rotor run: its window growth."""
    return {
        **labels,
        "grow_events": engine.grow_events,
        "window_shape": list(engine.lattice.shape),
        "windows": [list(w) for w in engine.lattice.windows],
    }


def run_simulate(cfg: ExperimentConfig, quiet: bool = False) -> None:
    started = time.monotonic()
    engine, state = _rotor_run_pieces(cfg)
    files, warnings = _simulate_files(
        cfg, engine, state, measure_moments, schmidt_purity, "p"
    )
    _write_outputs(
        cfg, files, [], warnings, started, quiet, [_run_record(engine)]
    )


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
        factors.append(_coherent_packet(quanta, theta0, p0, width))
    return ProductAngleDensity.from_factors(factors)


def _report_head(cfg: ExperimentConfig, needs: str) -> dict:
    """The potential and regime table that open classify's and predict's
    report.yaml; ``needs`` names the job when a single body fails it."""
    if cfg.part is None:
        raise ValidationError(
            f"{needs} needs at least two bodies to bipartition"
        )
    report = classify_regimes(cfg.potential, cfg.plan, cfg.part)
    return {
        "report_version": 1,
        "potential": [term_text(t) for t in cfg.potential.terms],
        "regimes": {
            "rotor_classes": [c.name.lower() for c in report.rotor_classes],
            "rotor_regimes": list(report.rotor_regimes),
            "interaction_class": report.interaction_class.name.lower(),
            "interaction_regime": report.interaction_regime,
            "selection_rule_ok": list(report.selection_rule_ok),
            "consistent": report.consistent,
        },
    }


def run_classify(cfg: ExperimentConfig, quiet: bool = False) -> None:
    started = time.monotonic()
    body = _report_head(cfg, "classification")
    files = {"report.yaml": _canonical_yaml(body)}
    _write_outputs(cfg, files, [], [], started, quiet)


def run_predict(cfg: ExperimentConfig, quiet: bool = False) -> None:
    started = time.monotonic()
    body = _report_head(cfg, "prediction")
    shift = cfg.plan.shift_set
    density = _initial_density(cfg)
    params = wavepacket_params(cfg.potential, shift, density)
    stats = asdict(params)
    classes = stats.pop("symmetry")
    per_rotor = [
        {**{k: v[j] for k, v in stats.items()},
         "symmetry_class": c.name.lower()}
        for j, c in enumerate(classes)
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
    if v_i.is_zero:
        slin_rows = [[t, 0.0, 0.0] for t in range(cfg.steps + 1)]
    else:
        sample = epsilon_sample(
            v_i, shift, density, cfg.part, cfg.samples, cfg.seed,
            times=range(cfg.steps + 1),
        )
        moments = epsilon_moments(sample)
        epsilon_block = {**asdict(moments), "eps_sq": moments.eps_sq}
        if moments.norm > 0.0:
            tstar = crossover_time(moments)
        estimates = slin_exact(sample, range(cfg.steps + 1))
        slin_rows = [[e.t, e.value, e.std_error] for e in estimates]

    body["wavepacket_params"] = per_rotor
    body["epsilon_moments"] = epsilon_block
    body["crossover_time"] = tstar
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
    series, _ = observe(engine, state, horizon, measure_moments)
    return series, _run_record(engine, delta_tau=delta_tau, steps=horizon)


def run_detune_scan(
    cfg: ExperimentConfig, quiet: bool = False, threads: int = 1
) -> None:
    started = time.monotonic()
    ideal_horizon = max(max(cfg.horizons), cfg.steps)
    jobs = [(0.0, ideal_horizon)] + list(zip(cfg.detunings, cfg.horizons))
    if threads > 1:
        # imported here: its modules (logging among them) would cost every
        # other run about 0.8 MiB of memory and their import time
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda job: _run_single_detuning(cfg, *job), jobs)
            )
    else:
        results = [_run_single_detuning(cfg, *job) for job in jobs]
    ideal_records = results[0][0]
    files = {}
    delta_series = []
    for i, horizon in enumerate(cfg.horizons, start=1):
        deltas = deviation_series(results[i][0], ideal_records[: horizon + 1])
        delta_series.append(deltas)
        files[f"delta_{i}.csv"] = _csv_text(
            ("t", "delta1"), [[t, d] for t, d in deltas]
        )
    result = RobustnessResult.assemble(
        cfg.threshold, cfg.detunings, delta_series
    )
    files["tD.csv"] = _csv_text(
        ("delta_tau", "t_D"),
        list(zip(result.detunings, result.agreement_times)),
    )
    if result.fit is not None:
        fit_block = asdict(result.fit)
    else:
        fit_block = {
            "skipped": "needs >= 3 finite agreement times to fit"
        }
    body = {
        "report_version": 1,
        "threshold": cfg.threshold,
        "agreement_times": {
            f"{d:.17g}": (t if math.isfinite(t) else "inf")
            for d, t in zip(result.detunings, result.agreement_times)
        },
        "fit": fit_block,
    }
    files["report.yaml"] = _canonical_yaml(body)
    runs = [run for _, run in results]
    _write_outputs(cfg, files, [], [], started, quiet, runs)


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


_RUNNERS = {
    "simulate": run_simulate,
    "predict": run_predict,
    "classify": run_classify,
    "detune-scan": run_detune_scan,
    "top-simulate": run_top_simulate,
}

_PARSER = argparse.ArgumentParser(
    prog="kickres",
    description="Resonant kicked-rotor and kicked-top experiment runner.",
    epilog="""\
subcommands:
  simulate      split-operator rotor run -> moments.csv, entropy.csv
  predict       analytic regime/moment/entropy report
  classify      symmetry classes and regimes only
  detune-scan   ideal vs detuned runs -> delta CSVs, tD.csv
  top-simulate  twisted-top run -> moments.csv, entropy.csv""",
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
_PARSER.add_argument("command", choices=_RUNNERS, metavar="command",
                     help="one of the subcommands below")
_PARSER.add_argument("--config", required=True, type=Path)
_PARSER.add_argument("--out-dir", type=Path, default=None)
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--threads", type=int, default=1)
_PARSER.add_argument("--quiet", action="store_true")


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
            raise ConfigError("--seed", "must fit in an unsigned 64-bit value")
        if args.threads < 1:
            raise ConfigError("--threads", "must be >= 1")
        if args.threads > 1 and args.command != "detune-scan":
            raise ConfigError(
                "--threads", f"{args.command} has no parallel work; use 1"
            )
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
    except KickresError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def run() -> None:
    """Entry point of the ``kickres`` script and ``python -m kickres.cli``:
    run ``main``, flush stdout and stderr, and exit with its code without
    the interpreter's teardown (module and object finalization), which
    only costs time once every output file is closed."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
