"""Outside-in tracing of the kickres layers, and the per-layer metrics.

`Tracer.install` replaces the public functions and methods listed in
TARGETS with wrappers that record one span per call: its name, start, end
and parent span, plus a work count taken from the arguments.  kickres.cli
(and other modules) bind many of these functions by name and dispatch
through `cli._RUNNERS`, so every module global and dict entry that holds an
original is replaced, not only the defining attribute; methods are
replaced on their class.  Spans stay in memory until the pass ends.

A span's self time is its duration minus the time covered by its child
spans.  Everything a runner does outside a named child span (CSV
formatting, hashing, writes, displacement_stats) is the runner's self time.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict


def _elements(state_position: int):
    return lambda *args, **kwargs: args[state_position].amplitudes.size


def _fft_flops(self, state, *args, **kwargs):
    # A forward plus an inverse complex FFT over N points: 2 * 5 N log2 N,
    # computed from the size, not measured.
    n = state.amplitudes.size
    return 10.0 * n * math.log2(n)


def _cos_evals(self, thetas, *args, **kwargs):
    shapes = [getattr(theta, "shape", ()) for theta in thetas]
    ndim = max((len(shape) for shape in shapes), default=0)
    points = 1
    for axis in range(1, ndim + 1):
        points *= max(shape[-axis] if len(shape) >= axis else 1 for shape in shapes)
    return points * len(self.terms)


def _sample_count(self, rng, count, *args, **kwargs):
    return count


# (module, attribute, span name, work count from the call's arguments)
TARGETS = (
    ("potential", "PotentialSpec.evaluate", "potential.evaluate", _cos_evals),
    ("potential", "decompose", "potential.algebra", None),
    ("potential", "split_interaction", "potential.algebra", None),
    ("potential", "classify", "potential.algebra", None),
    ("rotor_engine", "RotorLattice.for_run", "rotor_engine.setup", None),
    ("rotor_engine", "RotorEngine.__init__", "rotor_engine.setup", None),
    ("rotor_engine", "RotorEngine._embed_wider", "rotor_engine.setup", None),
    ("rotor_engine", "RotorState.momentum_eigenstate", "rotor_engine.setup", None),
    ("rotor_engine", "RotorEngine.step", "rotor_engine.step", _elements(1)),
    ("rotor_engine", "RotorEngine.kick", "rotor_engine.kick", _fft_flops),
    ("rotor_engine", "RotorEngine.free_rotation", "rotor_engine.free", None),
    ("rotor_engine", "RotorState.edge_mass", "rotor_engine.edge_mass", None),
    ("rotor_engine", "RotorState.__init__", "rotor_engine.state", None),
    ("rotor_engine", "measure_moments", "rotor_engine.moments", None),
    ("entanglement", "schmidt_purity", "entanglement.purity", _elements(0)),
    ("top_engine", "TopEngine.__init__", "top_engine.setup", None),
    ("top_engine", "TopState.jz_product", "top_engine.setup", None),
    ("top_engine", "TopEngine.step", "top_engine.step", None),
    ("top_engine", "TopEngine.twist", "top_engine.twist", None),
    ("top_engine", "TopEngine.field_rotation", "top_engine.field", None),
    ("top_engine", "TopEngine.measure_jz_moments", "top_engine.moments", None),
    ("top_engine", "top_purity", "top_engine.purity", None),
    ("predictor", "slin_exact", "predictor.slin_exact", None),
    ("predictor", "epsilon_moments", "predictor.epsilon_moments", None),
    ("predictor", "ProductAngleDensity.sample", "predictor.sample", _sample_count),
    ("predictor", "deviation_series", "predictor.robustness", None),
    ("predictor", "RobustnessResult.assemble", "predictor.robustness", None),
    ("predictor", "wavepacket_params", "predictor.analytic", None),
    ("predictor", "classify_regimes", "predictor.analytic", None),
    ("predictor", "predict_moments", "predictor.analytic", None),
    ("predictor", "crossover_time", "predictor.analytic", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "run_simulate", "cli.runner", None),
    ("cli", "run_predict", "cli.runner", None),
    ("cli", "run_classify", "cli.runner", None),
    ("cli", "run_detune_scan", "cli.runner", None),
    ("cli", "run_top_simulate", "cli.runner", None),
)

LAYERS = ("potential", "rotor_engine", "entanglement", "predictor", "top_engine", "cli")

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better).
METRICS = (
    ("potential.evaluate.s", "s", "lower"),
    ("potential.evaluate.calls", "count", "lower"),
    ("potential.evaluate.cos_evals", "count", "lower"),
    ("rotor_engine.kick.s", "s", "lower"),
    ("rotor_engine.kick.calls", "count", "lower"),
    ("rotor_engine.kick.fft_gflop", "GFLOP", "lower"),
    ("rotor_engine.kick.gflop_per_s", "GFLOP/s", "higher"),
    ("rotor_engine.free.s", "s", "lower"),
    ("rotor_engine.edge_mass.s", "s", "lower"),
    ("rotor_engine.moments.s", "s", "lower"),
    ("rotor_engine.state.s", "s", "lower"),
    ("rotor_engine.setup.s", "s", "lower"),
    ("rotor_engine.amp_steps", "count", "lower"),
    ("rotor_engine.window_elems_final", "count", "lower"),
    ("rotor_engine.step.calls", "count", "lower"),
    ("rotor_engine.steps_accepted", "count", "higher"),
    ("rotor_engine.step_useful_ratio", "ratio", "higher"),
    ("rotor_engine.grow_events", "count", "lower"),
    ("entanglement.purity.s", "s", "lower"),
    ("entanglement.purity.calls", "count", "lower"),
    ("entanglement.purity.matrix_elems", "count", "lower"),
    ("entanglement.purity.ms_per_call", "ms", "lower"),
    ("top_engine.purity.s", "s", "lower"),
    ("top_engine.field.s", "s", "lower"),
    ("top_engine.twist.s", "s", "lower"),
    ("top_engine.moments.s", "s", "lower"),
    ("top_engine.setup.s", "s", "lower"),
    ("top_engine.step.calls", "count", "lower"),
    ("predictor.slin_exact.s", "s", "lower"),
    ("predictor.slin_exact.calls", "count", "lower"),
    ("predictor.sample.s", "s", "lower"),
    ("predictor.samples_drawn", "count", "lower"),
    ("predictor.epsilon_moments.s", "s", "lower"),
    ("predictor.robustness.s", "s", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.runner.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("import.scipy_stats.s", "s", "lower"),
    ("import.kickres.s", "s", "lower"),
    ("potential.s", "s", "lower"),
    ("rotor_engine.s", "s", "lower"),
    ("entanglement.s", "s", "lower"),
    ("predictor.s", "s", "lower"),
    ("top_engine.s", "s", "lower"),
    ("cli.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, work]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        """`fn` with a span around every call."""
        spans, clock, stack_of = self.spans, self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    # -- installation -------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self, package: str = "kickres") -> None:
        """Wrap every TARGETS entry wherever the package holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attribute, span_name, work in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = getattr(owner, "__dict__", {}).get(method or attribute)
            if raw is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            if owner_name:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(span_name, raw.__func__, work))
                else:
                    wrapped = self.wrap(span_name, raw, work)
                self._set(owner, method, wrapped)
                continue
            wrapped = self.wrap(span_name, raw, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict):  # cli._RUNNERS
                        for k, v in list(value.items()):
                            if v is raw:
                                self._set(value, k, wrapped)
        self._count_trajectories(sys.modules.get(f"{package}.rotor_engine"))

    def _count_trajectories(self, rotor_engine) -> None:
        engine_cls = getattr(rotor_engine, "RotorEngine", None)
        original = getattr(engine_cls, "__dict__", {}).get("trajectory")
        if original is None:
            self.missing.append("rotor_engine.RotorEngine.trajectory")
            return
        counters = self.counters

        @functools.wraps(original)
        def trajectory(engine, state, steps, *args, **kwargs):
            grown = engine.grow_events
            accepted = -1  # the first item is the t = 0 state
            for item in original(engine, state, steps, *args, **kwargs):
                accepted += 1
                yield item
            counters["rotor_engine.steps_accepted"] += accepted
            counters["rotor_engine.grow_events"] += engine.grow_events - grown
            key = "rotor_engine.window_elems_final"  # the largest final lattice
            counters[key] = max(counters[key], math.prod(engine.lattice.shape))

        self._set(engine_cls, "trajectory", trajectory)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed work."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, parent, work), children in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
        entry["work"] += work
    return out


def layer_metrics(summary: dict, output_bytes: int, imports: dict) -> dict[str, float]:
    """The METRICS values for one traced run, per pass.

    `summary` is what traced_pass.py writes.  Its span statistics, counters
    (but for the window_elems_final maximum), walls and span count are
    totals over `summary["passes"]` identical passes, so counts divide
    exactly.
    """
    by_name, counters, passes = summary["by_name"], summary["counters"], summary["passes"]

    def stat(name, key="self_s"):
        return by_name.get(name, {}).get(key, 0.0) / passes

    step_calls = stat("rotor_engine.step", "calls")
    accepted = counters.get("rotor_engine.steps_accepted", 0.0) / passes
    kick_s = stat("rotor_engine.kick")
    kick_gflop = stat("rotor_engine.kick", "work") / 1e9
    purity_calls = stat("entanglement.purity", "calls")
    values = {
        "potential.evaluate.s": stat("potential.evaluate"),
        "potential.evaluate.calls": stat("potential.evaluate", "calls"),
        "potential.evaluate.cos_evals": stat("potential.evaluate", "work"),
        "rotor_engine.kick.s": kick_s,
        "rotor_engine.kick.calls": stat("rotor_engine.kick", "calls"),
        "rotor_engine.kick.fft_gflop": kick_gflop,
        "rotor_engine.kick.gflop_per_s": kick_gflop / kick_s if kick_s else 0.0,
        "rotor_engine.free.s": stat("rotor_engine.free"),
        "rotor_engine.edge_mass.s": stat("rotor_engine.edge_mass"),
        "rotor_engine.moments.s": stat("rotor_engine.moments"),
        "rotor_engine.state.s": stat("rotor_engine.state"),
        "rotor_engine.setup.s": stat("rotor_engine.setup"),
        "rotor_engine.amp_steps": stat("rotor_engine.step", "work"),
        "rotor_engine.window_elems_final": counters.get("rotor_engine.window_elems_final", 0.0),
        "rotor_engine.step.calls": step_calls,
        "rotor_engine.steps_accepted": accepted,
        "rotor_engine.step_useful_ratio": accepted / step_calls if step_calls else 0.0,
        "rotor_engine.grow_events": counters.get("rotor_engine.grow_events", 0.0) / passes,
        "entanglement.purity.s": stat("entanglement.purity"),
        "entanglement.purity.calls": purity_calls,
        "entanglement.purity.matrix_elems": stat("entanglement.purity", "work"),
        "entanglement.purity.ms_per_call": (
            1e3 * stat("entanglement.purity") / purity_calls if purity_calls else 0.0),
        "top_engine.purity.s": stat("top_engine.purity"),
        "top_engine.field.s": stat("top_engine.field"),
        "top_engine.twist.s": stat("top_engine.twist"),
        "top_engine.moments.s": stat("top_engine.moments"),
        "top_engine.setup.s": stat("top_engine.setup"),
        "top_engine.step.calls": stat("top_engine.step", "calls"),
        "predictor.slin_exact.s": stat("predictor.slin_exact"),
        "predictor.slin_exact.calls": stat("predictor.slin_exact", "calls"),
        "predictor.sample.s": stat("predictor.sample"),
        "predictor.samples_drawn": stat("predictor.sample", "work"),
        "predictor.epsilon_moments.s": stat("predictor.epsilon_moments"),
        "predictor.robustness.s": stat("predictor.robustness"),
        "cli.load_config.s": stat("cli.load_config"),
        "cli.runner.self_s": stat("cli.runner"),
        "cli.output_bytes": output_bytes,
        "import.scipy_stats.s": imports["scipy_stats"],
        "import.kickres.s": imports["kickres"],
    }
    covered = 0.0
    for layer in LAYERS:
        layer_s = sum(stat(name) for name in by_name if name.split(".")[0] == layer)
        values[f"{layer}.s"] = layer_s
        covered += layer_s
    traced_wall = summary["walls"]["traced"]
    values["trace.spans"] = summary["span_count"] / passes
    values["trace.overhead_ratio"] = traced_wall / summary["walls"]["untraced"] - 1.0
    values["trace.coverage"] = covered / (traced_wall / passes)
    return values


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing kickres, and scipy.stats within it, from the
    stderr of `python -X importtime -c "import kickres.cli"`.

    Entries are printed after their children, indented two spaces per
    level.  kickres counts its top-level entries; scipy.stats counts each
    scipy.stats[.*] entry not nested in another one.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))
    kickres = sum(s for depth, s, name in entries
                  if depth == 0 and (name == "kickres" or name.startswith("kickres.")))
    scipy_stats = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, seconds, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        in_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        if in_stats and not any(n == "scipy.stats" or n.startswith("scipy.stats.")
                                for _, n in ancestors):
            scipy_stats += seconds
        ancestors.append((depth, name))
    return {"kickres": kickres, "scipy_stats": scipy_stats}
