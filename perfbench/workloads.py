"""The benchmark's workloads: each one is a list of CLI invocations.

An invocation is what a user types, `python -m kickres.cli <command>
--config <file> --out-dir <dir> --seed <n> --threads 1 --quiet`, one
fresh process per config.  Config paths are relative to the checkout root.
Bundled configs are used as they are; the two files under
perfbench/configs cut a bundled model down so that a pass takes
seconds, not minutes (see the comments at their top).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    name: str  # unique within the workload; names the output directory
    command: str
    config: str


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # Purity (SVD) dominates, then the kick FFT pair.  fig1 runs on an
    # in-cache lattice (253 x 273), the fig4 head on an out-of-cache one
    # (943 x 951).
    "rotor-entangle": (
        Invocation("fig1", "simulate", "configs/fig1.yaml"),
        Invocation("fig4_head", "simulate", "perfbench/configs/fig4_head.yaml"),
    ),
    # Rotor stepping only (kick FFT, free phase, edge mass, moments) on
    # FFT-unfriendly windows, with one auto-grow redo; no purity, no
    # Monte Carlo.
    "detune-scan": (
        Invocation("scan3", "detune-scan", "perfbench/configs/scan3.yaml"),
    ),
    # No lattice: Monte-Carlo sampling and cosine-series evaluation, plus
    # the import cost every invocation pays.
    "predict": (
        Invocation("fig1", "predict", "configs/fig1.yaml"),
        Invocation("fig2", "predict", "configs/fig2.yaml"),
        Invocation("fig3_classify", "classify", "configs/fig3.yaml"),
    ),
    # The only top_engine workload: 1001 purities of 101 x 101 matrices.
    "top-simulate": (
        Invocation("fig7", "top-simulate", "configs/fig7.yaml"),
    ),
}

# Workloads whose outputs must not depend on --threads.
THREADS_CHECKED = {"detune-scan"}
