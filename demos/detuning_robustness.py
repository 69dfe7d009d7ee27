"""How quickly a near-resonant run peels away from the exact-resonant one.

The closed-form spreading and entanglement laws hold when each kick period
sits exactly on a rational multiple of 4*pi.  Offsetting both periods by a
small delta_tau leaves the dynamics indistinguishable at first: the
relative deviation of <p_1^2> starts at the 1e-10 scale, climbs like t^4,
and crosses any fixed threshold at an agreement time t_D that scales like
delta_tau^(-1/2).  This script measures Delta_1(t) for three detunings,
extracts t_D at the 1% threshold, and fits the scaling exponent.

Run from the repository root (no arguments, ~1 s):

    python3 demos/detuning_robustness.py
"""

from __future__ import annotations

import math

import numpy as np

from kickres import (
    PotentialSpec,
    ResonancePlan,
    RotorEngine,
    RotorLattice,
    RotorState,
    agreement_time,
    cosine_term,
    deviation_series,
    measure_moments,
    observe,
    scaling_fit,
)

POTENTIAL = PotentialSpec(
    2,
    (
        cosine_term(2.0, (1, 0)),
        cosine_term(3.0, (0, 1)),
        cosine_term(0.1, (1, -1)),
    ),
)
RATIONALS = ((1, 1), (1, 2))
THRESHOLD = 0.01
# Horizons grow as the detuning shrinks so each run brackets its own t_D.
SCAN = ((1e-3, 40), (5e-4, 60), (1e-4, 120))


def moment_run(plan, steps):
    momenta = (0, 0)
    # a start window: the engine grows it as the support spreads
    lattice = RotorLattice.start_window(POTENTIAL, momenta, steps)
    engine = RotorEngine(POTENTIAL, plan, lattice)
    state = RotorState.momentum_eigenstate(lattice, momenta)
    series, _ = observe(engine, state, steps, measure_moments)
    return series


def main() -> None:
    longest = max(h for _, h in SCAN)
    ideal = moment_run(ResonancePlan(RATIONALS), longest)

    print(f"{'delta_tau':>10s} {'Delta(3)':>10s} {'Delta(12)':>10s}"
          f" {'4pt slope':>10s} {'t_D(1%)':>8s}")
    points = []
    for delta_tau, horizon in SCAN:
        plan = ResonancePlan(RATIONALS, (delta_tau, delta_tau))
        detuned = moment_run(plan, horizon)
        deltas = deviation_series(detuned, ideal[: horizon + 1])
        by_t = dict(deltas)
        # log-log slope of the early-time deviation, expected near 4
        ts = [3, 6, 9, 12]
        slope = np.polyfit(
            [math.log10(t) for t in ts],
            [math.log10(by_t[t]) for t in ts],
            1,
        )[0]
        t_d = agreement_time(deltas, THRESHOLD)
        points.append((delta_tau, t_d))
        print(
            f"{delta_tau:10.0e} {by_t[3]:10.2e} {by_t[12]:10.2e}"
            f" {slope:10.2f} {t_d:8.0f}"
        )

    fit = scaling_fit(points)
    print(
        f"\nlog-log fit of t_D vs delta_tau:"
        f" slope = {fit.slope:.3f} +/- {fit.ci95:.3f} (expected -0.5)"
    )
    halves = [t * math.sqrt(d) for d, t in points]
    print(
        "t_D * sqrt(delta_tau) should be roughly constant:",
        " ".join(f"{h:.3f}" for h in halves),
    )


if __name__ == "__main__":
    main()
