"""Predicting the entanglement stroboscope of a kicked-rotor pair.

At the two lowest kick resonances the linear entropy between the rotors
depends only on the coupling part of the potential, through one random
angle variable eps whose moments are integrals over the initial angle
distribution.  Three coupling parities give three patterns:

  antisymmetric -> exact period-2 alternation between 0 and 1 - <cos eps>
  symmetric     -> quadratic growth <eps^2>/2 * t^2, saturating around
                   t* = 1/sqrt(2 <eps^2>)
  mixed         -> both at once (offset odd steps over a growing floor)

The script computes each prediction by Monte Carlo quadrature over the
angle distribution and compares it against the simulated entropy.

Run from the repository root (no arguments, ~1 s):

    python3 demos/entanglement_patterns.py
"""

from __future__ import annotations

import numpy as np

from kickres import (
    BipartitionSpec,
    PotentialSpec,
    ProductAngleDensity,
    ResonancePlan,
    RotorEngine,
    RotorLattice,
    RotorState,
    classify_regimes,
    cosine_term,
    crossover_time,
    epsilon_moments,
    epsilon_sample,
    measure_moments,
    observe,
    schmidt_purity,
    slin_exact,
    split_interaction,
)

PART = BipartitionSpec(2, (0,))
UNIFORM = ProductAngleDensity.uniform(2)
PLAN = ResonancePlan(((1, 2), (1, 2)))
STEPS = 30
TIMES = (1, 2, 3, 6, 7, 8, 15, 30)

# With both rotors at the secondary resonance the half-turn shift hits
# both angles, so a coupling term cos(m1*theta1 + m2*theta2) is symmetric
# when m1 + m2 is even and antisymmetric when it is odd.
LOCAL = (cosine_term(2.0, (1, 0)), cosine_term(3.0, (0, 1)))
COUPLINGS = [
    ("strong, odd mode sum", (cosine_term(1.0, (2, -1)),)),
    ("weak, even mode sum", (cosine_term(0.1, (1, -1)),)),
    (
        "both at once",
        (cosine_term(0.1, (1, -1)), cosine_term(0.3, (2, -1))),
    ),
]


def entropy_series(potential, steps):
    momenta = (0, 0)
    # a start window: the engine grows it as the support spreads
    lattice = RotorLattice.start_window(potential, momenta, steps)
    engine = RotorEngine(potential, PLAN, lattice)
    state = RotorState.momentum_eigenstate(lattice, momenta)
    _, purities = observe(
        engine,
        state,
        steps,
        measure_moments,
        lambda current: schmidt_purity(current, PART),
    )
    return [1.0 - p for p in purities]


def main() -> None:
    for name, coupling_terms in COUPLINGS:
        potential = PotentialSpec(2, LOCAL + coupling_terms)
        _, _, v_i = split_interaction(potential, PART.part_a)
        # one Monte-Carlo pass per coupling feeds both the epsilon moments
        # and the predicted curve at the listed steps
        sample = epsilon_sample(
            v_i, PLAN.shift_set, UNIFORM, PART, times=TIMES
        )
        moments = epsilon_moments(sample)
        report = classify_regimes(potential, PLAN, PART)
        simulated = entropy_series(potential, STEPS)

        print("=" * 72)
        print(
            f"coupling: {name} -> classified"
            f" {report.interaction_class.name.lower()}"
            f" ({report.interaction_regime})"
        )
        print(
            f"  <eps^2> = {moments.eps_sq:.6f} (exact),"
            f"  odd-step amplitude 1 - <cos eps> = {moments.s_odd:.6f}"
            f" (+/- {moments.std_errors['s_odd']:.1e})"
        )
        grows = report.interaction_class.name != "ANTISYMMETRIC"
        tstar = crossover_time(moments)
        if grows and np.isfinite(tstar):
            print(f"  predicted growth/saturation crossover t* = {tstar:.2f}")

        print(f"  {'t':>3s} {'s_lin simulated':>16s} {'s_lin predicted':>16s}")
        for est in slin_exact(sample, TIMES):
            print(f"  {est.t:3d} {simulated[est.t]:16.6f} {est.value:16.6f}")

        if grows and np.isfinite(tstar):
            crossed = next(
                (t for t, s in enumerate(simulated) if s >= 0.5), None
            )
            print(f"  simulated entropy first reaches 0.5 at t = {crossed}")
    print("=" * 72)
    print("Patterns: alternation / quadratic-then-saturate / both combined.")


if __name__ == "__main__":
    main()
