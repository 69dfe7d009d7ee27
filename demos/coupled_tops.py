"""Resonant spreading laws for a pair of coupled kicked tops.

The rotor analysis carries over to finite spins: park each top's kick
period on a principal or secondary resonance, replace the kick potential
by a polynomial in the J_x operators, and start from the joint J_z = 0
equator state.  The J_z variances then follow quadratic laws whose
coefficients are matrix elements of the kick's commutator with J_z, valid
until the spreading feels the poles at the saturation time
t_sat = j / sqrt(lambda_plus).  This script prints the predicted
coefficients, runs the exact unitary evolution, and tabulates the
simulated-to-predicted ratio as each top approaches its own t_sat.

Run from the repository root (no arguments, ~1 s):

    python3 demos/coupled_tops.py
"""

from __future__ import annotations

import numpy as np

from kickres import (
    BipartitionSpec,
    FieldTerm,
    ResonancePlan,
    TopEngine,
    TopSpec,
    TopState,
    observe,
    predict_moments,
    saturation_time,
    top_params,
    top_purity,
)

J_TOT = 50
SPEC = TopSpec(
    2,
    J_TOT,
    ResonancePlan(((1, 1), (1, 2))),
    (
        FieldTerm(1e-4, (1, 0)),
        FieldTerm(0.02, (0, 2)),
        FieldTerm(0.005, (1, 1)),
        FieldTerm(5e-4, (1, 2)),
    ),
)
STEPS = 400


def main() -> None:
    equator = np.zeros(SPEC.dimension, dtype=complex)
    equator[J_TOT] = 1.0  # J_z = 0 amplitude within one top's multiplet
    params = top_params(SPEC, [equator, equator])
    t_sat = [saturation_time(SPEC, lp) for lp in params.lambda_plus]
    for n in (0, 1):
        print(
            f"top {n + 1}: lambda+ = {params.lambda_plus[n]:.6g},"
            f" lambda- = {params.lambda_minus[n]:.6g},"
            f" saturation time ~ {t_sat[n]:.0f} kicks"
        )

    engine = TopEngine(SPEC)
    part = BipartitionSpec(2, (0,))
    series, purities = observe(
        engine,
        TopState.jz_product(SPEC, (0, 0)),
        STEPS,
        engine.measure_jz_moments,
        lambda current: top_purity(current, part),
    )
    entropy = [1.0 - p for p in purities[:9]]

    print(f"\n{'t':>4s} {'t/t_sat1':>9s} {'sim/law 1':>10s}"
          f" {'t/t_sat2':>9s} {'sim/law 2':>10s}")
    for t in (8, 20, 40, 100, 200, 400):
        rec = series[t]
        _, law = predict_moments(params, t)
        ratios = [rec.spread[n] / law[n] for n in (0, 1)]
        fractions = [t / t_sat[n] for n in (0, 1)]
        print(
            f"{t:4d} {fractions[0]:9.3f} {ratios[0]:10.4f}"
            f" {fractions[1]:9.3f} {ratios[1]:10.4f}"
        )
    print("The quadratic law holds to a few percent while t << t_sat and")
    print("bends below the prediction as the fast top nears saturation.")

    print(f"\n{'t':>2s} {'s_lin':>10s}   (odd-step offsets over a slow rise)")
    for t, s in enumerate(entropy):
        print(f"{t:2d} {s:10.6f}")


if __name__ == "__main__":
    main()
