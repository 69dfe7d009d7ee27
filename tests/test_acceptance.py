"""Acceptance gate: one test per shipped quantitative claim.

Every test here pins a headline number or law of the toolkit at its
shipping tolerance, so ``pytest -v tests/test_acceptance.py`` reads as a
criterion-by-criterion pass/fail report.  The tests are grouped by
criterion number (c01..c10) and ordered to match the feature list:

c01  mixed primary/secondary pair, weak kicks: closed-form moment and
     period-2 entanglement laws, cross-checked against Monte Carlo.
c02  both rotors at the secondary resonance: kick-statistics
     coefficients, short-time entropy growth, late-time saturation.
c03  hybrid interaction (symmetric + antisymmetric harmonics): the
     odd-step entropy residual and its second-moment recovery.
c04  double-harmonic hybrid: coefficient set and entropy amplitude.
c05  higher-order resonances: ballistic energy growth and near-linear
     entropy growth exponents for three order pairs.
c06  random potentials satisfying the higher-order symmetry condition:
     dressed (closed-form) propagation equals generic stepping.
c07  detuned kicking periods: agreement horizon, its growth law, the
     inverse-square-root horizon scaling, and the entropy offset.
c08  coupled kicked tops: spread predictions, even-step conservation,
     and the hybrid entanglement pattern.
c09  product-basis purity: brute-force cross-check and the short-time
     curvature identity.
c10  randomized invariants: norm conservation, parity decomposition,
     selection-rule soundness, and bipartition symmetry of the purity.

Four checks are expected to fail and are kept at full strength because
the targets they encode are not reachable by the exact dynamics:

* c02 late-time saturation: the exact entanglement plateau sits near
  0.834 from the end of the crossover until roughly t = 58, below the
  demanded 0.9 floor.
* c03 strong-coupling residual intercept: at unit coupling the odd-step
  offset saturates at 1 - <cos eps_minus> ~= 0.582, far below the
  linearized target <eps_minus^2>/2 = 1; the recovery only holds for
  weak coupling (see the companion test).
* c05 deepest resonance pair: the ballistic onset takes about two
  resonance periods, so within the 50-step horizon the (1/19, 1/21)
  pair's energy exponent still sits just below 1.8 on every post-onset
  fit window (the shallower pairs and all entropy exponents pass; the
  companion test_c05_energy_growth_exponent_deepest_pair_past_onset runs
  the pair to t = 70, where both exponents enter [1.8, 2.2]).
* c08 full-window spread match: the relative deficit of the quadratic
  growth law is ~ sigma^2(t)/j^2, which reaches ~9-10% at t = 0.3 t_s
  by the definition of the saturation time, so a 5% bound cannot hold
  on that window (the companion test shows 5% holds up to 0.2 t_s).

Each red test's assertion message restates the measured value and the
reason, so the failure is informative rather than silent.
"""

import math
import time

import numpy as np
import pytest

from oracles import S_ODD_UNIT, product_basis_purity, uniform_cos_moment

from kickres import (
    BipartitionSpec,
    FieldTerm,
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    RotorEngine,
    RotorLattice,
    RotorState,
    TopEngine,
    TopSpec,
    TopState,
    agreement_time,
    classify_regimes,
    cosine_term,
    deviation_series,
    epsilon_moments,
    epsilon_sample,
    epsilon_second_moment,
    measure_moments,
    observe,
    predict_moments,
    ProductAngleDensity,
    saturation_time,
    satisfies_resonance_symmetry,
    scaling_fit,
    schmidt_purity,
    split_interaction,
    top_params,
    top_purity,
    wavepacket_params,
)
from kickres.potential import classify, decompose, term_parity

PART = BipartitionSpec(2, (0,))
UNIFORM2 = ProductAngleDensity.uniform(2)

# Two-rotor configurations reused across criteria.
MIXED_WEAK = PotentialSpec(
    2,
    (
        cosine_term(0.1, (1, 0)),
        cosine_term(0.2, (0, 1)),
        cosine_term(1.0, (1, -1)),
    ),
)
PLAN_MIXED = ResonancePlan(((1, 1), (1, 2)))

SECONDARY_PAIR = PotentialSpec(
    2,
    (
        cosine_term(2.0, (1, 0)),
        cosine_term(3.0, (0, 1)),
        cosine_term(0.1, (1, -1)),
    ),
)
PLAN_SECONDARY = ResonancePlan(((1, 2), (1, 2)))

DOUBLE_HARMONIC = PotentialSpec(
    2,
    (
        cosine_term(0.1, (2, 0)),
        cosine_term(0.1, (0, 2)),
        cosine_term(1.0, (2, -1)),
    ),
)

FAST_PAIR = PotentialSpec(
    2,
    (
        cosine_term(9.0, (1, 0)),
        cosine_term(10.0, (0, 1)),
        cosine_term(0.1, (1, -1)),
    ),
)

SCAN_RATIONALS = ((1, 1), (1, 2))
SCAN_DETUNINGS = (1e-3, 5e-4, 1e-4, 5e-5, 1e-5)
SCAN_HORIZONS = (40, 60, 120, 170, 280)

TOP_SPEC = TopSpec(
    2,
    50,
    ResonancePlan(((1, 1), (1, 2))),
    (
        FieldTerm(1e-4, (1, 0)),
        FieldTerm(0.02, (0, 2)),
        FieldTerm(0.005, (1, 1)),
        FieldTerm(5e-4, (1, 2)),
    ),
)


def _moment_run(potential, plan, steps, purity=None):
    """Evolve |0,...,0> on growing windows -> observe's (series, purities)."""
    momenta = (0,) * potential.rotor_count
    lattice = RotorLattice.start_window(potential, momenta, steps)
    engine = RotorEngine(potential, plan, lattice)
    state = RotorState.momentum_eigenstate(lattice, momenta)
    return observe(engine, state, steps, measure_moments, purity)


def _entangled_run(potential, plan, steps):
    """Moment series, bipartite entropy by step, and wall seconds."""
    start = time.perf_counter()
    series, purities = _moment_run(
        potential, plan, steps, lambda state: schmidt_purity(state, PART)
    )
    wall = time.perf_counter() - start
    return series, {t: 1.0 - p for t, p in enumerate(purities)}, wall


def _loglog_slope(pairs):
    xs = [math.log10(x) for x, _ in pairs]
    ys = [math.log10(y) for _, y in pairs]
    return float(np.polyfit(xs, ys, 1)[0])


def _residual_intercept(entropy, symmetric_coefficient, fit_times=(1, 3, 5)):
    """Intercept of the odd-step entropy excess over the even envelope.

    The even-step envelope of a single symmetric interaction harmonic is
    known in closed form (a Bessel-quartic sum), so the odd-step excess
    isolates the antisymmetric offset; extrapolating a linear fit of the
    smallest odd steps back to t = 0 removes the residual time
    dependence inherited from the symmetric part.
    """
    points = []
    for t in fit_times:
        envelope = 1.0 - uniform_cos_moment(symmetric_coefficient, t)
        points.append((t, entropy[t] - envelope))
    ts = [float(t) for t, _ in points]
    ys = [y for _, y in points]
    slope, intercept = np.polyfit(ts, ys, 1)
    return float(intercept)


# --------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def mixed_weak_run():
    return _entangled_run(MIXED_WEAK, PLAN_MIXED, 100)


@pytest.fixture(scope="module")
def secondary_pair_run():
    return _entangled_run(SECONDARY_PAIR, PLAN_SECONDARY, 60)


@pytest.fixture(scope="module")
def detuning_scan():
    ideal, _ = _moment_run(
        SECONDARY_PAIR, ResonancePlan(SCAN_RATIONALS), max(SCAN_HORIZONS)
    )
    deviations = {}
    for delta, horizon in zip(SCAN_DETUNINGS, SCAN_HORIZONS):
        plan = ResonancePlan(SCAN_RATIONALS, detunings=(delta, delta))
        detuned, _ = _moment_run(SECONDARY_PAIR, plan, horizon)
        deviations[delta] = deviation_series(detuned, ideal[: horizon + 1])
    return deviations


@pytest.fixture(scope="module")
def coupled_top_run():
    engine = TopEngine(TOP_SPEC)
    dim = TOP_SPEC.dimension
    factor = np.zeros(dim, dtype=complex)
    factor[TOP_SPEC.j_tot] = 1.0
    params = top_params(TOP_SPEC, [factor, factor])
    windows = [
        int(0.3 * saturation_time(TOP_SPEC, lp)) for lp in params.lambda_plus
    ]
    horizon = max(windows)
    part = BipartitionSpec(2, (0,))
    jx_records = {}

    def measure(state, t):
        if t % 2 == 0:
            jx_records[t] = engine.measure_jx_moments(state, t)
        return engine.measure_jz_moments(state, t)

    start = time.perf_counter()
    series, purities = observe(
        engine,
        TopState.jz_product(TOP_SPEC, (0, 0)),
        horizon,
        measure,
        lambda state: top_purity(state, part),
    )
    wall = time.perf_counter() - start
    return {
        "params": params,
        "windows": windows,
        "series": series,
        "jx": jx_records,
        "entropy": {t: 1.0 - p for t, p in enumerate(purities[:45])},
        "wall": wall,
    }


# --------------------------------------------------------------------
# c01: mixed primary/secondary pair with weak kicks


def test_c01_mixed_pair_closed_form_moments_and_entropy(mixed_weak_run):
    series, entropy, wall = mixed_weak_run

    for rec in series[1:]:
        t = rec.t
        ballistic = 0.005 * t * t
        if t % 2 == 0:
            assert abs(rec.spread[0] - ballistic) <= 1e-6 * ballistic
            assert abs(rec.spread[1]) <= 1e-8
        else:
            assert abs(rec.spread[0] - (ballistic + 0.5)) <= 1e-6 * (
                ballistic + 0.5
            )
            assert abs(rec.spread[1] - 0.52) <= 1e-8

    even_peak = max(entropy[t] for t in range(2, 101, 2))
    assert even_peak <= 1e-9

    odd_values = [entropy[t] for t in range(1, 101, 2)]
    assert max(odd_values) - min(odd_values) <= 1e-9
    simulated = sum(odd_values) / len(odd_values)
    assert abs(simulated - S_ODD_UNIT) <= 1e-9

    _, _, v_i = split_interaction(MIXED_WEAK, PART.part_a)
    mc = epsilon_moments(
        epsilon_sample(v_i, PLAN_MIXED.shift_set, UNIFORM2, PART)
    )
    assert abs(simulated - mc.s_odd) <= 3.0 * mc.std_errors["s_odd"]
    assert abs(simulated - 0.58) <= 0.02

    assert wall < 10.0


# --------------------------------------------------------------------
# c02: both rotors at the secondary resonance


def test_c02_secondary_pair_kick_statistics(secondary_pair_run):
    series, _, wall = secondary_pair_run

    params = wavepacket_params(SECONDARY_PAIR, PLAN_SECONDARY.shift_set)
    for j, lam_minus in ((0, 2.0), (1, 4.5)):
        assert abs(params.lambda_plus[j] - 0.005) <= 1e-6
        assert abs(params.lambda_minus[j] - lam_minus) <= 1e-6

    for rec in series[1:]:
        t = rec.t
        for j, lam_minus in ((0, 2.0), (1, 4.5)):
            target = 0.005 * t * t + (lam_minus if t % 2 else 0.0)
            assert abs(rec.spread[j] - target) <= 1e-6 * target

    assert wall < 60.0


def test_c02_secondary_pair_short_time_entropy(secondary_pair_run):
    _, entropy, _ = secondary_pair_run
    for t in (1, 2, 3, 4):
        quadratic = 0.01 * t * t
        assert abs(entropy[t] - quadratic) <= 0.10 * quadratic


def test_c02_secondary_pair_late_time_saturation(secondary_pair_run):
    _, entropy, _ = secondary_pair_run
    t_star = 1.0 / (math.sqrt(2.0) * 0.1)
    start = math.ceil(4.0 * t_star)
    floor = min(entropy[t] for t in range(start, 61))
    assert floor >= 0.9, (
        f"linear entropy floor over t in [{start}, 60] is {floor:.4f}; the "
        "exact plateau of this configuration is 1 - sum_n J_n(0.1 t)^4 "
        "~= 0.834 at the end of the crossover and only crosses 0.9 near "
        "t = 58, so a 0.9 floor from t = 4 t* onward is not attainable"
    )


# --------------------------------------------------------------------
# c03: hybrid interaction, odd-step residual


def test_c03_hybrid_residual_intercept_strong_coupling():
    potential = PotentialSpec(
        2, SECONDARY_PAIR.terms + (cosine_term(1.0, (2, -1)),)
    )
    _, entropy, _ = _entangled_run(potential, PLAN_SECONDARY, 6)
    intercept = _residual_intercept(entropy, 0.1)
    target = 1.0  # <eps_minus^2>/2 for a unit antisymmetric harmonic
    assert abs(intercept - target) <= 0.15 * target, (
        f"odd-step residual intercept {intercept:.4f} vs the linearized "
        f"target <eps_minus^2>/2 = {target:.2f}; at unit coupling the "
        "odd-step offset saturates at 1 - <cos eps_minus> ~= 0.582, so "
        "the second-moment recovery holds only for weak antisymmetric "
        "coupling (companion test below)"
    )


def test_c03_hybrid_residual_intercept_weak_coupling():
    potential = PotentialSpec(
        2, SECONDARY_PAIR.terms + (cosine_term(0.1, (2, -1)),)
    )
    _, entropy, _ = _entangled_run(potential, PLAN_SECONDARY, 6)
    intercept = _residual_intercept(entropy, 0.1)
    target = 0.01  # <eps_minus^2>/2 = coupling^2 for a single harmonic
    assert abs(intercept - target) <= 0.15 * target


# --------------------------------------------------------------------
# c04: double-harmonic hybrid


def test_c04_double_harmonic_moments_and_entropy():
    series, entropy, _ = _entangled_run(DOUBLE_HARMONIC, PLAN_SECONDARY, 30)

    params = wavepacket_params(DOUBLE_HARMONIC, PLAN_SECONDARY.shift_set)
    for j, lam_minus in ((0, 2.0), (1, 0.5)):
        assert abs(params.lambda_plus[j] - 0.02) <= 1e-6
        assert abs(params.lambda_minus[j] - lam_minus) <= 1e-6
        assert abs(params.kappa[j]) <= 1e-12

    for rec in series[1:]:
        t = rec.t
        for j, lam_minus in ((0, 2.0), (1, 0.5)):
            target = 0.02 * t * t + (lam_minus if t % 2 else 0.0)
            assert abs(rec.spread[j] - target) <= 1e-6 * target

    even_peak = max(entropy[t] for t in range(2, 31, 2))
    assert even_peak <= 1e-9
    odd_values = [entropy[t] for t in range(1, 30, 2)]
    assert max(odd_values) - min(odd_values) <= 1e-9
    amplitude = sum(odd_values) / len(odd_values)
    assert abs(amplitude - 0.58) <= 0.02


# --------------------------------------------------------------------
# c05: higher-order resonance pairs

HIGHER_ORDER_PAIRS = (
    ((1, 3), (1, 5)),
    ((1, 13), (1, 15)),
    ((1, 19), (1, 21)),
)


@pytest.fixture(scope="module")
def higher_order_runs():
    return {
        rationals: _entangled_run(FAST_PAIR, ResonancePlan(rationals), 50)
        for rationals in HIGHER_ORDER_PAIRS
    }


def _energy_exponents(series):
    # Fit the second half of the horizon so the onset transient (about
    # two resonance periods) does not contaminate the growth exponent.
    return tuple(
        _loglog_slope([(r.t, r.second[j]) for r in series if 25 <= r.t <= 50])
        for j in (0, 1)
    )


def test_c05_energy_growth_exponents_orders_up_to_15(higher_order_runs):
    for rationals in HIGHER_ORDER_PAIRS[:2]:
        series, _, wall = higher_order_runs[rationals]
        assert wall < 600.0, f"pair {rationals} took {wall:.0f}s"
        for j, slope in enumerate(_energy_exponents(series)):
            assert 1.8 <= slope <= 2.2, (
                f"orders {rationals}: <p^2> exponent {slope:.3f} for "
                f"rotor {j} outside [1.8, 2.2]"
            )


def test_c05_energy_growth_exponent_deepest_pair(higher_order_runs):
    rationals = HIGHER_ORDER_PAIRS[2]
    series, _, wall = higher_order_runs[rationals]
    assert wall < 600.0, f"pair {rationals} took {wall:.0f}s"
    slopes = _energy_exponents(series)
    assert all(1.8 <= s <= 2.2 for s in slopes), (
        f"orders {rationals}: <p^2> exponents {slopes[0]:.3f} / "
        f"{slopes[1]:.3f}; the ballistic onset takes roughly two "
        "resonance periods (~40 steps here), so within the 50-step "
        "horizon the deepest pair still fits below 1.8 on every "
        "post-onset window even though the slope keeps climbing toward "
        "2 with decreasing order and later windows"
    )


DEEPEST_PAIR_HORIZON = 70


@pytest.fixture(scope="module")
def deepest_pair_long_run():
    # its own run: the 50-step gate above keeps its fixture unchanged
    start = time.perf_counter()
    series, _ = _moment_run(
        FAST_PAIR, ResonancePlan(HIGHER_ORDER_PAIRS[2]), DEEPEST_PAIR_HORIZON
    )
    return series, time.perf_counter() - start


def test_c05_energy_growth_exponent_deepest_pair_past_onset(
    deepest_pair_long_run,
):
    # Companion of the deepest-pair gate: past the ~40-step ballistic
    # onset the (1/19, 1/21) exponents enter [1.8, 2.2].
    series, wall = deepest_pair_long_run
    assert wall < 600.0, f"pair {HIGHER_ORDER_PAIRS[2]} took {wall:.0f}s"
    slopes = tuple(
        _loglog_slope(
            [
                (r.t, r.second[j])
                for r in series
                if 50 <= r.t <= DEEPEST_PAIR_HORIZON
            ]
        )
        for j in (0, 1)
    )
    assert all(1.8 <= s <= 2.2 for s in slopes), (
        f"orders {HIGHER_ORDER_PAIRS[2]}: <p^2> exponents "
        f"{slopes[0]:.3f} / {slopes[1]:.3f} on 50 <= t <= "
        f"{DEEPEST_PAIR_HORIZON}, outside [1.8, 2.2]"
    )


def test_c05_entropy_growth_exponents(higher_order_runs):
    for rationals in HIGHER_ORDER_PAIRS:
        _, entropy, _ = higher_order_runs[rationals]
        growth = [(t, s) for t, s in entropy.items() if t >= 2 and s <= 0.5]
        assert len(growth) >= 4
        slope = _loglog_slope(growth)
        assert 0.8 <= slope <= 1.2, (
            f"orders {rationals}: entropy exponent {slope:.3f} outside "
            "[0.8, 1.2]"
        )


# --------------------------------------------------------------------
# c06: symmetry-condition potentials propagate in dressed form


def test_c06_dressed_propagation_matches_generic_stepping():
    order_pairs = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (3, 5))
    rng = np.random.default_rng(20260815)
    for s1, s2 in order_pairs:
        d1 = s1 if s1 % 2 else s1 // 2
        d2 = s2 if s2 % 2 else s2 // 2
        c = rng.uniform(0.05, 0.35, size=4)
        sign = -1 if rng.integers(2) else 1
        potential = PotentialSpec(
            2,
            (
                cosine_term(c[0], (d1, 0)),
                cosine_term(c[1], (0, d2)),
                cosine_term(c[2], (d1, sign * d2)),
                cosine_term(c[3], (0, 2 * d2)),
            ),
        )
        plan = ResonancePlan(((1, s1), (1, s2)))
        assert satisfies_resonance_symmetry(potential, plan)
        spoiled = PotentialSpec(
            2, potential.terms + (cosine_term(0.1, (1, 0)),)
        )
        assert not satisfies_resonance_symmetry(spoiled, plan)

        # The generic and closed-form routes only agree up to momentum
        # amplitudes that reach the window seam, so the margin is sized
        # for edge amplitudes well below the comparison tolerance.
        lattice = RotorLattice.for_run(potential, (0, 0), 20, margin=192)
        engine = RotorEngine(potential, plan, lattice)
        state = RotorState.momentum_eigenstate(lattice, (0, 0))
        dressed = engine.dressed_evolve(state, 20)
        generic = engine.evolve(state, 20)
        gap = float(np.max(np.abs(dressed.amplitudes - generic.amplitudes)))
        assert gap < 1e-10, f"orders ({s1}, {s2}): amplitude gap {gap:.2e}"


# --------------------------------------------------------------------
# c07: detuned kicking periods


def test_c07_detuning_agreement_window(detuning_scan):
    deltas = dict(detuning_scan[1e-3])
    early_peak = max(deltas[t] for t in range(1, 16))
    assert early_peak < 0.01
    t_d = agreement_time(detuning_scan[1e-3], 0.01)
    assert 15.0 <= t_d <= 25.0


def test_c07_detuning_quartic_growth(detuning_scan):
    deltas = dict(detuning_scan[1e-3])
    points = [(t, deltas[t]) for t in range(3, 13) if deltas[t] > 0.0]
    slope = _loglog_slope(points)
    assert abs(slope - 4.0) <= 0.3


def test_c07_detuning_horizon_scaling(detuning_scan):
    times = [
        (delta, agreement_time(detuning_scan[delta], 0.01))
        for delta in SCAN_DETUNINGS
    ]
    assert all(math.isfinite(t) for _, t in times)
    ordered = [t for _, t in sorted(times)]
    assert ordered == sorted(ordered, reverse=True)
    fit = scaling_fit(times)
    assert abs(fit.slope + 0.5) <= 0.1


def test_c07_detuned_entropy_offset_prediction():
    _, _, v_i = split_interaction(SECONDARY_PAIR, PART.part_a)
    shift = ResonancePlan(SCAN_RATIONALS).shift_set
    mc = epsilon_moments(epsilon_sample(v_i, shift, UNIFORM2, PART))
    assert abs(mc.s_odd - 0.0099) <= 5e-4


# --------------------------------------------------------------------
# c08: coupled kicked tops


def test_c08_top_spread_prediction_full_window(coupled_top_run):
    run = coupled_top_run
    assert run["wall"] < 60.0
    worst = [0.0, 0.0]
    for rec in run["series"][1:]:
        _, predicted = predict_moments(run["params"], rec.t)
        for n in (0, 1):
            if rec.t <= run["windows"][n]:
                rel = abs(rec.spread[n] - predicted[n]) / predicted[n]
                worst[n] = max(worst[n], rel)
    assert max(worst) <= 0.05, (
        f"worst relative spread deviations {worst[0]:.4f} / {worst[1]:.4f} "
        "over t <= 0.3 t_s; the simulation falls below the quadratic "
        "growth law by ~ sigma^2(t)/j^2, which reaches ~0.09-0.10 at "
        "t = 0.3 t_s by the definition of the saturation time, so a 5% "
        "bound cannot hold on the full window (see the 0.2 t_s companion)"
    )


def test_c08_top_spread_prediction_core_window(coupled_top_run):
    run = coupled_top_run
    worst = [0.0, 0.0]
    cores = [
        0.2 * saturation_time(TOP_SPEC, lp)
        for lp in run["params"].lambda_plus
    ]
    for rec in run["series"][1:]:
        _, predicted = predict_moments(run["params"], rec.t)
        for n in (0, 1):
            if rec.t <= cores[n]:
                rel = abs(rec.spread[n] - predicted[n]) / predicted[n]
                worst[n] = max(worst[n], rel)
    assert max(worst) <= 0.05


def test_c08_top_even_step_conservation(coupled_top_run):
    jx = coupled_top_run["jx"]
    base = jx[0]
    scale = TOP_SPEC.j_tot * (TOP_SPEC.j_tot + 1) / 2.0
    for t, rec in jx.items():
        for n in (0, 1):
            assert abs(rec.mean[n] - base.mean[n]) <= 1e-10
            assert abs(rec.second[n] - base.second[n]) <= 1e-10 * scale


def test_c08_top_entropy_hybrid_pattern(coupled_top_run):
    entropy = coupled_top_run["entropy"]
    offsets = [
        entropy[t] - 0.5 * (entropy[t - 1] + entropy[t + 1])
        for t in range(1, 40, 2)
    ]
    assert min(offsets) > 0.0
    evens = [entropy[t] for t in range(0, 42, 2)]
    assert all(b >= a - 1e-12 for a, b in zip(evens, evens[1:]))
    assert evens[-1] > 10.0 * entropy[2] > 0.0


# --------------------------------------------------------------------
# c09: product-basis purity


def test_c09_purity_matches_brute_force_sum():
    rng = np.random.default_rng(909)
    for _ in range(12):
        dim_a = int(rng.integers(2, 9))
        dim_b = int(rng.integers(2, 9))
        phi = rng.normal(size=dim_a) + 1j * rng.normal(size=dim_a)
        phi /= np.linalg.norm(phi)
        chi = rng.normal(size=dim_b) + 1j * rng.normal(size=dim_b)
        chi /= np.linalg.norm(chi)
        grid = rng.normal(size=(dim_a, dim_b))
        v = np.abs(phi) ** 2
        v /= v.sum()
        w = np.abs(chi) ** 2
        w /= w.sum()
        for t in (0.0, 0.37, 1.9, 6.3):
            brute = 0.0
            for a in range(dim_a):
                for b in range(dim_b):
                    for a2 in range(dim_a):
                        for b2 in range(dim_b):
                            eps = (
                                grid[a, b]
                                + grid[a2, b2]
                                - grid[a2, b]
                                - grid[a, b2]
                            )
                            brute += (
                                v[a] * w[b] * v[a2] * w[b2] * math.cos(t * eps)
                            )
            fast = product_basis_purity(phi, chi, grid, t)
            assert abs(fast - brute) <= 1e-12


def test_c09_short_time_curvature_matches_second_moment():
    rng = np.random.default_rng(910)
    for _ in range(5):
        dim_a = int(rng.integers(3, 13))
        dim_b = int(rng.integers(3, 13))
        phi = rng.normal(size=dim_a) + 1j * rng.normal(size=dim_a)
        phi /= np.linalg.norm(phi)
        chi = rng.normal(size=dim_b) + 1j * rng.normal(size=dim_b)
        chi /= np.linalg.norm(chi)
        grid = rng.normal(size=(dim_a, dim_b))
        second = epsilon_second_moment(phi, chi, grid)
        t = 0.1 / math.sqrt(second)
        curvature = 2.0 * (1.0 - product_basis_purity(phi, chi, grid, t)) / t**2
        assert abs(curvature - second) <= 0.01 * second


# --------------------------------------------------------------------
# c10: randomized invariant suites (1000 instances each)


def _random_terms(rng, rotor_count, count, mode_span=2, phase=True):
    terms = []
    for _ in range(count):
        modes = np.zeros(rotor_count, dtype=int)
        while not modes.any():
            modes = rng.integers(-mode_span, mode_span + 1, size=rotor_count)
        terms.append(
            FourierTerm(
                float(rng.uniform(0.1, 0.6)),
                tuple(int(m) for m in modes),
                float(rng.uniform(0.0, 2.0 * math.pi)) if phase else 0.0,
            )
        )
    return tuple(terms)


def test_c10_invariant_norm_conservation():
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        rotor_count = int(rng.integers(1, 3))
        potential = PotentialSpec(
            rotor_count, _random_terms(rng, rotor_count, int(rng.integers(1, 3)))
        )
        rationals = tuple(
            (int(rng.integers(1, 3)), int(rng.integers(1, 4)))
            for _ in range(rotor_count)
        )
        detunings = (
            tuple(float(d) for d in rng.uniform(-0.05, 0.05, size=rotor_count))
            if rng.integers(2)
            else ()
        )
        plan = ResonancePlan(rationals, detunings=detunings)
        lattice = RotorLattice.for_run(
            potential, (0,) * rotor_count, 3, margin=12
        )
        engine = RotorEngine(potential, plan, lattice)
        state = RotorState.momentum_eigenstate(lattice, (0,) * rotor_count)
        evolved = engine.evolve(state, 3)
        assert abs(evolved.norm() - 1.0) <= 1e-9


def test_c10_invariant_parity_decomposition():
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        rotor_count = int(rng.integers(1, 4))
        potential = PotentialSpec(
            rotor_count,
            _random_terms(rng, rotor_count, int(rng.integers(1, 5)), mode_span=3),
        )
        shift = frozenset(
            int(j) for j in range(rotor_count) if rng.integers(2)
        )
        even_part, odd_part = decompose(potential, shift)
        for _ in range(8):
            theta = rng.uniform(0.0, 2.0 * math.pi, size=rotor_count)
            shifted = theta + np.where(
                [j in shift for j in range(rotor_count)], math.pi, 0.0
            )
            total = potential.evaluate(theta)
            even_val = even_part.evaluate(theta)
            odd_val = odd_part.evaluate(theta)
            assert abs(total - even_val - odd_val) <= 1e-12
            assert abs(even_part.evaluate(shifted) - even_val) <= 1e-12
            assert abs(odd_part.evaluate(shifted) + odd_val) <= 1e-12


def test_c10_invariant_selection_rule_soundness():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        rotor_count = int(rng.integers(2, 4))
        part_a = tuple(
            sorted(
                rng.choice(rotor_count, size=int(rng.integers(1, rotor_count)),
                           replace=False).tolist()
            )
        )
        part = BipartitionSpec(rotor_count, part_a)
        crossing = np.zeros(rotor_count, dtype=int)
        crossing[part_a[0]] = int(rng.integers(1, 3))
        others = [j for j in range(rotor_count) if j not in part_a]
        crossing[others[0]] = -int(rng.integers(1, 3))
        terms = _random_terms(rng, rotor_count, int(rng.integers(1, 4)))
        terms += (FourierTerm(0.5, tuple(int(m) for m in crossing)),)
        potential = PotentialSpec(rotor_count, terms)
        rationals = tuple(
            (1, int(rng.integers(1, 3))) for _ in range(rotor_count)
        )
        plan = ResonancePlan(rationals)
        report = classify_regimes(potential, plan, part)

        _, _, v_i = split_interaction(potential, part_a)
        assert report.interaction_class is classify(v_i, plan.shift_set)
        parities = {
            term_parity(term, plan.shift_set) for term in v_i.terms
        }
        if parities == {0}:
            assert report.interaction_class.value == "symmetric"
        elif parities == {1}:
            assert report.interaction_class.value == "antisymmetric"

        # The flags are derived from the same term list, so a violation
        # of the compatibility rule is impossible by construction.
        assert all(report.selection_rule_ok)
        assert report.consistent == all(report.selection_rule_ok)


def test_c10_invariant_purity_bipartition_symmetry():
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        rotor_count = int(rng.integers(2, 4))
        dims = rng.integers(4, 8, size=rotor_count)
        windows = tuple((0, int(d) - 1) for d in dims)
        lattice = RotorLattice(windows)
        amplitudes = rng.normal(size=tuple(dims)) + 1j * rng.normal(
            size=tuple(dims)
        )
        amplitudes /= np.linalg.norm(amplitudes)
        state = RotorState(lattice, amplitudes)
        part_a = tuple(
            sorted(
                rng.choice(rotor_count, size=int(rng.integers(1, rotor_count)),
                           replace=False).tolist()
            )
        )
        part = BipartitionSpec(rotor_count, part_a)
        purity_a = schmidt_purity(state, part)
        purity_b = schmidt_purity(state, part.swapped())
        assert abs(purity_a - purity_b) <= 1e-12
        dim_a = int(np.prod([dims[j] for j in part_a]))
        dim_b = int(np.prod(dims)) // dim_a
        assert 1.0 / min(dim_a, dim_b) - 1e-12 <= purity_a <= 1.0 + 1e-12
