import math

import numpy as np
import pytest

from kickres.entanglement import BipartitionSpec, schmidt_purity
from kickres.errors import ValidationError
from kickres.potential import (
    PotentialSpec,
    ResonancePlan,
    SymmetryClass,
    cosine_term,
    split_interaction,
)
from kickres.predictor import (
    EpsilonMoments,
    ProductAngleDensity,
    RobustnessResult,
    WavepacketParams,
    agreement_time,
    classify_regimes,
    crossover_time,
    deviation_series,
    epsilon_moments,
    predict_moments,
    scaling_fit,
    slin_exact,
    wavepacket_params,
)
from kickres.rotor_engine import (
    MomentRecord,
    RotorEngine,
    RotorLattice,
    RotorState,
    displacement_stats,
    measure_moments,
)

from oracles import S_ODD_TENTH, S_ODD_UNIT, uniform_cos_moment


def fig1_potential():
    return PotentialSpec(
        2,
        (
            cosine_term(0.1, (1, 0)),
            cosine_term(0.2, (0, 1)),
            cosine_term(1.0, (1, -1)),
        ),
    )


def fig2_potential(extra=False):
    terms = [
        cosine_term(2.0, (1, 0)),
        cosine_term(3.0, (0, 1)),
        cosine_term(0.1, (1, -1)),
    ]
    if extra:
        terms.append(cosine_term(1.0, (2, -1)))
    return PotentialSpec(2, tuple(terms))


def fig3_potential():
    return PotentialSpec(
        2,
        (
            cosine_term(0.1, (2, 0)),
            cosine_term(0.1, (0, 2)),
            cosine_term(1.0, (2, -1)),
        ),
    )


PLAN_MIXED = ResonancePlan(((1, 1), (1, 2)))  # principal + secondary
PLAN_BOTH = ResonancePlan(((1, 2), (1, 2)))  # both secondary
PART = BipartitionSpec(2, (0,))
UNIFORM = ProductAngleDensity.uniform(2)


class TestProductAngleDensity:
    def test_uniform_characteristic(self):
        dens = ProductAngleDensity.uniform(3)
        assert dens.char(0, 0) == 1.0
        assert dens.char(1, 2) == 0.0
        assert dens.char_vector((0, 0, 0)) == 1.0
        assert dens.char_vector((1, 0, 0)) == 0.0

    def test_factor_characteristic_is_autocorrelation(self):
        amps = np.array([0.5, 0.5j, -0.5, 0.5])
        dens = ProductAngleDensity.from_factors([amps, None])
        assert dens.char(0, 0) == pytest.approx(1.0)
        direct = np.sum(np.conj(amps[1:]) * amps[:-1])
        assert dens.char(0, 1) == pytest.approx(complex(direct))
        assert dens.char(0, -1) == pytest.approx(np.conj(complex(direct)))
        assert dens.char(0, 4) == 0.0

    def test_factor_sampling_matches_density_moments(self):
        rng = np.random.default_rng(5)
        amps = np.array([0.8, 0.6j])
        dens = ProductAngleDensity.from_factors([amps])
        draws = dens.sample(rng, 200_000)[:, 0]
        # <cos theta> = Re chi(1) up to the angle sign convention
        assert np.mean(np.cos(draws)) == pytest.approx(
            float(np.real(dens.char(0, 1))), abs=5e-3
        )
        assert abs(np.mean(np.sin(draws))) - abs(
            float(np.imag(dens.char(0, 1)))
        ) == pytest.approx(0.0, abs=5e-3)

    def test_rejects_unnormalized_factor(self):
        with pytest.raises(ValidationError):
            ProductAngleDensity.from_factors([np.array([1.0, 1.0])])


class TestWavepacketParams:
    def test_first_figure_values(self):
        wp = wavepacket_params(fig1_potential(), PLAN_MIXED.shift_set)
        assert wp.lambda_plus[0] == pytest.approx(0.005, abs=1e-12)
        assert wp.lambda_minus[0] == pytest.approx(0.5, abs=1e-12)
        assert wp.lambda_plus[1] == pytest.approx(0.0, abs=1e-12)
        assert wp.lambda_minus[1] == pytest.approx(0.52, abs=1e-12)
        assert wp.alpha_plus == (0.0, 0.0)
        assert wp.alpha_minus == (0.0, 0.0)
        assert wp.kappa == (0.0, 0.0)
        assert wp.symmetry[0] is SymmetryClass.ASYMMETRIC
        assert wp.symmetry[1] is SymmetryClass.ANTISYMMETRIC

    def test_second_figure_values(self):
        wp = wavepacket_params(fig2_potential(), PLAN_BOTH.shift_set)
        assert wp.lambda_plus[0] == pytest.approx(0.005, abs=1e-12)
        assert wp.lambda_plus[1] == pytest.approx(0.005, abs=1e-12)
        assert wp.lambda_minus[0] == pytest.approx(2.0, abs=1e-12)
        assert wp.lambda_minus[1] == pytest.approx(4.5, abs=1e-12)

    def test_second_harmonic_values(self):
        wp = wavepacket_params(fig3_potential(), PLAN_BOTH.shift_set)
        assert wp.lambda_plus[0] == pytest.approx(0.02, abs=1e-12)
        assert wp.lambda_minus[0] == pytest.approx(2.0, abs=1e-12)
        assert wp.lambda_plus[1] == pytest.approx(0.02, abs=1e-12)
        assert wp.lambda_minus[1] == pytest.approx(0.5, abs=1e-12)

    def test_nonuniform_density_matches_grid_quadrature(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        factor = raw / np.linalg.norm(raw)
        dens = ProductAngleDensity.from_factors([factor, None])
        pot = fig1_potential()
        wp = wavepacket_params(pot, PLAN_MIXED.shift_set, dens)

        grid = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        quanta = np.arange(5)
        wave = np.exp(1j * np.outer(grid, quanta)) @ factor
        weights = np.abs(wave) ** 2
        weights /= weights.sum()
        t1, t2 = np.meshgrid(grid, grid, indexing="ij")
        w2d = weights[:, None] / grid.size  # rotor 2 uniform
        # rotor 1 odd part: sin(t1 - t2) from the coupling
        grad_odd = np.sin(t1 - t2)
        expected = float(np.sum(w2d * grad_odd**2))
        assert wp.lambda_minus[0] == pytest.approx(expected, rel=1e-8)
        grad_even = 0.1 * np.sin(t1)
        expected_even = float(np.sum(w2d * grad_even**2))
        assert wp.lambda_plus[0] == pytest.approx(expected_even, rel=1e-8)
        expected_alpha = float(np.sum(w2d * (0.1 * np.sin(t1))))
        assert wp.alpha_plus[0] == pytest.approx(expected_alpha, abs=1e-10)

    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            WavepacketParams(
                alpha_plus=(1.0,),
                alpha_minus=(0.0,),
                lambda_plus=(0.5,),  # below alpha^2
                lambda_minus=(0.0,),
                kappa=(0.0,),
                symmetry=(SymmetryClass.SYMMETRIC,),
            )
        with pytest.raises(ValidationError):
            WavepacketParams(
                alpha_plus=(0.0,),
                alpha_minus=(0.0,),
                lambda_plus=(0.1,),
                lambda_minus=(0.1,),
                kappa=(0.2,),  # kappa^2 > l+ l-
                symmetry=(SymmetryClass.SYMMETRIC,),
            )


class TestPredictMoments:
    def test_even_step_quadratic(self):
        wp = wavepacket_params(fig1_potential(), PLAN_MIXED.shift_set)
        _, spread = predict_moments(wp, 10)
        assert spread[0] == pytest.approx(0.5, abs=1e-12)

    def test_antisymmetric_alternation(self):
        wp = wavepacket_params(fig1_potential(), PLAN_MIXED.shift_set)
        values = [predict_moments(wp, t)[1][1] for t in range(6)]
        assert values[0::2] == [0.0, 0.0, 0.0]
        for odd in values[1::2]:
            assert odd == pytest.approx(0.52, abs=1e-12)

    def test_zero_step(self):
        wp = wavepacket_params(fig2_potential(), PLAN_BOTH.shift_set)
        displacement, spread = predict_moments(wp, 0)
        assert displacement == (0.0, 0.0)
        assert spread == (0.0, 0.0)
        with pytest.raises(ValidationError):
            predict_moments(wp, -1)

    def test_agreement_with_engine(self):
        pot = fig1_potential()
        wp = wavepacket_params(pot, PLAN_MIXED.shift_set)
        lat = RotorLattice.for_run(pot, (0, 0), steps=60)
        engine = RotorEngine(pot, PLAN_MIXED, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        series = [
            measure_moments(s, t) for t, s in engine.trajectory(state, 60)
        ]
        stats = displacement_stats(series)
        for rec in stats:
            displacement, spread = predict_moments(wp, rec.t)
            for j in range(2):
                assert rec.displacement[j] == pytest.approx(
                    displacement[j], abs=1e-8
                )
                assert rec.spread[j] == pytest.approx(
                    spread[j], abs=2e-7, rel=1e-8
                )


class TestEpsilonMoments:
    def test_symmetric_coupling_both_secondary(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        em = epsilon_moments(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 50_000, 7
        )
        assert em.eps_plus_sq == pytest.approx(0.02, abs=1e-12)
        assert em.eps_minus_sq == pytest.approx(0.0, abs=1e-12)
        assert em.eps_cross == pytest.approx(0.0, abs=1e-12)
        assert em.norm == pytest.approx(math.sqrt(0.02), abs=1e-12)

    def test_antisymmetric_coupling_single_secondary(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        scaled = PotentialSpec(
            2, (cosine_term(0.7, (1, -1)),)
        )
        em = epsilon_moments(
            scaled, PLAN_MIXED.shift_set, UNIFORM, PART, 50_000, 7
        )
        assert em.eps_plus_sq == pytest.approx(0.0, abs=1e-12)
        assert em.eps_minus_sq == pytest.approx(
            2 * 0.7**2, abs=1e-12
        )
        # full-strength variant straight from the figure-1 interaction
        em_unit = epsilon_moments(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 100_000, 11
        )
        assert em_unit.eps_minus_sq == pytest.approx(2.0, abs=1e-12)

    def test_s_odd_matches_bessel_oracle(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        em = epsilon_moments(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 200_000, 21
        )
        assert abs(em.s_odd - S_ODD_UNIT) < 3 * em.std_errors["s_odd"]
        assert abs(em.s_odd - 0.58) < 0.02

    def test_first_moments_vanish(self):
        _, _, v_i = split_interaction(fig2_potential(True), (0,))
        em = epsilon_moments(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 100_000, 3
        )
        assert abs(em.eps_plus_mean) < 4 * em.std_errors["eps_plus_mean"]
        assert abs(em.eps_minus_mean) < 4 * em.std_errors["eps_minus_mean"]

    def test_sample_floor(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        with pytest.raises(ValidationError):
            epsilon_moments(
                v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 9_999, 1
            )

    def test_empty_interaction_rejected(self):
        empty = PotentialSpec(2, ())
        with pytest.raises(ValidationError):
            epsilon_moments(
                empty, PLAN_MIXED.shift_set, UNIFORM, PART, 50_000, 1
            )


class TestSlinExact:
    def test_antisymmetric_even_steps_vanish(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        for t in (0, 2, 6):
            est = slin_exact(
                v_i, PLAN_MIXED.shift_set, UNIFORM, PART, t, 50_000, 5
            )
            assert est.value == pytest.approx(0.0, abs=1e-14)
            assert est.std_error == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetric_odd_steps_constant(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        values = [
            slin_exact(
                v_i, PLAN_MIXED.shift_set, UNIFORM, PART, t, 50_000, 5
            ).value
            for t in (1, 3, 11)
        ]
        assert values[0] == values[1] == values[2]
        est = slin_exact(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 1, 400_000, 17
        )
        assert abs(est.value - S_ODD_UNIT) < 3 * est.std_error

    def test_symmetric_small_t_quadratic(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        for t in (1, 2, 4):
            est = slin_exact(
                v_i, PLAN_BOTH.shift_set, UNIFORM, PART, t, 200_000, 9
            )
            assert abs(est.value - 0.01 * t * t) / (0.01 * t * t) < 0.1

    def test_symmetric_saturation_band(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        for t in (142, 143, 200):  # ||eps|| t > 20
            est = slin_exact(
                v_i, PLAN_BOTH.shift_set, UNIFORM, PART, t, 100_000, 13
            )
            assert 0.9 <= est.value <= 1.0

    def test_monte_carlo_matches_bessel_series(self):
        # single-term coupling over uniform angles admits an exact
        # quartic Bessel sum for <cos(t eps)>
        v_i = PotentialSpec(2, (cosine_term(0.1, (1, -1)),))
        shift = PLAN_BOTH.shift_set
        for t in (1, 3, 7):
            est = slin_exact(
                v_i, shift, UNIFORM, PART, t, 400_000, 31
            )
            exact = 1.0 - uniform_cos_moment(0.1, t)
            assert abs(est.value - exact) < 3 * est.std_error

    def test_short_time_remainder_is_quartic(self):
        # exact closed form: S_lin(t) = 1 - sum_n J_n(xi t)^4, so the
        # remainder against (eps^2/2) t^2 must scale like t^4
        v_i = PotentialSpec(2, (cosine_term(0.1, (1, -1)),))
        em = epsilon_moments(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 50_000, 2
        )
        residuals = [
            abs((1.0 - uniform_cos_moment(0.1, t)) - 0.5 * em.eps_sq * t**2)
            for t in (1, 2)
        ]
        assert 14.0 < residuals[1] / residuals[0] < 18.0
        est = slin_exact(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 1, 400_000, 43
        )
        assert abs(est.value - (1.0 - uniform_cos_moment(0.1, 1))) < (
            3 * est.std_error
        )

    def test_crossover_time(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        em = epsilon_moments(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 50_000, 7
        )
        assert crossover_time(em) == pytest.approx(
            1.0 / (math.sqrt(2) * 0.1), rel=1e-12
        )
        zero = EpsilonMoments(
            eps_plus_sq=0.0,
            eps_minus_sq=0.0,
            eps_cross=0.0,
            norm=0.0,
            s_odd=0.0,
            eps_plus_mean=0.0,
            eps_minus_mean=0.0,
            std_errors={},
            sample_count=50_000,
        )
        with pytest.raises(ValidationError):
            crossover_time(zero)

    def test_entropy_closed_form_matches_engine(self):
        # schmidt purity along the resonant trajectory against the
        # Monte-Carlo closed form, figure-1 setup
        pot = fig1_potential()
        lat = RotorLattice.for_run(pot, (0, 0), steps=9)
        engine = RotorEngine(pot, PLAN_MIXED, lat)
        initial = RotorState.momentum_eigenstate(lat, (0, 0))
        _, _, v_i = split_interaction(pot, (0,))
        for t, state in engine.trajectory(initial, 9):
            if t == 0:
                continue
            s_lin = 1.0 - schmidt_purity(state, PART)
            est = slin_exact(
                v_i,
                PLAN_MIXED.shift_set,
                UNIFORM,
                PART,
                t,
                200_000,
                t,
            )
            band = max(3 * est.std_error, 1e-10)
            assert abs(s_lin - est.value) <= band


class TestClassifyRegimes:
    def test_first_figure_report(self):
        report = classify_regimes(fig1_potential(), PLAN_MIXED, PART)
        assert report.rotor_classes == (
            SymmetryClass.ASYMMETRIC,
            SymmetryClass.ANTISYMMETRIC,
        )
        assert report.rotor_regimes == ("hybrid", "period-2 oscillation")
        assert report.interaction_class is SymmetryClass.ANTISYMMETRIC
        assert report.interaction_regime == "period-2 oscillation"
        assert report.consistent

    def test_second_figure_report(self):
        report = classify_regimes(fig2_potential(), PLAN_BOTH, PART)
        assert report.rotor_classes == (
            SymmetryClass.ASYMMETRIC,
            SymmetryClass.ASYMMETRIC,
        )
        assert report.interaction_class is SymmetryClass.SYMMETRIC
        assert (
            report.interaction_regime == "quadratic growth then saturation"
        )
        assert report.consistent

    def test_hybrid_interaction_report(self):
        report = classify_regimes(fig2_potential(True), PLAN_BOTH, PART)
        assert report.interaction_class is SymmetryClass.ASYMMETRIC
        assert report.interaction_regime == "hybrid then saturation"

    def test_all_principal_everything_symmetric(self):
        plan = ResonancePlan(((1, 1), (1, 1)))
        report = classify_regimes(fig2_potential(), plan, PART)
        assert all(
            cls is SymmetryClass.SYMMETRIC for cls in report.rotor_classes
        )
        assert report.rotor_regimes == ("quadratic", "quadratic")
        assert report.interaction_class is SymmetryClass.SYMMETRIC
        assert report.consistent

    def test_ineligible_plan_rejected(self):
        pot = PotentialSpec(2, (cosine_term(1.0, (1, -1)),))
        plan = ResonancePlan(((1, 3), (1, 3)))
        with pytest.raises(ValidationError):
            classify_regimes(pot, plan, PART)

    def test_selection_rule_soundness_random(self):
        rng = np.random.default_rng(99)
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 2000:
            attempts += 1
            terms = []
            for _ in range(rng.integers(1, 5)):
                modes = tuple(
                    int(m) for m in rng.integers(-3, 4, size=2)
                )
                if all(m == 0 for m in modes):
                    continue
                coeff = float(rng.uniform(-2, 2))
                if coeff == 0.0:
                    continue
                terms.append(cosine_term(coeff, modes))
            if not terms:
                continue
            pot = PotentialSpec(2, tuple(terms))
            orders = rng.choice([1, 2], size=2)
            plan = ResonancePlan(
                ((1, int(orders[0])), (1, int(orders[1])))
            )
            report = classify_regimes(pot, plan, PART)
            assert report.consistent
            checked += 1
        assert checked == 200


def synthetic_series(values):
    return [
        MomentRecord(t=t, mean=(0.0,), second=(v,))
        for t, v in enumerate(values)
    ]


class TestRobustness:
    def test_deviation_series_and_agreement_time(self):
        ideal = synthetic_series([0.0, 1.0, 4.0, 9.0, 16.0])
        detuned = synthetic_series([0.0, 1.0, 4.0, 9.2, 17.0])
        deltas = deviation_series(detuned, ideal)
        assert deltas[0] == (1, 0.0)
        assert deltas[2][1] == pytest.approx(0.2 / 9.0)
        assert agreement_time(deltas, threshold=0.01) == 3
        assert agreement_time(deltas, threshold=0.9) == math.inf

    def test_zero_detuning_sentinel(self):
        ideal = synthetic_series([0.0, 1.0, 4.0, 9.0])
        deltas = deviation_series(ideal, ideal)
        assert all(d == 0.0 for _, d in deltas)
        assert agreement_time(deltas) == math.inf

    def test_alignment_required(self):
        ideal = synthetic_series([0.0, 1.0, 4.0])
        shifted_series = [
            MomentRecord(t=rec.t + 1, mean=rec.mean, second=rec.second)
            for rec in ideal
        ]
        with pytest.raises(ValidationError):
            deviation_series(shifted_series, ideal)

    def test_scaling_fit_recovers_slope(self):
        detunings = [1e-3, 5e-4, 1e-4, 5e-5, 1e-5]
        pairs = [(d, 0.63 * d**-0.5) for d in detunings]
        fit = scaling_fit(pairs)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.ci95 < 1e-10
        with pytest.raises(ValidationError):
            scaling_fit(pairs[:2])
        with pytest.raises(ValidationError):
            scaling_fit([(1e-3, math.inf), (1e-4, 10.0), (1e-5, 30.0)])

    def test_robustness_result_assembly(self):
        detunings = [1e-3, 1e-4, 1e-5]
        series = []
        for d in detunings:
            t_d = int(round(0.63 * d**-0.5))
            series.append(
                tuple(
                    (t, 0.0 if t < t_d else 0.02)
                    for t in range(1, t_d + 5)
                )
            )
        result = RobustnessResult.assemble(0.01, detunings, series)
        assert result.agreement_times == tuple(
            float(int(round(0.63 * d**-0.5))) for d in detunings
        )
        assert result.fit is not None
        assert result.fit.slope == pytest.approx(-0.5, abs=0.02)

    def test_engine_detuning_smoke(self):
        pot = fig2_potential()
        exact = ResonancePlan(((1, 1), (1, 2)))
        detuned = ResonancePlan(((1, 1), (1, 2)), (1e-2, 1e-2))
        lat = RotorLattice.for_run(pot, (0, 0), steps=20)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        runs = {}
        for label, plan in (("ideal", exact), ("detuned", detuned)):
            engine = RotorEngine(pot, plan, lat)
            runs[label] = [
                measure_moments(s, t)
                for t, s in engine.trajectory(state, 20)
            ]
        deltas = deviation_series(runs["detuned"], runs["ideal"])
        t_d = agreement_time(deltas)
        assert 1 <= t_d <= 20
        # deviation grows with time before the horizon
        early = [d for _, d in deltas[:3]]
        late = [d for _, d in deltas[-3:]]
        assert max(early) < max(late)
