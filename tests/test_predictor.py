import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from kickres.entanglement import BipartitionSpec, schmidt_purity
from kickres.errors import ValidationError
from kickres.potential import (
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    SymmetryClass,
    cosine_term,
    decompose,
    split_interaction,
)
from kickres.predictor import (
    SAMPLE_BLOCK,
    EpsilonMoments,
    ProductAngleDensity,
    RobustnessResult,
    WavepacketParams,
    _eps_blocks,
    _t_quantile,
    agreement_time,
    classify_regimes,
    crossover_time,
    deviation_series,
    epsilon_moments,
    epsilon_sample,
    predict_moments,
    scaling_fit,
    slin_exact,
    top_params,
    wavepacket_params,
)
from kickres.rotor_engine import (
    MomentRecord,
    RotorEngine,
    RotorLattice,
    RotorState,
    _coherent_packet,
    measure_moments,
)
from kickres.top_engine import FieldTerm, TopSpec, build_spin_ops

from oracles import (
    S_ODD_TENTH,
    S_ODD_UNIT,
    displacement_stats_reference,
    epsilon_moments_reference,
    epsilon_sample_reference,
    epsilon_second_moments_reference,
    linregress_fit,
    slin_curve_reference,
    slin_exact_reference,
    t_quantile,
    uniform_cos_moment,
    wavepacket_reference,
)


# slin_exact's rotated rows against slin_curve_reference, 20k samples,
# t <= 200: the worst differences over random_case seeds 0-23, uniform
# and coherent, were 6.7e-16 on value and 4.3e-18 on std_error
ROTATION_VALUE_TOL = 2e-15
ROTATION_ERROR_TOL = 2e-17
# the blocked pass against the full-array oracle: block means merged
# pairwise round differently from np.mean over the whole draw.  The worst
# differences over fig1, fig2, a coherent start and random_case seeds
# 0-23 at 40 000 samples were 2.2e-16 on a value, 5.6e-17 on a standard
# error
PASS_TOL = 1e-15


def pass_and_oracle(v_i, shift_set, density, part, count, seed, times=()):
    """The blocked pass over `times` and the full-array oracle's draw."""
    return (
        epsilon_sample(v_i, shift_set, density, part, count, seed, times),
        epsilon_sample_reference(v_i, shift_set, density, part, count, seed),
    )


def assert_close_to_reference(sample, got, want, value_tol, error_tol):
    """slin_exact's (t, value, std_error) rows against the oracle's.

    A row that the pass rotates from the step one stride earlier (the
    pass always reduces t = 1) is compared within the bounds; every other
    row's value within PASS_TOL and its std_error within error_tol.
    """
    stride = 1 if sample.v_minus.is_zero else 2
    reduced = {t for t, _, _ in want} | {1}
    for row, (t, value, std_error) in zip(got, want, strict=True):
        assert row[0] == t
        rotated = not sample.v_plus.is_zero and t - stride in reduced
        assert abs(row[1] - value) <= (
            value_tol if rotated else PASS_TOL
        ), t
        assert abs(row[2] - std_error) <= error_tol, t


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


def coherent_factor(theta0, p0, width):
    quanta = np.arange(math.floor(p0) - 8, math.ceil(p0) + 9)
    return _coherent_packet(quanta, theta0, p0, width)


def random_case(seed, coherent):
    """(potential, plan, bipartition, density) on 2-3 rotors.

    Random terms with modes in -2..2 and random phases, plus one coupling
    of rotors 0 and 1 so the interaction is never empty; resonance orders
    1 and 2 at random; uniform or per-rotor coherent angles.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    terms = [FourierTerm(rng.normal(), (1, -1) + (0,) * (n - 2), 0.3)]
    for _ in range(int(rng.integers(2, 6))):
        modes = tuple(int(m) for m in rng.integers(-2, 3, size=n))
        if any(modes):
            terms.append(
                FourierTerm(rng.normal(), modes, rng.uniform(0.0, 2 * np.pi))
            )
    plan = ResonancePlan(tuple((1, int(s)) for s in rng.integers(1, 3, n)))
    part = BipartitionSpec(n, (0,) if n == 2 else (0, 2))
    density = ProductAngleDensity.uniform(n)
    if coherent:
        density = ProductAngleDensity.from_factors(
            [
                coherent_factor(
                    rng.uniform(-np.pi, np.pi),
                    rng.uniform(-2, 2),
                    rng.uniform(0.4, 1.5),
                )
                for _ in range(n)
            ]
        )
    return PotentialSpec(n, tuple(terms)), plan, part, density


class TestExactKernels:
    # the cosine-series moments against the per-term sine and per-block
    # atom kernels they replaced; near-zero values are compared at 1e-13
    # of the quantity's scale (the kick bandwidth, squared for second
    # moments) since their relative error is not meaningful
    @pytest.mark.parametrize("coherent", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_wavepacket_params_match_oracle(self, seed, coherent):
        pot, plan, _, density = random_case(seed, coherent)
        wp = wavepacket_params(pot, plan.shift_set, density)
        want = wavepacket_reference(pot, plan.shift_set, density)
        got = (
            wp.alpha_plus,
            wp.alpha_minus,
            wp.lambda_plus,
            wp.lambda_minus,
            wp.kappa,
        )
        for field, (values, expected) in enumerate(zip(got, want)):
            power = 1 if field < 2 else 2
            for j, (value, ref) in enumerate(zip(values, expected)):
                scale = pot.kick_bandwidth(j) ** power
                assert value == pytest.approx(
                    ref, rel=1e-13, abs=1e-13 * scale
                ), (field, j)

    @pytest.mark.parametrize("coherent", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_epsilon_moments_match_oracle(self, seed, coherent):
        pot, plan, part, density = random_case(seed, coherent)
        _, _, v_i = split_interaction(pot, part.part_a)
        sample = epsilon_sample(
            v_i, plan.shift_set, density, part, 10_000, seed
        )
        em = epsilon_moments(sample)
        scale = (4 * sum(abs(t.coefficient) for t in v_i.terms)) ** 2
        got = (em.eps_plus_sq, em.eps_minus_sq, em.eps_cross)
        for value, ref in zip(got, epsilon_second_moments_reference(sample)):
            assert value == pytest.approx(ref, rel=1e-13, abs=1e-13 * scale)


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_factor_sampling_is_unbiased(self, n):
        # an off-centre, narrow packet: a sampler that maps each grid
        # cell's mass onto the cell's left edge shifts <exp(i n theta)> by
        # about n dtheta / 2 and misses chi(n) by 8-10 standard errors here
        dens = ProductAngleDensity.from_factors(
            [coherent_factor(-2.0, 1.2, 3.0)]
        )
        draws = dens.sample(np.random.default_rng(21), 4_000_000)[:, 0]
        want = dens.char(0, n)
        root = math.sqrt(draws.size)
        for part, exact in ((np.cos, want.real), (np.sin, want.imag)):
            values = part(n * draws)
            gap = abs(float(np.mean(values)) - exact)
            assert gap < 4 * float(np.std(values)) / root

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

    @pytest.mark.parametrize(
        "field", ["alpha_plus", "alpha_minus", "lambda_plus",
                  "lambda_minus", "kappa"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_statistics_rejected(self, field, bad):
        # every invariant comparison is False for NaN
        values = dict.fromkeys(
            ("alpha_plus", "alpha_minus", "lambda_plus", "lambda_minus",
             "kappa"),
            (0.0,),
        )
        values[field] = (bad,)
        with pytest.raises(ValidationError, match="must be finite"):
            WavepacketParams(**values, symmetry=(SymmetryClass.ZERO,))

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_top_params_rejects_a_factor_without_finite_norm(self, bad):
        # normalizing such a factor turns its moments into NaN
        j = 3
        spec = TopSpec(
            2, j, ResonancePlan(((1, 1), (1, 2))), (FieldTerm(0.3, (1, 1)),)
        )
        equator = np.zeros(spec.dimension)
        equator[j] = 1.0
        broken = np.full(spec.dimension, bad)
        for factors in ([broken, equator], [equator, broken]):
            with pytest.raises(ValidationError, match="need finite and > 0"):
                top_params(spec, factors)

    def test_tolerance_scales_with_the_squares(self):
        # top 2 sits in a J_x eigenstate, so top 1's D_- is a multiple
        # of its D_+ and kappa^2 = lambda_+ lambda_- holds exactly; with
        # lambda_+ ~ 10^3 the roundoff exceeds an absolute 1e-12
        j = 50
        spec = TopSpec(
            2,
            j,
            ResonancePlan(((1, 1), (1, 2))),
            (FieldTerm(1.0, (1, 0)), FieldTerm(1.7, (1, 1))),
        )
        equator = np.zeros(spec.dimension, dtype=complex)
        equator[j] = 1.0
        _, vectors = np.linalg.eigh(build_spin_ops(j)[0])
        params = top_params(spec, [equator, vectors[:, -2]])
        bound = params.lambda_plus[0] * params.lambda_minus[0]
        assert params.lambda_plus[0] > 1e3
        assert abs(params.kappa[0] ** 2 - bound) <= 1e-12 * bound
        kappa = -(1.0 + 1e-6) * math.sqrt(bound)
        with pytest.raises(ValidationError, match="Cauchy-Schwarz"):
            dataclasses.replace(params, kappa=(kappa, params.kappa[1]))


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

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "2"])
    def test_non_integer_steps_rejected(self, bad):
        # slin_exact's step check: 2.5 gave the even law at t = 2.5 and
        # True counted as step 1
        wp = wavepacket_params(fig1_potential(), PLAN_MIXED.shift_set)
        with pytest.raises(ValidationError, match="integers"):
            predict_moments(wp, bad)

    def test_agreement_with_engine(self):
        pot = fig1_potential()
        wp = wavepacket_params(pot, PLAN_MIXED.shift_set)
        lat = RotorLattice.for_run(pot, (0, 0), steps=60)
        engine = RotorEngine(pot, PLAN_MIXED, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        series = [
            measure_moments(s, t) for t, s in engine.trajectory(state, 60)
        ]
        stats = displacement_stats_reference(series)
        for rec in stats:
            displacement, spread = predict_moments(wp, rec.t)
            for j in range(2):
                assert rec.displacement[j] == pytest.approx(
                    displacement[j], abs=1e-8
                )
                assert rec.spread[j] == pytest.approx(
                    spread[j], abs=2e-7, rel=1e-8
                )


class TestEpsilonSample:
    def test_sample_is_read_only(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 20_000, 3, (0, 1, 2)
        )
        with pytest.raises(TypeError):
            sample.stats["eps_minus"] = (0.0, 0.0)
        with pytest.raises(TypeError):
            sample.rows[0, 1] = (0.0, 0.0)
        with pytest.raises(AttributeError):
            sample.rows = {}

    def test_parity_parts_and_sizes(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 20_000, 3, range(9)
        )
        assert sample.v_plus.is_zero and not sample.v_minus.is_zero
        assert sample.sample_count == 20_000
        for name in ("eps_plus", "eps_plus_sq", "eps_cross"):
            assert sample.stats[name] == (0.0, 0.0)
        # eps_plus == 0: nine steps reduce to the even and the odd row
        assert set(sample.rows) == {(0, 0), (0, 1)}

    def test_moments_and_spreads_match_full_draw(self):
        # the blocked pass against np.mean and np.std over the whole draw
        _, _, v_i = split_interaction(fig2_potential(True), (0,))
        sample, full = pass_and_oracle(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 30_000, 8
        )
        em = epsilon_moments(sample)
        plus, minus = full.eps_plus, full.eps_minus
        root = math.sqrt(30_000)
        cos_eps = np.cos(plus + minus)
        pins = (
            (em.s_odd, float(1.0 - np.mean(cos_eps))),
            (em.eps_plus_mean, float(np.mean(plus))),
            (em.eps_minus_mean, float(np.mean(minus))),
            (em.std_errors["s_odd"], float(np.std(cos_eps)) / root),
            (em.std_errors["eps_plus_mean"], float(np.std(plus)) / root),
            (em.std_errors["eps_minus_mean"], float(np.std(minus)) / root),
        )
        for got, want in pins:
            assert abs(got - want) <= PASS_TOL

    @pytest.mark.parametrize("bad", [2e5, "20000", True, 20_000.0])
    def test_non_integer_sample_count_rejected(self, bad):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        with pytest.raises(ValidationError, match="sample_count"):
            epsilon_sample(v_i, PLAN_MIXED.shift_set, UNIFORM, PART, bad, 1)


def blocked_pass_cases():
    """(id, interaction, shift set, density, bipartition, seed)."""
    cases = []
    for name, potential, plan in (
        ("fig1", fig1_potential(), PLAN_MIXED),
        ("fig2", fig2_potential(), PLAN_BOTH),
    ):
        _, _, v_i = split_interaction(potential, (0,))
        cases.append((name, v_i, plan.shift_set, UNIFORM, PART, 12345))
    _, _, v_i = split_interaction(fig2_potential(True), (0,))
    coherent = ProductAngleDensity.from_factors(
        [coherent_factor(0.4, 0.3, 0.7), coherent_factor(-1, 1, 1)]
    )
    cases.append(("coherent", v_i, PLAN_BOTH.shift_set, coherent, PART, 3))
    for seed in range(8):
        for flag in (False, True):
            pot, plan, part, density = random_case(seed, flag)
            _, _, v_i = split_interaction(pot, part.part_a)
            cases.append(
                (f"random{seed}-{int(flag)}", v_i, plan.shift_set, density,
                 part, seed)
            )
    return cases


class TestBlockedPass:
    # the pass draws the full-array oracle's per-sample values block by
    # block and merges the blocks' moments; 40 000 samples are two whole
    # blocks and a partial one
    COUNT = 40_000
    TIMES = range(201)

    @pytest.mark.parametrize(
        "case", blocked_pass_cases(), ids=lambda case: case[0]
    )
    def test_matches_full_array_oracle(self, case):
        _, v_i, shift, density, part, seed = case
        assert self.COUNT % SAMPLE_BLOCK
        v_plus, v_minus = decompose(v_i, shift)
        blocks = list(
            _eps_blocks(v_plus, v_minus, density, part, self.COUNT, seed)
        )
        sample, full = pass_and_oracle(
            v_i, shift, density, part, self.COUNT, seed, self.TIMES
        )
        for got, want in zip(zip(*blocks), (full.eps_plus, full.eps_minus)):
            assert np.concatenate(got).tobytes() == want.tobytes()

        em = epsilon_moments(sample)
        want = epsilon_moments_reference(full)
        for name in ("eps_plus_sq", "eps_minus_sq", "eps_cross", "norm"):
            assert getattr(em, name) == getattr(want, name)
        for name in ("s_odd", "eps_plus_mean", "eps_minus_mean"):
            assert abs(getattr(em, name) - getattr(want, name)) <= PASS_TOL
        assert em.std_errors.keys() == want.std_errors.keys()
        for name, value in em.std_errors.items():
            assert abs(value - want.std_errors[name]) <= PASS_TOL, name

        curve = slin_exact(sample, self.TIMES)
        for got, ref in zip(
            curve, slin_exact_reference(full, self.TIMES), strict=True
        ):
            assert got.t == ref.t
            assert abs(got.value - ref.value) <= PASS_TOL, got.t
            assert abs(got.std_error - ref.std_error) <= PASS_TOL, got.t
        assert (curve[1].value, curve[1].std_error) == (
            em.s_odd,
            em.std_errors["s_odd"],
        )

    @pytest.mark.parametrize(
        "case",
        [c for c in blocked_pass_cases() if c[0] in ("fig2", "coherent")],
        ids=lambda case: case[0],
    )
    def test_draw_does_not_depend_on_block_size(self, case, monkeypatch):
        # each copy reads the rows of its own child stream in order, so
        # 1 000-row blocks give the same per-sample values as the default
        # and only the merge order of the block moments differs
        _, v_i, shift, density, part, seed = case
        v_plus, v_minus = decompose(v_i, shift)
        got = []
        for block in (SAMPLE_BLOCK, 1_000):
            monkeypatch.setattr("kickres.predictor.SAMPLE_BLOCK", block)
            blocks = _eps_blocks(
                v_plus, v_minus, density, part, self.COUNT, seed
            )
            got.append(
                (
                    [np.concatenate(eps).tobytes() for eps in zip(*blocks)],
                    epsilon_sample(
                        v_i, shift, density, part, self.COUNT, seed,
                        self.TIMES,
                    ),
                )
            )
        (eps, sample), (eps_small, sample_small) = got
        assert eps == eps_small
        for table in ("stats", "rows"):
            want = getattr(sample, table)
            have = getattr(sample_small, table)
            assert want.keys() == have.keys()
            for key, pair in want.items():
                for x, y in zip(pair, have[key], strict=True):
                    assert abs(x - y) <= PASS_TOL, (table, key)

    def test_memory_does_not_grow_with_sample_count(self):
        # tracemalloc peak of the pass: ten times the draws may add less
        # than a one-block pass peaks at
        _, _, v_i = split_interaction(fig2_potential(True), (0,))

        def peak(count):
            tracemalloc.start()
            try:
                epsilon_sample(
                    v_i, PLAN_BOTH.shift_set, UNIFORM, PART, count, 1,
                    range(101),
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = peak(SAMPLE_BLOCK)
        assert peak(400_000) - peak(40_000) < one_block


class TestEpsilonMoments:
    def test_symmetric_coupling_both_secondary(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 50_000, 7
        )
        em = epsilon_moments(sample)
        assert em.eps_plus_sq == pytest.approx(0.02, abs=1e-12)
        assert em.eps_minus_sq == pytest.approx(0.0, abs=1e-12)
        assert em.eps_cross == pytest.approx(0.0, abs=1e-12)
        assert em.norm == pytest.approx(math.sqrt(0.02), abs=1e-12)

    def test_antisymmetric_coupling_single_secondary(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        scaled = PotentialSpec(
            2, (cosine_term(0.7, (1, -1)),)
        )
        sample = epsilon_sample(
            scaled, PLAN_MIXED.shift_set, UNIFORM, PART, 50_000, 7
        )
        em = epsilon_moments(sample)
        assert em.eps_plus_sq == pytest.approx(0.0, abs=1e-12)
        assert em.eps_minus_sq == pytest.approx(
            2 * 0.7**2, abs=1e-12
        )
        # full-strength variant straight from the figure-1 interaction
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 100_000, 11
        )
        em_unit = epsilon_moments(sample)
        assert em_unit.eps_minus_sq == pytest.approx(2.0, abs=1e-12)

    def test_s_odd_matches_bessel_oracle(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 200_000, 21
        )
        em = epsilon_moments(sample)
        assert abs(em.s_odd - S_ODD_UNIT) < 3 * em.std_errors["s_odd"]
        assert abs(em.s_odd - 0.58) < 0.02

    def test_first_moments_vanish(self):
        _, _, v_i = split_interaction(fig2_potential(True), (0,))
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 100_000, 3
        )
        em = epsilon_moments(sample)
        assert abs(em.eps_plus_mean) < 4 * em.std_errors["eps_plus_mean"]
        assert abs(em.eps_minus_mean) < 4 * em.std_errors["eps_minus_mean"]

    def test_coherent_density_matches_draw_and_oracle(self):
        # a non-uniform rotor 0 weights the four blocks unevenly and makes
        # the cross moment nonzero; the exact moments still agree with the
        # same draw's sample means
        _, _, v_i = split_interaction(fig2_potential(True), (0,))
        density = ProductAngleDensity.from_factors(
            [coherent_factor(0.4, 0.0, 0.7), None]
        )
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, density, PART, 200_000, 13
        )
        em = epsilon_moments(sample)
        for name in ("eps_plus_sq", "eps_minus_sq", "eps_cross"):
            drawn, _ = sample.stats[name]
            exact = getattr(em, name)
            assert abs(exact - drawn) < 4 * em.std_errors[name]
        assert abs(em.eps_cross) > 10 * em.std_errors["eps_cross"]
        assert (em.eps_plus_sq, em.eps_minus_sq, em.eps_cross) == (
            pytest.approx(epsilon_second_moments_reference(sample), rel=1e-13)
        )

    def test_sample_floor(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        with pytest.raises(ValidationError):
            epsilon_sample(
                v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 9_999, 1
            )

    def test_empty_interaction_rejected(self):
        empty = PotentialSpec(2, ())
        with pytest.raises(ValidationError):
            epsilon_sample(
                empty, PLAN_MIXED.shift_set, UNIFORM, PART, 50_000, 1
            )


class TestSlinExact:
    def test_antisymmetric_even_steps_vanish(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        times = (0, 2, 6)
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 50_000, 5, times
        )
        for est in slin_exact(sample, times):
            assert est.value == pytest.approx(0.0, abs=1e-14)
            assert est.std_error == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetric_odd_steps_constant(self):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 50_000, 5
        )
        estimates = slin_exact(sample, (1, 3, 11))
        values = [est.value for est in estimates]
        assert values[0] == values[1] == values[2]
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 400_000, 17
        )
        (est,) = slin_exact(sample, (1,))
        assert abs(est.value - S_ODD_UNIT) < 3 * est.std_error

    def test_symmetric_small_t_quadratic(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        times = (1, 2, 4)
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 200_000, 9, times
        )
        for est in slin_exact(sample, times):
            t = est.t
            assert abs(est.value - 0.01 * t * t) / (0.01 * t * t) < 0.1

    def test_symmetric_saturation_band(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        times = (142, 143, 200)  # ||eps|| t > 20
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 100_000, 13, times
        )
        for est in slin_exact(sample, times):
            assert 0.9 <= est.value <= 1.0

    def test_monte_carlo_matches_bessel_series(self):
        # single-term coupling over uniform angles admits an exact
        # quartic Bessel sum for <cos(t eps)>
        v_i = PotentialSpec(2, (cosine_term(0.1, (1, -1)),))
        shift = PLAN_BOTH.shift_set
        times = (1, 3, 7)
        sample = epsilon_sample(
            v_i, shift, UNIFORM, PART, 400_000, 31, times
        )
        for est in slin_exact(sample, times):
            exact = 1.0 - uniform_cos_moment(0.1, est.t)
            assert abs(est.value - exact) < 3 * est.std_error

    def test_short_time_remainder_is_quartic(self):
        # exact closed form: S_lin(t) = 1 - sum_n J_n(xi t)^4, so the
        # remainder against (eps^2/2) t^2 must scale like t^4
        v_i = PotentialSpec(2, (cosine_term(0.1, (1, -1)),))
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 50_000, 2
        )
        em = epsilon_moments(sample)
        residuals = [
            abs((1.0 - uniform_cos_moment(0.1, t)) - 0.5 * em.eps_sq * t**2)
            for t in (1, 2)
        ]
        assert 14.0 < residuals[1] / residuals[0] < 18.0
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 400_000, 43
        )
        (est,) = slin_exact(sample, (1,))
        assert abs(est.value - (1.0 - uniform_cos_moment(0.1, 1))) < (
            3 * est.std_error
        )

    @pytest.mark.parametrize(
        "potential, plan",
        [
            (fig1_potential, PLAN_MIXED),  # eps_plus == 0
            (fig2_potential, PLAN_BOTH),  # eps_minus == 0
            (lambda: fig2_potential(True), PLAN_BOTH),  # neither
        ],
        ids=["antisymmetric", "symmetric", "mixed"],
    )
    def test_row_reuse_matches_per_step_reference(self, potential, plan):
        _, _, v_i = split_interaction(potential(), (0,))
        times = (0, 1, 2, 3, 4, 7, 8, 3, 0, 30, 31, 12)
        sample, full = pass_and_oracle(
            v_i, plan.shift_set, UNIFORM, PART, 20_000, 6, times
        )
        got = [
            (est.t, est.value, est.std_error)
            for est in slin_exact(sample, times)
        ]
        want = slin_curve_reference(full, times)
        assert got[3] == got[7] and got[0] == got[8]
        assert_close_to_reference(
            sample, got, want, ROTATION_VALUE_TOL, ROTATION_ERROR_TOL
        )

    def test_generator_times_are_read_once(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 20_000, 4,
            (t for t in range(5)),
        )
        from_tuple = slin_exact(sample, tuple(range(5)))
        from_generator = slin_exact(sample, (t for t in range(5)))
        assert from_generator == from_tuple
        assert [est.t for est in from_generator] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("bad", [3.5, True, -1, "2"])
    def test_non_integer_or_negative_steps_rejected(self, bad):
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 20_000, 4
        )
        with pytest.raises(ValidationError):
            slin_exact(sample, (0, 1, bad))
        with pytest.raises(ValidationError):
            epsilon_sample(
                v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 20_000, 4,
                (0, 1, bad),
            )

    def test_step_outside_the_pass_rejected(self):
        # a symmetric coupling has one row per step: only the steps the
        # pass reduced, and t = 1, can be read
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 20_000, 4, (0, 2)
        )
        assert [est.t for est in slin_exact(sample, (2, 1, 0))] == [2, 1, 0]
        with pytest.raises(ValidationError, match="step 3 "):
            slin_exact(sample, (0, 3))

    def test_crossover_time(self):
        _, _, v_i = split_interaction(fig2_potential(), (0,))
        sample = epsilon_sample(
            v_i, PLAN_BOTH.shift_set, UNIFORM, PART, 50_000, 7
        )
        em = epsilon_moments(sample)
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
            sample = epsilon_sample(
                v_i, PLAN_MIXED.shift_set, UNIFORM, PART, 200_000, t, (t,)
            )
            (est,) = slin_exact(sample, (t,))
            band = max(3 * est.std_error, 1e-10)
            assert abs(s_lin - est.value) <= band


class TestSlinRotation:
    # the pass rotates exp(i(t eps_plus + p eps_minus)) along each parity
    # chain; the per-step cos loop over the full draw is the oracle
    @pytest.mark.parametrize("coherent", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_curve_matches_per_step_reference(self, seed, coherent):
        pot, plan, part, density = random_case(seed, coherent)
        _, _, v_i = split_interaction(pot, part.part_a)
        times = range(201)
        sample, full = pass_and_oracle(
            v_i, plan.shift_set, density, part, 20_000, seed, times
        )
        got = [
            (est.t, est.value, est.std_error)
            for est in slin_exact(sample, times)
        ]
        want = slin_curve_reference(full, times)
        assert_close_to_reference(
            sample, got, want, ROTATION_VALUE_TOL, ROTATION_ERROR_TOL
        )
        em = epsilon_moments(sample)
        assert got[1][1:] == (em.s_odd, em.std_errors["s_odd"])

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_unordered_times(self, seed):
        # gaps, repeats and shuffled order: a step whose chain
        # predecessor is not reduced gets a fresh cos
        pot, plan, part, density = random_case(seed, seed % 2 == 1)
        _, _, v_i = split_interaction(pot, part.part_a)
        rng = np.random.default_rng(seed)
        times = [int(t) for t in rng.choice(120, size=70)]
        sample, full = pass_and_oracle(
            v_i, plan.shift_set, density, part, 20_000, seed, times
        )
        got = [
            (est.t, est.value, est.std_error)
            for est in slin_exact(sample, times)
        ]
        assert_close_to_reference(
            sample,
            got,
            slin_curve_reference(full, times),
            ROTATION_VALUE_TOL,
            ROTATION_ERROR_TOL,
        )

    @pytest.mark.parametrize("coherent", [False, True])
    def test_eps_plus_zero_curve_is_exact(self, coherent):
        # no rotation: the curve is the even and the odd row, each
        # within PASS_TOL of the per-step cos over the full draw
        _, _, v_i = split_interaction(fig1_potential(), (0,))
        density = UNIFORM
        if coherent:
            density = ProductAngleDensity.from_factors(
                [coherent_factor(0.4, 0.3, 0.7), coherent_factor(-1, 1, 1)]
            )
        times = range(201)
        sample, full = pass_and_oracle(
            v_i, PLAN_MIXED.shift_set, density, PART, 20_000, 3, times
        )
        assert sample.v_plus.is_zero
        got = [
            (est.t, est.value, est.std_error)
            for est in slin_exact(sample, times)
        ]
        assert len(set(row[1:] for row in got)) == 2
        for row, want in zip(got, slin_curve_reference(full, times)):
            assert row[0] == want[0]
            assert abs(row[1] - want[1]) <= PASS_TOL
            assert abs(row[2] - want[2]) <= ROTATION_ERROR_TOL

    def test_long_curve(self):
        # roundoff grows along a chain; the oracle's own argument t eps_plus
        # also rounds, by up to half an ulp of |t eps_plus| ~ 10^4
        pot, plan, part, density = random_case(3, False)
        _, _, v_i = split_interaction(pot, part.part_a)
        sample, full = pass_and_oracle(
            v_i, plan.shift_set, density, part, 10_000, 3, range(10_001)
        )
        assert not sample.v_plus.is_zero
        curve = slin_exact(sample, range(10_001))
        times = [*range(0, 10_001, 50), *range(9_990, 10_001)]
        for t, value, std_error in slin_curve_reference(full, times):
            assert abs(curve[t].value - value) <= 1e-13, t
            assert abs(curve[t].std_error - std_error) <= 1e-15, t


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
        with pytest.raises(ValidationError):
            scaling_fit([(1e-3, 20.0), (1e-3, 21.0), (1e-3, 22.0)])

    def test_scaling_fit_matches_linregress(self):
        rng = np.random.default_rng(3)
        # scattered points: on a near-exact power law linregress's
        # (1 - r^2) form of the stderr loses digits to cancellation
        for n in (3, 4, 7):
            detunings = 10.0 ** rng.uniform(-5.0, -2.0, size=n)
            times = 0.63 * detunings**-0.5 * rng.uniform(0.7, 1.4, size=n)
            fit = scaling_fit(list(zip(detunings, times)))
            ref = linregress_fit(np.log10(detunings), np.log10(times))
            assert fit.points == n
            got = (fit.slope, fit.intercept, fit.stderr, fit.ci95)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_t_quantile_matches_scipy(self):
        for df in range(1, 61):
            for p in (0.975, 0.6, 0.995):
                assert _t_quantile(p, df) == pytest.approx(
                    t_quantile(p, df), rel=1e-12
                )

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
