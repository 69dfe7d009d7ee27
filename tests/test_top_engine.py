"""Tests for the resonantly twisted coupled kicked tops."""

import numpy as np
import pytest
import scipy.linalg

from oracles import dense_purity, spin_matrices

from kickres.entanglement import BipartitionSpec, product_basis_purity
from kickres.errors import ResourceCapError, ValidationError
from kickres.potential import ResonancePlan
from kickres.rotor_engine import displacement_stats
from kickres.top_engine import (
    FieldTerm,
    TopEngine,
    TopKickStats,
    TopSpec,
    TopState,
    build_spin_ops,
    predict_jz_moments,
    saturation_time,
    top_params,
    top_purity,
)


def make_plan(*rationals, detunings=None):
    if detunings is None:
        detunings = (0.0,) * len(rationals)
    return ResonancePlan(rationals=tuple(rationals), detunings=tuple(detunings))


def random_product(spec, seed):
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(spec.top_count):
        vec = rng.normal(size=spec.dimension) + 1j * rng.normal(
            size=spec.dimension
        )
        factors.append(vec / np.linalg.norm(vec))
    return TopState.from_factors(spec, factors), factors


def random_state(spec, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    amps /= np.linalg.norm(amps)
    return TopState(spec, amps)


class TestSpinOps:
    def test_spin_one_matrices(self):
        j_x, j_z = build_spin_ops(1)
        assert np.allclose(j_z, np.diag([-1.0, 0.0, 1.0]))
        s = 1.0 / np.sqrt(2.0)
        expected = np.array(
            [[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex
        )
        assert np.allclose(j_x, expected, atol=1e-14)

    def test_algebra_against_oracle(self):
        for j in (1, 2, 5, 9):
            j_x, j_z = build_spin_ops(j)
            ox, oy, oz = spin_matrices(j)
            assert np.allclose(j_x, ox, atol=1e-12)
            assert np.allclose(j_z, oz, atol=1e-12)
            # [J_x, J_z] = -i J_y
            comm = j_x @ j_z - j_z @ j_x
            assert np.allclose(comm, -1j * oy, atol=1e-12)
            casimir = j_x @ j_x + oy @ oy + j_z @ j_z
            assert np.allclose(
                casimir, j * (j + 1) * np.eye(2 * j + 1), atol=1e-11
            )

    def test_hermitian_traceless(self):
        j_x, j_z = build_spin_ops(7)
        assert np.max(np.abs(j_x - j_x.conj().T)) < 1e-12
        assert abs(np.trace(j_x)) < 1e-12
        values = np.linalg.eigvalsh(j_x)
        assert np.allclose(values, np.arange(-7, 8), atol=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            build_spin_ops(0)


class TestSpecValidation:
    def test_half_integer_spin_rejected(self):
        with pytest.raises(ValidationError):
            TopSpec(
                top_count=1,
                j_tot=2.5,
                plan=make_plan((1, 2)),
                field_terms=(FieldTerm(0.1, (1,)),),
            )

    def test_bool_spin_rejected(self):
        with pytest.raises(ValidationError):
            TopSpec(
                top_count=1,
                j_tot=True,
                plan=make_plan((1, 2)),
                field_terms=(),
            )

    def test_plan_count_mismatch(self):
        with pytest.raises(ValidationError):
            TopSpec(
                top_count=2,
                j_tot=3,
                plan=make_plan((1, 1)),
                field_terms=(),
            )

    def test_constant_field_term_rejected(self):
        with pytest.raises(ValidationError):
            FieldTerm(0.5, (0, 0))

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            FieldTerm(0.5, (1, -1))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            FieldTerm(0.0, (1, 0))

    def test_element_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            TopSpec(
                top_count=2,
                j_tot=40,
                plan=make_plan((1, 1), (1, 2)),
                field_terms=(),
                element_cap=1000,
            )

    def test_powers_length_mismatch(self):
        with pytest.raises(ValidationError):
            TopSpec(
                top_count=2,
                j_tot=3,
                plan=make_plan((1, 1), (1, 2)),
                field_terms=(FieldTerm(0.1, (1,)),),
            )


class TestStateConstruction:
    def test_jz_product_placement(self):
        spec = TopSpec(
            top_count=2,
            j_tot=2,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(),
        )
        state = TopState.jz_product(spec, (-2, 1))
        assert state.amplitudes[0, 3] == 1.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0

    def test_out_of_range_m_rejected(self):
        spec = TopSpec(
            top_count=1, j_tot=2, plan=make_plan((1, 1)), field_terms=()
        )
        with pytest.raises(ValidationError):
            TopState.jz_product(spec, (3,))

    def test_norm_enforced(self):
        spec = TopSpec(
            top_count=1, j_tot=2, plan=make_plan((1, 1)), field_terms=()
        )
        with pytest.raises(ValidationError):
            TopState(spec, np.full(5, 0.7, dtype=complex))

    def test_from_factors_normalizes(self):
        spec = TopSpec(
            top_count=2,
            j_tot=1,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(),
        )
        state = TopState.from_factors(
            spec, [np.array([2.0, 0.0, 0.0]), np.array([0.0, 3.0, 3.0])]
        )
        assert abs(state.norm() - 1.0) < 1e-12


class TestTwistReduction:
    def test_principal_twist_with_no_field_is_identity(self):
        spec = TopSpec(
            top_count=2,
            j_tot=4,
            plan=make_plan((1, 1), (2, 1)),
            field_terms=(),
        )
        engine = TopEngine(spec)
        state = random_state(spec, 11)
        stepped = engine.step(state)
        assert np.max(np.abs(stepped.amplitudes - state.amplitudes)) < 1e-12

    def test_secondary_twist_is_pi_rotation(self):
        spec = TopSpec(
            top_count=1, j_tot=5, plan=make_plan((1, 2)), field_terms=()
        )
        engine = TopEngine(spec)
        state = random_state(spec, 7)
        twisted = engine.twist(state)
        m = np.arange(-5, 6)
        expected = np.exp(-1j * np.pi * m) * state.amplitudes
        assert np.max(np.abs(twisted.amplitudes - expected)) < 1e-12
        again = engine.twist(twisted)
        assert np.max(np.abs(again.amplitudes - state.amplitudes)) < 1e-12

    def test_detuned_twist_matches_direct_phase(self):
        j = 6
        delta = 0.137
        spec = TopSpec(
            top_count=1,
            j_tot=j,
            plan=make_plan((1, 2), detunings=(delta,)),
            field_terms=(),
        )
        engine = TopEngine(spec)
        state = random_state(spec, 3)
        twisted = engine.twist(state)
        m = np.arange(-j, j + 1)
        beta = 4.0 * np.pi * j * 0.5 + delta
        direct = np.exp(-1j * beta * m * m / (2.0 * j)) * state.amplitudes
        assert np.max(np.abs(twisted.amplitudes - direct)) < 1e-10


class TestDenseOracle:
    def test_step_matches_dense_propagator(self):
        j = 3
        dim = 2 * j + 1
        plan = make_plan((1, 1), (1, 2), detunings=(0.3, -0.2))
        terms = (
            FieldTerm(0.7, (1, 0)),
            FieldTerm(-0.4, (0, 1)),
            FieldTerm(0.25, (1, 1)),
            FieldTerm(0.15, (1, 2)),
        )
        spec = TopSpec(top_count=2, j_tot=j, plan=plan, field_terms=terms)
        engine = TopEngine(spec)

        ox, _, oz = spin_matrices(j)
        eye = np.eye(dim)
        jx1, jx2 = np.kron(ox, eye), np.kron(eye, ox)
        jz1, jz2 = np.kron(oz, eye), np.kron(eye, oz)
        h_field = (
            0.7 * jx1
            - 0.4 * jx2
            + 0.25 / j * (jx1 @ jx2)
            + 0.15 / j**2 * (jx1 @ jx2 @ jx2)
        )
        beta1 = 4.0 * np.pi * j + 0.3
        beta2 = 2.0 * np.pi * j - 0.2
        u_kick = scipy.linalg.expm(
            -1j * (beta1 * jz1 @ jz1 + beta2 * jz2 @ jz2) / (2.0 * j)
        )
        u_dense = scipy.linalg.expm(-1j * h_field) @ u_kick

        state = random_state(spec, 21)
        vec = state.amplitudes.reshape(-1)
        for t, stepped in engine.trajectory(state, 5):
            assert (
                np.max(np.abs(stepped.amplitudes.reshape(-1) - vec)) < 1e-10
            ), f"dense propagator mismatch at t={t}"
            vec = u_dense @ vec

    def test_unitarity_over_many_steps(self):
        spec = TopSpec(
            top_count=2,
            j_tot=10,
            plan=make_plan((1, 2), (1, 2), detunings=(1e-3, 2e-3)),
            field_terms=(
                FieldTerm(0.3, (1, 0)),
                FieldTerm(0.2, (2, 1)),
                FieldTerm(0.05, (1, 2)),
            ),
        )
        engine = TopEngine(spec)
        state = random_state(spec, 5)
        final = engine.evolve(state, 40)
        assert abs(final.norm() - 1.0) < 1e-12

    def test_negative_steps_rejected(self):
        spec = TopSpec(
            top_count=1, j_tot=2, plan=make_plan((1, 2)), field_terms=()
        )
        engine = TopEngine(spec)
        with pytest.raises(ValidationError):
            list(engine.trajectory(random_state(spec, 1), -1))


class TestConservation:
    def test_even_steps_conserve_jx_moments(self):
        spec = TopSpec(
            top_count=2,
            j_tot=9,
            plan=make_plan((1, 2), (1, 2)),
            field_terms=(
                FieldTerm(0.4, (1, 0)),
                FieldTerm(0.3, (0, 1)),
                FieldTerm(0.2, (1, 1)),
            ),
        )
        engine = TopEngine(spec)
        state, _ = random_product(spec, 17)
        ref = engine.measure_jx_moments(state)
        for t, current in engine.trajectory(state, 20):
            if t == 0 or t % 2 == 1:
                continue
            rec = engine.measure_jx_moments(current, t)
            for n in range(2):
                assert abs(rec.mean[n] - ref.mean[n]) < 1e-10
                assert abs(rec.second[n] - ref.second[n]) < 1e-10


class TestKickStats:
    def test_linear_field_on_secondary_top(self):
        j = 8
        a = 0.37
        spec = TopSpec(
            top_count=1,
            j_tot=j,
            plan=make_plan((1, 2)),
            field_terms=(FieldTerm(a, (1,)),),
        )
        equator = np.zeros(2 * j + 1)
        equator[j] = 1.0
        stats = top_params(spec, 0, [equator])
        # D = -i[J_z, a J_x] = a J_y, odd under the pi rotation
        assert abs(stats.alpha_plus) < 1e-12
        assert abs(stats.alpha_minus) < 1e-12
        assert abs(stats.lambda_plus) < 1e-12
        expected = a * a * j * (j + 1) / 2.0
        assert abs(stats.lambda_minus - expected) < 1e-10
        assert abs(stats.kappa) < 1e-12

    def test_linear_field_on_principal_top(self):
        j = 8
        a = 0.37
        spec = TopSpec(
            top_count=1,
            j_tot=j,
            plan=make_plan((1, 1)),
            field_terms=(FieldTerm(a, (1,)),),
        )
        equator = np.zeros(2 * j + 1)
        equator[j] = 1.0
        stats = top_params(spec, 0, [equator])
        expected = a * a * j * (j + 1) / 2.0
        assert abs(stats.lambda_plus - expected) < 1e-10
        assert abs(stats.lambda_minus) < 1e-12

    def test_matches_dense_commutator_oracle(self):
        j = 5
        dim = 2 * j + 1
        spec = TopSpec(
            top_count=2,
            j_tot=j,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(
                FieldTerm(0.21, (1, 0)),
                FieldTerm(0.83, (0, 1)),
                FieldTerm(0.34, (1, 1)),
                FieldTerm(0.15, (1, 2)),
                FieldTerm(-0.08, (2, 1)),
            ),
        )
        rng = np.random.default_rng(29)
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        m = np.arange(-j, j + 1)
        # taper toward the equator so the gate admits the state
        raw *= np.exp(-((m / 1.5) ** 2))
        factor0 = raw / np.linalg.norm(raw)
        factor1 = np.zeros(dim, dtype=complex)
        factor1[j] = 1.0
        stats = top_params(spec, 0, [factor0, factor1])

        ox, _, oz = spin_matrices(j)
        eye = np.eye(dim)
        jx1, jx2 = np.kron(ox, eye), np.kron(eye, ox)
        jz1 = np.kron(oz, eye)
        # terms acting on top 0, split by the pi rotation of top 1
        h_target = (
            0.21 * jx1
            + 0.34 / j * (jx1 @ jx2)
            + 0.15 / j**2 * (jx1 @ jx2 @ jx2)
            - 0.08 / j**2 * (jx1 @ jx1 @ jx2)
        )
        flip = np.kron(eye, np.diag(np.exp(-1j * np.pi * m)))
        h_flipped = flip @ h_target @ flip.conj().T
        h_plus = (h_target + h_flipped) / 2.0
        h_minus = (h_target - h_flipped) / 2.0
        d_plus = -1j * (jz1 @ h_plus - h_plus @ jz1)
        d_minus = -1j * (jz1 @ h_minus - h_minus @ jz1)
        psi = np.kron(factor0, factor1)

        def expval(op):
            return float(np.real(np.vdot(psi, op @ psi)))

        assert abs(stats.alpha_plus - expval(d_plus)) < 1e-10
        assert abs(stats.alpha_minus - expval(d_minus)) < 1e-10
        assert abs(stats.lambda_plus - expval(d_plus @ d_plus)) < 1e-10
        assert abs(stats.lambda_minus - expval(d_minus @ d_minus)) < 1e-10
        cross = expval(d_plus @ d_minus + d_minus @ d_plus) / 2.0
        assert abs(stats.kappa - cross) < 1e-10

    def test_equator_gate_rejects_polar_state(self):
        j = 10
        spec = TopSpec(
            top_count=1,
            j_tot=j,
            plan=make_plan((1, 2)),
            field_terms=(FieldTerm(0.1, (1,)),),
        )
        pole = np.zeros(2 * j + 1)
        pole[-1] = 1.0
        with pytest.raises(ValidationError):
            top_params(spec, 0, [pole])

    def test_equator_gate_rejects_wide_spread(self):
        j = 10
        spec = TopSpec(
            top_count=1,
            j_tot=j,
            plan=make_plan((1, 2)),
            field_terms=(FieldTerm(0.1, (1,)),),
        )
        cat = np.zeros(2 * j + 1)
        cat[0] = cat[-1] = 1.0 / np.sqrt(2.0)
        with pytest.raises(ValidationError):
            top_params(spec, 0, [cat])

    def test_stats_sanity_validation(self):
        with pytest.raises(ValidationError):
            TopKickStats(
                alpha_plus=1.0,
                alpha_minus=0.0,
                lambda_plus=0.1,
                lambda_minus=0.0,
                kappa=0.0,
            )
        with pytest.raises(ValidationError):
            TopKickStats(
                alpha_plus=0.0,
                alpha_minus=0.0,
                lambda_plus=0.1,
                lambda_minus=0.1,
                kappa=1.0,
            )


class TestMomentLaws:
    def test_predicted_moments_track_simulation(self):
        j = 40
        dim = 2 * j + 1
        spec = TopSpec(
            top_count=2,
            j_tot=j,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(
                FieldTerm(0.006, (1, 0)),
                FieldTerm(0.05, (1, 1)),
            ),
        )
        engine = TopEngine(spec)
        factors = [np.zeros(dim, dtype=complex) for _ in range(2)]
        factors[0][j] = factors[1][j] = 1.0
        stats = top_params(spec, 0, factors)
        assert stats.lambda_plus > 0.0
        assert stats.lambda_minus > 0.0
        assert abs(stats.kappa) < 1e-12

        state = TopState.from_factors(spec, factors)
        records = [
            engine.measure_jz_moments(s, t)
            for t, s in engine.trajectory(state, 25)
        ]
        series = displacement_stats(records)
        horizon = 0.3 * saturation_time(spec, stats.lambda_plus)
        checked = 0
        for rec in series[1:]:
            if rec.t > horizon:
                break
            d_pred, s_pred = predict_jz_moments(stats, rec.t)
            assert abs(rec.spread[0] - s_pred) < 0.05 * max(s_pred, 0.05)
            assert abs(rec.displacement[0] - d_pred) < 0.05 * max(
                np.sqrt(s_pred), 0.05
            )
            checked += 1
        assert checked >= 20

    def test_odd_step_offsets_enter_with_minus_sign(self):
        # a cross moment kappa != 0 distinguishes sigma^2 =
        # t^2 lam+ - 2 t kappa + lam- from the opposite-sign variant
        j = 16
        dim = 2 * j + 1
        a, b = 0.01, 0.02
        spec = TopSpec(
            top_count=2,
            j_tot=j,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(
                FieldTerm(a, (1, 0)),
                FieldTerm(b, (1, 1)),
            ),
        )
        engine = TopEngine(spec)
        j_x, _ = build_spin_ops(j)
        _, vectors = np.linalg.eigh(j_x)
        factor0 = np.zeros(dim, dtype=complex)
        factor0[j] = 1.0
        factor1 = vectors[:, -1].astype(complex)  # <J_x> = +j
        stats = top_params(spec, 0, [factor0, factor1])
        assert stats.kappa > 1e-3

        state = TopState.from_factors(spec, [factor0, factor1])
        records = [
            engine.measure_jz_moments(s, t)
            for t, s in engine.trajectory(state, 9)
        ]
        series = displacement_stats(records)
        for rec in series[1:]:
            if rec.t % 2 == 0:
                continue
            t = rec.t
            minus = t * t * stats.lambda_plus - 2 * t * stats.kappa + (
                stats.lambda_minus
            )
            plus = t * t * stats.lambda_plus + 2 * t * stats.kappa + (
                stats.lambda_minus
            )
            assert abs(rec.spread[0] - minus) < 0.25 * abs(plus - minus)

    def test_even_odd_structure_of_prediction(self):
        stats = TopKickStats(
            alpha_plus=0.2,
            alpha_minus=0.5,
            lambda_plus=0.3,
            lambda_minus=0.9,
            kappa=0.1,
        )
        d4, s4 = predict_jz_moments(stats, 4)
        assert d4 == pytest.approx(0.8)
        assert s4 == pytest.approx(16 * 0.3)
        d5, s5 = predict_jz_moments(stats, 5)
        assert d5 == pytest.approx(5 * 0.2 - 0.5)
        assert s5 == pytest.approx(25 * 0.3 - 10 * 0.1 + 0.9)
        with pytest.raises(ValidationError):
            predict_jz_moments(stats, -1)

    def test_saturation_time(self):
        spec = TopSpec(
            top_count=1, j_tot=50, plan=make_plan((1, 2)), field_terms=()
        )
        assert saturation_time(spec, 0.04) == pytest.approx(250.0)
        with pytest.raises(ValidationError):
            saturation_time(spec, 0.0)


class TestEntanglement:
    def test_purity_matches_dense_partial_trace(self):
        spec = TopSpec(
            top_count=3,
            j_tot=2,
            plan=make_plan((1, 1), (1, 2), (1, 2)),
            field_terms=(),
        )
        state = random_state(spec, 41)
        part = BipartitionSpec(rotor_count=3, part_a=(0, 2))
        mine = top_purity(state, part)
        oracle = dense_purity(
            state.amplitudes.reshape(-1), spec.shape, (0, 2)
        )
        assert abs(mine - oracle) < 1e-12
        swapped = top_purity(state, part.swapped())
        assert abs(mine - swapped) < 1e-12

    def test_partition_count_mismatch(self):
        spec = TopSpec(
            top_count=2,
            j_tot=2,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(),
        )
        with pytest.raises(ValidationError):
            top_purity(
                random_state(spec, 1),
                BipartitionSpec(rotor_count=3, part_a=(0,)),
            )

    def test_purity_workspace_respects_element_cap(self):
        # 25 amplitudes fit the cap of 30, the 5 x 5 SVD workspace
        # (25 + 2 * 5 * 5 = 75 elements) does not
        spec = TopSpec(
            top_count=2,
            j_tot=2,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(),
            element_cap=30,
        )
        state = TopState.jz_product(spec, (0, 0))
        with pytest.raises(ResourceCapError, match="workspace 75"):
            top_purity(state, BipartitionSpec(rotor_count=2, part_a=(0,)))

    def test_odd_parity_coupling_keeps_even_steps_pure(self):
        spec = TopSpec(
            top_count=2,
            j_tot=8,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(
                FieldTerm(0.3, (1, 0)),
                FieldTerm(0.6, (1, 1)),
            ),
        )
        engine = TopEngine(spec)
        state, _ = random_product(spec, 13)
        part = BipartitionSpec(rotor_count=2, part_a=(0,))
        for t, current in engine.trajectory(state, 8):
            s_lin = 1.0 - top_purity(current, part)
            if t % 2 == 0:
                assert s_lin < 1e-10
            else:
                assert s_lin > 1e-4

    def test_even_parity_coupling_matches_eigenbasis_closed_form(self):
        j = 6
        dim = 2 * j + 1
        spec = TopSpec(
            top_count=2,
            j_tot=j,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(
                FieldTerm(0.3, (1, 0)),
                FieldTerm(0.8, (1, 2)),
            ),
        )
        engine = TopEngine(spec)
        state, factors = random_product(spec, 57)
        part = BipartitionSpec(rotor_count=2, part_a=(0,))

        j_x, _ = build_spin_ops(j)
        values, vectors = np.linalg.eigh(j_x)
        phi = vectors.conj().T @ factors[0]
        chi = vectors.conj().T @ factors[1]
        energies = 0.3 * values[:, None] * np.ones(
            dim
        ) + 0.8 / j**2 * values[:, None] * values[None, :] ** 2
        for t, current in engine.trajectory(state, 10):
            if t % 2 == 1:
                continue
            closed = product_basis_purity(phi, chi, energies, t)
            assert abs(top_purity(current, part) - closed) < 1e-10


def test_fig_style_parity_split_example():
    # field with one linear term per top, one bilinear and one
    # linear-quadratic cross term; top 1 principal, top 2 secondary
    j = 12
    dim = 2 * j + 1
    spec = TopSpec(
        top_count=2,
        j_tot=j,
        plan=make_plan((1, 1), (1, 2)),
        field_terms=(
            FieldTerm(0.0001, (1, 0)),
            FieldTerm(0.02, (0, 1)),
            FieldTerm(0.005, (1, 1)),
            FieldTerm(0.0005, (1, 2)),
        ),
    )
    equator = np.zeros(dim, dtype=complex)
    equator[j] = 1.0
    stats = top_params(spec, 0, [equator, equator])
    jy_sq = j * (j + 1) / 2.0
    jx_sq = j * (j + 1) / 2.0
    jx_fourth = float(
        np.real(
            np.vdot(
                equator,
                np.linalg.matrix_power(build_spin_ops(j)[0], 4) @ equator,
            )
        )
    )
    expected_plus = (
        0.0001**2 * jy_sq
        + 2 * 0.0001 * (0.0005 / j**2) * jy_sq * jx_sq
        + (0.0005 / j**2) ** 2 * jy_sq * jx_fourth
    )
    expected_minus = (0.005 / j) ** 2 * jy_sq * jx_sq
    assert abs(stats.lambda_plus - expected_plus) < 1e-12
    assert abs(stats.lambda_minus - expected_minus) < 1e-12
    assert abs(stats.kappa) < 1e-14
    assert abs(stats.alpha_plus) < 1e-14
    assert abs(stats.alpha_minus) < 1e-14
