"""Tests for the resonantly twisted coupled kicked tops."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    block_matrix,
    dense_purity,
    dense_reversal_signs,
    displacement_stats_reference,
    jx_marginals_reference,
    jz_frame_top_run,
    jz_moments_reference,
    product_basis_purity,
    spin_matrices,
    svd_purity,
    twist_then_field_step,
    window_jz_moments,
    window_purity,
)

from kickres.entanglement import BipartitionSpec, _occupied_box
from kickres.errors import ResourceCapError, ValidationError
from kickres.potential import ResonancePlan, SymmetryClass
from kickres.predictor import (
    WavepacketParams,
    predict_moments,
    saturation_time,
    top_params,
)
from kickres.rotor_engine import observe
from kickres.top_engine import (
    FieldTerm,
    TopEngine,
    TopSpec,
    TopState,
    _rotate_axes,
    build_spin_ops,
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


class TestJxEigenbasis:
    """W comes from the three-term recursion, with no LAPACK call; eigh
    is the reference, up to its own choice of column signs."""

    @staticmethod
    def basis(j):
        values, w = TopSpec(1, j, make_plan((1, 1)), ())._jx_eigenbasis
        assert w.dtype == complex and not np.any(w.imag)
        return values, w.real

    @pytest.mark.parametrize("j", [1, 2, 50, 200])
    def test_pinned_to_eigh(self, j):
        values, w = self.basis(j)
        assert np.array_equal(values, np.arange(-j, j + 1))
        _, reference = np.linalg.eigh(build_spin_ops(j)[0].real)
        signs = np.sign((reference * w).sum(axis=0))
        assert np.max(np.abs(reference * signs - w)) <= 1e-13
        # the edge row m = j is positive, which fixes each column's sign
        assert np.all(w[-1] > 0)

    def test_past_the_underflow_of_the_edge_entry(self):
        # the edge entry c_j(+-j) = 2^-j is below the smallest double
        j = 1075
        values, w = self.basis(j)
        assert np.isfinite(w).all()
        assert np.max(np.abs(np.sqrt(np.square(w).sum(axis=0)) - 1)) <= 1e-13
        m = np.arange(-j, j, dtype=float)
        half = 0.5 * np.sqrt(j * (j + 1) - m * (m + 1))[:, None]
        residual = w * -values  # J_x W - W diag(k), J_x tridiagonal
        residual[1:] += half * w[:-1]
        residual[:-1] += half * w[1:]
        assert np.max(np.abs(residual)) <= 1e-12 * j


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

    def test_field_terms_must_be_field_terms(self):
        with pytest.raises(ValidationError, match="is a tuple, not a FieldTerm"):
            TopSpec(
                top_count=1,
                j_tot=3,
                plan=make_plan((1, 2)),
                field_terms=((0.1, (1,)),),
            )

    @pytest.mark.parametrize(
        "coefficient, powers, named",
        [
            ("a", (1,), "coefficient must be a real number, not 'a'"),
            (1j, (1,), "coefficient must be a real number"),
            (None, (1, 0), "coefficient must be a real number"),
            (0.3, 5, "powers must be a sequence, not 5"),
            (0.3, ("x",), "powers must be an integer, not 'x'"),
            # int() truncated these to the powers (1, 0)
            (0.3, (1.5, 0.9), "powers must be an integer, not 1.5"),
            (0.3, (1, True), "powers must be an integer, not True"),
        ],
    )
    def test_field_term_input_errors_name_the_argument(
        self, coefficient, powers, named
    ):
        with pytest.raises(ValidationError, match=re.escape(named)):
            FieldTerm(coefficient, powers)

    def test_field_term_takes_numpy_integer_powers(self):
        term = FieldTerm(0.3, (np.int64(1), np.int32(2)))
        assert term.powers == (1, 2)
        assert all(type(k) is int for k in term.powers)

    def test_field_term_weight(self):
        assert FieldTerm(0.5, (1, 2)).weight(4) == 0.5 * 4.0**-2
        assert FieldTerm(-0.3, (1, 0)).weight(7) == -0.3

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

    @pytest.mark.parametrize("m_values", [(0.6, 0), (0, 1.0), (True, 0)])
    def test_jz_product_rejects_non_integer_m(self, m_values):
        # int() truncated 0.6 to m = 0
        spec = TopSpec(
            top_count=2, j_tot=2, plan=make_plan((1, 1), (1, 2)), field_terms=()
        )
        with pytest.raises(
            ValidationError, match="^m_values must be an integer, not "
        ):
            TopState.jz_product(spec, m_values)

    def test_jz_product_takes_numpy_integer_m(self):
        spec = TopSpec(
            top_count=2, j_tot=2, plan=make_plan((1, 1), (1, 2)), field_terms=()
        )
        state = TopState.jz_product(spec, (np.int64(-2), np.int32(1)))
        assert state.amplitudes[0, 3] == 1.0

    def test_norm_enforced(self):
        spec = TopSpec(
            top_count=1, j_tot=2, plan=make_plan((1, 1)), field_terms=()
        )
        with pytest.raises(ValidationError):
            TopState(spec, np.full(5, 0.7, dtype=complex))

    def test_from_factors_rejects_zero_factor(self):
        # the factor is named before its norm divides it: no NaN, no
        # RuntimeWarning, in the state builder and in top_params alike
        spec = TopSpec(
            top_count=2,
            j_tot=1,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(FieldTerm(0.3, (1, 1)),),
        )
        good = np.array([0, 1, 0])
        for bad in (
            np.zeros(3), np.full(3, np.nan), np.array([np.inf, 0.0, 0.0])
        ):
            for n, factors in enumerate(([bad, good], [good, bad])):
                for build in (TopState.from_factors, top_params):
                    with warnings.catch_warnings(), pytest.raises(
                        ValidationError,
                        match=f"factor {n} has norm .*; need finite and > 0",
                    ):
                        warnings.simplefilter("error")
                        build(spec, factors)

    def test_factor_of_wrong_size_is_named(self):
        spec = TopSpec(
            top_count=2,
            j_tot=1,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(),
        )
        for build in (TopState.from_factors, top_params):
            with pytest.raises(ValidationError, match="factor 1 has size 4"):
                build(spec, [np.array([0, 1, 0]), np.ones(4)])
            with pytest.raises(ValidationError, match="factors needs 2 entries, got 1"):
                build(spec, [np.array([0, 1, 0])])

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

    @pytest.mark.parametrize("ratio", [(1, 2), (3, 2)])
    @pytest.mark.parametrize("j", [1, 2, 5, 50])
    def test_reversal_signs_are_the_closed_form(self, j, ratio):
        # the engine writes one scalar (-1)^j without forming W^T T W;
        # the dense product's reversed diagonal reads that sign throughout
        spec = TopSpec(
            top_count=2, j_tot=j, plan=make_plan((1, 1), ratio),
            field_terms=(),
        )
        engine = TopEngine(spec)
        assert engine._twist_x[1] == ("reverse", None)
        want = dense_reversal_signs(spec, 1)
        assert want.shape == (2 * j + 1,)
        assert set(want) == {engine._twist_signs} == {(-1.0) ** j}

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

    @pytest.mark.parametrize("bad", [2.5, True, "2", -1])
    def test_non_count_steps_rejected(self, bad):
        # 2.5 raised a bare TypeError from range and True ran one step
        spec = TopSpec(
            top_count=1, j_tot=2, plan=make_plan((1, 2)), field_terms=()
        )
        engine = TopEngine(spec)
        state = random_state(spec, 1)
        with pytest.raises(ValidationError, match="steps must be"):
            list(engine.trajectory(state, bad))
        with pytest.raises(ValidationError, match="steps must be"):
            engine.evolve(state, bad)

    def test_state_of_another_shape_rejected(self):
        # a j = 4 state on a j = 3 engine raised numpy's broadcast error
        def pair(j):
            return TopSpec(
                top_count=2,
                j_tot=j,
                plan=make_plan((1, 1), (1, 2)),
                field_terms=(FieldTerm(0.3, (1, 1)),),
            )

        engine = TopEngine(pair(3))
        state = TopState.jz_product(pair(4), (0, 0))
        calls = [
            engine.step,
            engine.measure_jz_moments,
            engine.measure_jx_moments,
            lambda s: list(engine.trajectory(s, 2)),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="does not match"):
                call(state)


FIG7_SPEC = TopSpec(
    top_count=2,
    j_tot=50,
    plan=make_plan((1, 1), (1, 2)),
    field_terms=(
        FieldTerm(1e-4, (1, 0)),
        FieldTerm(0.02, (0, 2)),
        FieldTerm(0.005, (1, 1)),
        FieldTerm(5e-4, (1, 2)),
    ),
)


def assert_jz_moments_match(record, reference, j):
    # <J_z> scales with j and is noise-sized on these runs; <J_z^2> is
    # compared relative to its value
    for n, (mean, second) in enumerate(zip(reference.mean, reference.second)):
        assert abs(record.mean[n] - mean) <= 1e-12 * j
        assert abs(record.second[n] - second) <= 1e-12 * max(second, j)


def assert_matches_jz_frame_oracle(spec, state, steps, part):
    """Amplitudes, J_z moments and purity along the engine's J_x-frame
    trajectory against the J_z-frame stepping in tests/oracles.  Moments
    and purity of the engine-made states come from the J_x frame."""
    engine = TopEngine(spec)
    reference = jz_frame_top_run(engine, state.amplitudes, steps)
    for (t, current), amps in zip(
        engine.trajectory(state, steps), reference
    ):
        assert t == 0 or current._jz is None
        record = engine.measure_jz_moments(current, t)
        purity = top_purity(current, part)
        gap = np.max(np.abs(current.amplitudes - amps))
        assert gap <= 1e-12, f"amplitudes off by {gap:.3g} at t={t}"
        oracle = TopState(spec, amps)
        assert_jz_moments_match(
            record, jz_moments_reference(oracle, t), spec.j_tot
        )
        expected = svd_purity(block_matrix(amps, spec.shape, part.part_a))
        assert abs(purity - expected) <= 1e-12
    assert t == steps


# twist form -> (rational, detuning)
STEP_FORMS = {
    "skip": ((1, 1), 0.0),
    "reverse": ((1, 2), 0.0),
    "dense": ((1, 3), 0.0),
    "detuned": ((1, 2), 0.137),
}
STEP_CASES = [
    (forms, j)
    for j in (5, 20)
    for forms in (
        ("skip", "skip"),
        ("skip", "reverse"),
        ("reverse", "reverse"),
        ("reverse", "dense"),
        ("dense", "reverse"),
        ("detuned", "reverse"),
        ("dense", "detuned"),
    )
] + [
    (("reverse", "reverse", "reverse"), 5),
    (("skip", "reverse", "dense"), 5),
    (("dense", "skip", "reverse"), 5),
    (("reverse", "dense", "reverse"), 5),
    (("reverse", "detuned", "skip"), 20),
    (("detuned", "reverse", "dense"), 20),
    (("dense", "dense", "reverse"), 20),
]


@pytest.mark.parametrize(
    "forms, j", STEP_CASES, ids=["-".join(f) + f"-j{j}" for f, j in STEP_CASES]
)
def test_step_is_bit_equal_to_twist_then_field(forms, j):
    # the one-pass step against the two-pass oracle, kick by kick: the
    # dense twists in axis order, reversals as flips, then one multiply by
    # the field phase times every reversal's signs
    n = len(forms)
    tops = range(n)
    # linear, pair and cubic terms: a field phase that is neither even nor
    # odd under any reversal
    terms = [
        FieldTerm(0.3 + 0.1 * k, tuple(int(i == k) for i in tops))
        for k in tops
    ] + [
        FieldTerm(0.5, tuple(int(i in (k, k + 1)) for i in tops))
        for k in tops[:-1]
    ]
    cubic = tuple(2 * (i == 0) + (i == n - 1) for i in tops)
    terms.append(FieldTerm(0.2, cubic))
    spec = TopSpec(
        top_count=n,
        j_tot=j,
        plan=make_plan(
            *[STEP_FORMS[f][0] for f in forms],
            detunings=[STEP_FORMS[f][1] for f in forms],
        ),
        field_terms=tuple(terms),
    )
    engine = TopEngine(spec)
    expected = [f if f != "detuned" else "dense" for f in forms]
    assert [form for form, _ in engine._twist_x] == expected
    state, _ = random_product(spec, 17 + j)
    oracle = state
    for t in range(1, 41):
        # the public halves, each its own pass, compose to the same bits
        halves = engine.field_rotation(engine.twist(state))
        state = engine.step(state)
        oracle = twist_then_field_step(engine, oracle)
        assert np.array_equal(state._jx, oracle._jx), f"step {t}"
        assert np.array_equal(halves._jx, state._jx), f"step {t}"


class TestJxFramePropagation:
    def test_fig7_model_matches_jz_frame_oracle(self):
        # principal top: twist skipped; secondary top: signed reversal
        state = TopState.jz_product(FIG7_SPEC, (0, 0))
        part = BipartitionSpec(rotor_count=2, part_a=(0,))
        assert_matches_jz_frame_oracle(FIG7_SPEC, state, 200, part)

    def test_dense_twists_match_jz_frame_oracle(self):
        # a 1/3 twist and a detuned 1/2 twist keep the dense W^T T W
        spec = TopSpec(
            top_count=2,
            j_tot=6,
            plan=make_plan((1, 3), (1, 2), detunings=(0.0, 0.3)),
            field_terms=(
                FieldTerm(0.7, (1, 0)),
                FieldTerm(-0.4, (0, 1)),
                FieldTerm(0.25, (1, 1)),
                FieldTerm(0.15, (1, 2)),
            ),
        )
        part = BipartitionSpec(rotor_count=2, part_a=(0,))
        assert_matches_jz_frame_oracle(spec, random_state(spec, 3), 100, part)

    def test_three_tops_with_split_block_match_jz_frame_oracle(self):
        spec = TopSpec(
            top_count=3,
            j_tot=3,
            plan=make_plan((1, 1), (1, 2), (2, 3)),
            field_terms=(
                FieldTerm(0.4, (1, 0, 0)),
                FieldTerm(0.3, (0, 1, 1)),
                FieldTerm(0.5, (1, 0, 2)),
                FieldTerm(-0.2, (1, 1, 1)),
            ),
        )
        part = BipartitionSpec(rotor_count=3, part_a=(0, 2))
        assert_matches_jz_frame_oracle(spec, random_state(spec, 5), 100, part)

    def test_twist_form_follows_the_plan(self):
        cases = [
            ((1, 1), 0.0, "skip"),
            ((2, 1), 0.0, "skip"),
            ((1, 2), 0.0, "reverse"),
            ((3, 2), 0.0, "reverse"),
            ((1, 1), 1e-3, "dense"),
            ((1, 2), 0.3, "dense"),
            ((1, 3), 0.0, "dense"),
            ((1, 4), 0.0, "dense"),
        ]
        spec = TopSpec(
            top_count=len(cases),
            j_tot=1,
            plan=make_plan(
                *[ratio for ratio, _, _ in cases],
                detunings=[delta for _, delta, _ in cases],
            ),
            field_terms=(),
        )
        engine = TopEngine(spec)
        forms = [form for form, _ in engine._twist_x]
        assert forms == [form for _, _, form in cases]
        # the engine's scalar sign is the product of every reversal's
        # dense signs, each of them one value along its axis
        sign = 1.0
        for n, (form, operand) in enumerate(engine._twist_x):
            if form == "reverse":
                assert operand is None
                (axis_sign,) = set(dense_reversal_signs(spec, n))
                sign *= axis_sign
        assert engine._twist_signs == sign

    def test_state_holds_jx_from_construction(self):
        state = TopState.jz_product(FIG7_SPEC, (0, 0))
        _, basis = FIG7_SPEC._jx_eigenbasis
        held = state._jx
        assert np.array_equal(held, _rotate_axes(state.amplitudes, basis.T))
        engine = TopEngine(FIG7_SPEC)
        stepped = engine.step(state)
        assert state._jx is held
        assert stepped._jz is None
        amps = stepped.amplitudes
        assert stepped._jz is None
        assert stepped.amplitudes is not amps
        assert np.array_equal(stepped.amplitudes, amps)
        assert abs(stepped.norm() - 1.0) < 1e-12

    def test_state_owns_its_jz_amplitudes(self):
        # a caller's later write reaches neither frame
        part = BipartitionSpec(rotor_count=2, part_a=(0,))
        amps = np.zeros(FIG7_SPEC.shape, dtype=complex)
        amps[50, 50] = 1.0
        state = TopState(FIG7_SPEC, amps)
        amps[50, 50], amps[0, 0] = 0.0, 1.0
        assert state.amplitudes[50, 50] == 1.0
        assert top_purity(state, part) == 1.0

    def test_reading_amplitudes_changes_no_later_result(self):
        part = BipartitionSpec(rotor_count=2, part_a=(0,))
        engine = TopEngine(FIG7_SPEC)
        state = engine.evolve(TopState.jz_product(FIG7_SPEC, (0, 0)), 20)
        before = (top_purity(state, part), state.norm())
        state.amplitudes
        assert (top_purity(state, part), state.norm()) == before


TWIST_FORMS = {"skip": (1, 1), "reverse": (1, 2), "dense": (1, 3)}


class TestJzMomentsInJxFrame:
    @pytest.mark.parametrize("form", sorted(TWIST_FORMS))
    @pytest.mark.parametrize("j", [1, 2, 12, 50])
    @pytest.mark.parametrize("top_count", [1, 2, 3])
    def test_moments_match_back_rotation_oracle(self, top_count, j, form):
        # a chain of linear and pair terms couples every top
        tops = range(top_count)
        terms = [
            FieldTerm(0.3 + 0.1 * n, tuple(int(k == n) for k in tops))
            for n in tops
        ] + [
            FieldTerm(0.2, tuple(int(k in (n, n + 1)) for k in tops))
            for n in tops[:-1]
        ]
        spec = TopSpec(
            top_count=top_count,
            j_tot=j,
            plan=make_plan(*[TWIST_FORMS[form]] * top_count),
            field_terms=tuple(terms),
        )
        engine = TopEngine(spec)
        assert {f for f, _ in engine._twist_x} == {form}
        # t = 0 holds J_z amplitudes, t = 1 only J_x ones
        for t, state in engine.trajectory(random_state(spec, 7 + j), 1):
            record = engine.measure_jz_moments(state, t)
            assert_jz_moments_match(record, jz_moments_reference(state, t), j)

    @pytest.mark.parametrize("j", [1, 2, 12, 50])
    def test_second_moment_nonnegative_on_jz_eigenstates(self, j):
        spec = TopSpec(
            top_count=2, j_tot=j, plan=make_plan((1, 1), (1, 2)),
            field_terms=(),
        )
        engine = TopEngine(spec)
        for m in sorted({-j, -1, 0, 1, j // 2, j}):
            state = TopState.jz_product(spec, (m, 0))
            record = engine.measure_jz_moments(state)
            # ||J_z psi||^2: exact zeros come out as tiny non-negative
            # roundoff, never below zero
            assert min(record.second) >= 0.0
            assert abs(record.mean[0] - m) <= 1e-12 * j
            assert abs(record.mean[1]) <= 1e-12 * j
            assert abs(record.second[0] - m * m) <= 1e-12 * max(m * m, j)
            assert record.second[1] <= 1e-12 * j

    @pytest.mark.parametrize("j", [1, 2, 12, 50])
    def test_band_matches_closed_form(self, j):
        spec = TopSpec(
            top_count=2, j_tot=j, plan=make_plan((1, 1), (1, 1)),
            field_terms=(),
        )
        engine = TopEngine(spec)
        k = np.arange(-j, j, dtype=float)
        magnitude = 0.5 * np.sqrt(j * (j + 1) - k * (k + 1))
        _, j_z = build_spin_ops(j)
        _, basis = spec._jx_eigenbasis
        rotated = basis.T @ j_z @ basis
        for band in engine._jz_bands:
            for padded in band.T:
                # zero pads at both ends, so a box edge reads no coupling
                assert padded[0] == padded[-1] == 0.0
                column = padded[1:-1]
                assert np.array_equal(np.abs(column), magnitude)
                tridiagonal = np.diag(column, 1) + np.diag(column, -1)
                assert np.max(np.abs(rotated - tridiagonal)) <= 1e-12 * j

    def test_observe_run_never_rotates_back(self):
        engine = TopEngine(FIG7_SPEC)
        part = BipartitionSpec(rotor_count=2, part_a=(0,))
        initial = TopState.jz_product(FIG7_SPEC, (0, 0))
        seen = []

        def purity(state):
            seen.append(state)
            return top_purity(state, part)

        observe(engine, initial, 20, engine.measure_jz_moments, purity)
        assert len(seen) == 21 and seen[0] is initial
        assert all(state._jz is None for state in seen[1:])


def box_steps(state):
    return tuple(cut.step for cut in _occupied_box(state._jx_marginals()))


DETUNED_SPEC = TopSpec(
    top_count=2,
    j_tot=12,
    plan=make_plan((1, 3), (1, 2), detunings=(0.0, 0.3)),
    field_terms=(
        FieldTerm(0.7, (1, 0)),
        FieldTerm(-0.4, (0, 1)),
        FieldTerm(0.25, (1, 1)),
        FieldTerm(0.15, (1, 2)),
    ),
)
THREE_TOP_SPEC = TopSpec(
    top_count=3,
    j_tot=3,
    plan=make_plan((1, 1), (1, 2), (2, 3)),
    field_terms=(
        FieldTerm(0.4, (1, 0, 0)),
        FieldTerm(0.3, (0, 1, 1)),
        FieldTerm(0.5, (1, 0, 2)),
        FieldTerm(-0.2, (1, 1, 1)),
    ),
)
# skip, reverse and dense twists under a field with odd and even powers
MIXED_TWIST_SPEC = TopSpec(
    top_count=3,
    j_tot=5,
    plan=make_plan((1, 1), (1, 2), (1, 3)),
    field_terms=(
        FieldTerm(0.6, (1, 0, 0)),
        FieldTerm(0.3, (0, 1, 1)),
        FieldTerm(-0.5, (1, 1, 1)),
        FieldTerm(0.4, (0, 0, 2)),
        FieldTerm(0.2, (2, 1, 0)),
    ),
)


class TestOccupiedParityBox:
    """Moments and purity over the occupied J_x-frame box.

    Each top's pi-rotation about x, (-1)^k in the J_x frame, commutes with
    every twist (even in J_z) and with the field (diagonal in J_x), so a
    top started at J_z = 0 keeps its j + k odd amplitudes at zero.
    """

    @pytest.mark.parametrize(
        "spec, m_values, steps, block, strides",
        [
            (FIG7_SPEC, (0, 0), 1000, (0,), (2, 2)),
            (FIG7_SPEC, (1, 0), 200, (0,), (None, 2)),
            (DETUNED_SPEC, (0, 0), 200, (1,), (2, 2)),
            (THREE_TOP_SPEC, (0, 0, 0), 200, (0, 2), (2, 2, 2)),
        ],
        ids=["fig7", "fig7-m10", "detuned", "three-tops"],
    )
    def test_pinned_to_the_whole_window_kernels(
        self, spec, m_values, steps, block, strides
    ):
        # bounds from measurement: <J_z^2> 4.4e-16 relative (1e-26
        # absolute where it is roundoff at t = 0), <J_z> 6.4e-14 absolute,
        # purity 5.6e-16
        engine = TopEngine(spec)
        part = BipartitionSpec(rotor_count=spec.top_count, part_a=block)
        initial = TopState.jz_product(spec, m_values)
        for t, state in engine.trajectory(initial, steps):
            record = engine.measure_jz_moments(state, t)
            reference = window_jz_moments(engine, state, t)
            for mine, ref in zip(record.mean, reference.mean):
                assert abs(mine - ref) <= 1e-13
            for mine, ref in zip(record.second, reference.second):
                assert abs(mine - ref) <= 1e-15 * ref + 1e-25
            # against the frame top_purity reads: J_z at t = 0, else J_x
            held = state.amplitudes if t == 0 else state._jx
            purity = top_purity(state, part)
            assert abs(purity - window_purity(held, block)) <= 2e-15
            assert box_steps(state) == strides
            for n, step in enumerate(strides):
                if step == 2:
                    assert record.mean[n] == 0.0
        # the J_z-held start keeps the whole-window product: exactly pure
        assert top_purity(initial, part) == 1.0

    @pytest.mark.parametrize("case", ["j8-pair", "fig7"])
    def test_marginals_pinned_to_the_whole_tensor_kernel(self, case):
        # the shared block kernel squares |a| where tops took re^2 + im^2
        # over the whole tensor: measured within 5.2e-16 relative, down to
        # entries of 2e-34 in fig7's empty parity class
        if case == "fig7":
            spec = FIG7_SPEC
            start = TopState.jz_product(spec, (0, 0))
        else:
            spec = TopSpec(
                top_count=2,
                j_tot=8,
                plan=make_plan((1, 1), (1, 2)),
                field_terms=(
                    FieldTerm(0.3, (1, 0)),
                    FieldTerm(0.6, (1, 1)),
                    FieldTerm(0.8, (1, 2)),
                ),
            )
            start, _ = random_product(spec, 29)
        for _, state in TopEngine(spec).trajectory(start, 20):
            reference = jx_marginals_reference(state)
            for got, ref in zip(state._jx_marginals(), reference, strict=True):
                np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)
            assert state._jx_box() == _occupied_box(reference)

    def test_odd_class_stays_empty_from_the_equator(self):
        engine = TopEngine(MIXED_TWIST_SPEC)
        assert [f for f, _ in engine._twist_x] == ["skip", "reverse", "dense"]
        start = TopState.jz_product(MIXED_TWIST_SPEC, (0, 0, 0))
        for _, state in engine.trajectory(start, 200):
            odd = [m[1::2].sum() for m in state._jx_marginals()]
            assert max(odd) <= 1e-28
        # J_z = 1 on the first top fills both of its classes; the other
        # tops' pi-rotations still commute with the map
        start = TopState.jz_product(MIXED_TWIST_SPEC, (1, 0, 0))
        worst = [0.0, 0.0, 0.0]
        for _, state in engine.trajectory(start, 200):
            odd = [m[1::2].sum() for m in state._jx_marginals()]
            worst = [max(w, o) for w, o in zip(worst, odd)]
        assert worst[0] > 0.1
        assert max(worst[1:]) <= 1e-28


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
        params = top_params(spec, [equator])
        # D = -i[J_z, a J_x] = a J_y, odd under the pi rotation
        assert abs(params.alpha_plus[0]) < 1e-12
        assert abs(params.alpha_minus[0]) < 1e-12
        assert abs(params.lambda_plus[0]) < 1e-12
        expected = a * a * j * (j + 1) / 2.0
        assert abs(params.lambda_minus[0] - expected) < 1e-10
        assert abs(params.kappa[0]) < 1e-12

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
        params = top_params(spec, [equator])
        expected = a * a * j * (j + 1) / 2.0
        assert abs(params.lambda_plus[0] - expected) < 1e-10
        assert abs(params.lambda_minus[0]) < 1e-12

    def test_matches_dense_commutator_oracle(self):
        self._check_dense_oracle(5, ((1, 1), (1, 2)), (
            (0.21, (1, 0)),
            (0.83, (0, 1)),
            (0.34, (1, 1)),
            (0.15, (1, 2)),
            (-0.08, (2, 1)),
        ))

    def test_matches_dense_commutator_oracle_three_tops(self):
        self._check_dense_oracle(4, ((1, 2), (1, 1), (1, 2)), (
            (0.4, (1, 0, 0)),
            (-0.5, (0, 0, 1)),
            (0.27, (1, 1, 0)),
            (-0.31, (0, 1, 1)),
            (0.12, (1, 0, 2)),
            (0.09, (1, 1, 1)),
            (0.18, (0, 2, 1)),
        ))

    @staticmethod
    def _check_dense_oracle(j, rationals, terms):
        """Every top's row against D+- built from dense kron operators."""
        dim = 2 * j + 1
        count = len(rationals)
        spec = TopSpec(
            top_count=count,
            j_tot=j,
            plan=make_plan(*rationals),
            field_terms=tuple(FieldTerm(c, p) for c, p in terms),
        )
        rng = np.random.default_rng(29)
        m = np.arange(-j, j + 1)
        factors = []
        for _ in range(count):
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            # taper toward the equator so the gate admits the state
            raw *= np.exp(-((m / 1.2) ** 2))
            factors.append(raw / np.linalg.norm(raw))
        params = top_params(spec, factors)

        ox, _, oz = spin_matrices(j)
        eye = np.eye(dim)

        def on_tops(ops):
            out = np.ones((1, 1))
            for op in ops:
                out = np.kron(out, op)
            return out

        # the pi rotation of the secondary tops (denominator 2)
        flip = on_tops([
            np.diag(np.exp(-1j * np.pi * m)) if q == 2 else eye
            for _, q in rationals
        ])
        psi = on_tops([f[:, None] for f in factors])[:, 0]

        def expval(op):
            return float(np.real(np.vdot(psi, op @ psi)))

        for top in range(count):
            jz = on_tops([oz if n == top else eye for n in range(count)])
            h_target = sum(
                c / j ** (sum(p) - 1) * on_tops([
                    np.linalg.matrix_power(ox, k) for k in p
                ])
                for c, p in terms
                if p[top]
            )
            h_flipped = flip @ h_target @ flip.conj().T
            h_plus = (h_target + h_flipped) / 2.0
            h_minus = (h_target - h_flipped) / 2.0
            d_plus = -1j * (jz @ h_plus - h_plus @ jz)
            # the twist acts first, so top_params reports D_- negated
            d_minus = 1j * (jz @ h_minus - h_minus @ jz)
            assert abs(params.alpha_plus[top] - expval(d_plus)) < 1e-10
            assert abs(params.alpha_minus[top] - expval(d_minus)) < 1e-10
            assert abs(
                params.lambda_plus[top] - expval(d_plus @ d_plus)
            ) < 1e-10
            assert abs(
                params.lambda_minus[top] - expval(d_minus @ d_minus)
            ) < 1e-10
            cross = expval(d_plus @ d_minus + d_minus @ d_plus) / 2.0
            assert abs(params.kappa[top] - cross) < 1e-10

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
            top_params(spec, [pole])

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
            top_params(spec, [cat])

    @pytest.mark.parametrize(
        "rationals, powers, expected",
        [
            (((1, 1),), [(1,)], ("SYMMETRIC",)),
            (((1, 2),), [(1,)], ("ANTISYMMETRIC",)),
            (((1, 2),), [(1,), (2,)], ("ASYMMETRIC",)),
            (((1, 2),), [], ("ZERO",)),
            (((1, 1), (1, 1)), [(1, 0), (1, 1)], ("SYMMETRIC", "SYMMETRIC")),
            (
                ((1, 2), (1, 2)),
                [(1, 0), (0, 1)],
                ("ANTISYMMETRIC", "ANTISYMMETRIC"),
            ),
            (
                ((1, 1), (1, 2)),
                [(1, 0), (1, 1)],
                ("ASYMMETRIC", "ANTISYMMETRIC"),
            ),
            (((1, 1), (1, 2)), [], ("ZERO", "ZERO")),
        ],
    )
    def test_symmetry_column_follows_parity_blocks(
        self, rationals, powers, expected
    ):
        j = 4
        spec = TopSpec(
            top_count=len(rationals),
            j_tot=j,
            plan=make_plan(*rationals),
            field_terms=tuple(FieldTerm(0.3, p) for p in powers),
        )
        equator = np.zeros(2 * j + 1)
        equator[j] = 1.0
        params = top_params(spec, [equator] * spec.top_count)
        assert params.symmetry == tuple(SymmetryClass[e] for e in expected)

    def test_stats_sanity_validation(self):
        with pytest.raises(ValidationError):
            WavepacketParams(
                alpha_plus=(1.0,),
                alpha_minus=(0.0,),
                lambda_plus=(0.1,),
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
                kappa=(-1.0,),
                symmetry=(SymmetryClass.ASYMMETRIC,),
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
        params = top_params(spec, factors)
        assert params.lambda_plus[0] > 0.0
        assert params.lambda_minus[0] > 0.0
        assert abs(params.kappa[0]) < 1e-12

        state = TopState.from_factors(spec, factors)
        records = [
            engine.measure_jz_moments(s, t)
            for t, s in engine.trajectory(state, 25)
        ]
        series = displacement_stats_reference(records)
        horizon = 0.3 * saturation_time(spec, params.lambda_plus[0])
        checked = 0
        for rec in series[1:]:
            if rec.t > horizon:
                break
            displacement, spread = predict_moments(params, rec.t)
            d_pred, s_pred = displacement[0], spread[0]
            assert abs(rec.spread[0] - s_pred) < 0.05 * max(s_pred, 0.05)
            assert abs(rec.displacement[0] - d_pred) < 0.05 * max(
                np.sqrt(s_pred), 0.05
            )
            checked += 1
        assert checked >= 20

    def test_odd_step_offsets_enter_with_minus_sign(self):
        # a cross moment kappa != 0 distinguishes sigma^2 =
        # t^2 lam+ - 2 t <D+ D-> + lam- from the opposite-sign variant;
        # top_params reports kappa = -<D+ D-> so predict_moments applies
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
        params = top_params(spec, [factor0, factor1])
        assert params.kappa[0] < -1e-3

        state = TopState.from_factors(spec, [factor0, factor1])
        records = [
            engine.measure_jz_moments(s, t)
            for t, s in engine.trajectory(state, 9)
        ]
        series = displacement_stats_reference(records)
        for rec in series[1:]:
            if rec.t % 2 == 0:
                continue
            _, spread = predict_moments(params, rec.t)
            law = spread[0]
            flipped = law - 4 * rec.t * params.kappa[0]
            assert abs(rec.spread[0] - law) < 0.25 * abs(flipped - law)

    def test_even_odd_structure_of_prediction(self):
        # a top with <D-> = 0.5 and <{D+, D-}>/2 = 0.1, in the signs
        # top_params reports
        params = WavepacketParams(
            alpha_plus=(0.2,),
            alpha_minus=(-0.5,),
            lambda_plus=(0.3,),
            lambda_minus=(0.9,),
            kappa=(-0.1,),
            symmetry=(SymmetryClass.ASYMMETRIC,),
        )
        (d4,), (s4,) = predict_moments(params, 4)
        assert d4 == pytest.approx(0.8)
        assert s4 == pytest.approx(16 * 0.3)
        (d5,), (s5,) = predict_moments(params, 5)
        assert d5 == pytest.approx(5 * 0.2 - 0.5)
        assert s5 == pytest.approx(25 * 0.3 - 10 * 0.1 + 0.9)
        with pytest.raises(ValidationError):
            predict_moments(params, -1)

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

    def test_purity_pinned_to_oracles_on_evolved_pair(self):
        spec = TopSpec(
            top_count=2,
            j_tot=8,
            plan=make_plan((1, 1), (1, 2)),
            field_terms=(
                FieldTerm(0.3, (1, 0)),
                FieldTerm(0.6, (1, 1)),
                FieldTerm(0.8, (1, 2)),
            ),
        )
        engine = TopEngine(spec)
        state, _ = random_product(spec, 29)
        for t, current in engine.trajectory(state, 5):
            psi = current.amplitudes.reshape(-1)
            for block in [(0,), (1,)]:
                part = BipartitionSpec(rotor_count=2, part_a=block)
                mine = top_purity(current, part)
                matrix = block_matrix(psi, spec.shape, block)
                assert abs(mine - svd_purity(matrix)) <= 1e-12
                assert abs(mine - dense_purity(psi, spec.shape, block)) <= 1e-12
        assert t == 5 and 1.0 - mine > 1e-3

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
        # 25 amplitudes fit the cap of 30, the 5 x 5 purity workspace
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
    params = top_params(spec, [equator, equator])
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
    assert abs(params.lambda_plus[0] - expected_plus) < 1e-12
    assert abs(params.lambda_minus[0] - expected_minus) < 1e-12
    assert abs(params.kappa[0]) < 1e-14
    assert abs(params.alpha_plus[0]) < 1e-14
    assert abs(params.alpha_minus[0]) < 1e-14


def test_observe_matches_a_hand_loop_on_a_fig7_style_run():
    # configs/fig7.yaml's model, cut to 40 steps
    spec = TopSpec(
        top_count=2,
        j_tot=50,
        plan=make_plan((1, 1), (1, 2)),
        field_terms=(
            FieldTerm(1e-4, (1, 0)),
            FieldTerm(0.02, (0, 2)),
            FieldTerm(0.005, (1, 1)),
            FieldTerm(5e-4, (1, 2)),
        ),
    )
    part = BipartitionSpec(rotor_count=2, part_a=(0,))
    engine = TopEngine(spec)
    records, ref_purity = [], []
    for t, current in engine.trajectory(TopState.jz_product(spec, (0, 0)), 40):
        records.append(engine.measure_jz_moments(current, t))
        ref_purity.append(top_purity(current, part))
    engine = TopEngine(spec)
    series, purities = observe(
        engine,
        TopState.jz_product(spec, (0, 0)),
        40,
        engine.measure_jz_moments,
        lambda current: top_purity(current, part),
    )
    assert repr(series) == repr(displacement_stats_reference(records))
    assert [p.hex() for p in purities] == [p.hex() for p in ref_purity]
    assert 1.0 - purities[-1] > 1e-3
