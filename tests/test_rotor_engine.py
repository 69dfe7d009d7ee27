"""Engine checks: unitarity, kick oracles, closed-form vs generic stepping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kickres import (
    PotentialSpec,
    ResonancePlan,
    ResourceCapError,
    TruncationError,
    ValidationError,
    cosine_term,
)
from kickres.rotor_engine import (
    MomentRecord,
    RotorEngine,
    RotorLattice,
    RotorState,
    displacement_stats,
    measure_moments,
)
from oracles import kick_matrix_quadrature, kick_variance


def fig1_potential():
    return PotentialSpec(
        2,
        (
            cosine_term(0.1, (1, 0)),
            cosine_term(0.2, (0, 1)),
            cosine_term(1.0, (1, -1)),
        ),
    )


def fig2_potential():
    return PotentialSpec(
        2,
        (
            cosine_term(2.0, (1, 0)),
            cosine_term(3.0, (0, 1)),
            cosine_term(0.1, (1, -1)),
        ),
    )


def random_state(lattice, seed):
    rng = np.random.default_rng(seed)
    amps = np.zeros(lattice.shape, dtype=complex)
    # concentrate support well inside the window
    inner = tuple(slice(m // 2 - 3, m // 2 + 4) for m in lattice.shape)
    block = rng.normal(size=amps[inner].shape) + 1j * rng.normal(
        size=amps[inner].shape
    )
    amps[inner] = block
    amps /= np.linalg.norm(amps.ravel())
    return RotorState(lattice, amps)


class TestLattice:
    def test_for_run_padding(self):
        lat = RotorLattice.for_run(fig1_potential(), (0, 0), steps=10)
        # bandwidths are 1.1 and 1.2
        assert lat.windows[0] == (-27, 27)
        assert lat.windows[1] == (-28, 28)

    def test_rejects_tiny_window(self):
        with pytest.raises(ValidationError):
            RotorLattice(((0, 2),))

    def test_element_cap(self):
        with pytest.raises(ResourceCapError):
            RotorLattice(((-5000, 5000), (-5000, 5000)), element_cap=10**6)

    def test_momenta_axis(self):
        lat = RotorLattice(((-3, 3), (1, 6)))
        assert lat.shape == (7, 6)
        assert lat.momenta(1)[0] == 1


class TestStates:
    def test_eigenstate_moments(self):
        lat = RotorLattice(((-5, 5), (-5, 5)))
        state = RotorState.momentum_eigenstate(lat, (3, -2))
        rec = measure_moments(state)
        assert rec.mean == (3.0, -2.0)
        assert rec.second == (9.0, 4.0)
        assert state.norm() == 1.0

    def test_eigenstate_outside_window(self):
        lat = RotorLattice(((-5, 5),))
        with pytest.raises(ValidationError):
            RotorState.momentum_eigenstate(lat, (9,))

    def test_norm_enforced(self):
        lat = RotorLattice(((-3, 3),))
        with pytest.raises(ValidationError):
            RotorState(lat, np.ones(7, dtype=complex))

    def test_coherent_narrow_width_approaches_eigenstate(self):
        lat = RotorLattice(((-8, 8),))
        coh = RotorState.coherent_product(lat, ((0.4, 3.0),), width=0.05)
        eig = RotorState.momentum_eigenstate(lat, (3,))
        overlap = abs(np.vdot(eig.amplitudes, coh.amplitudes)) ** 2
        assert overlap > 0.999

    def test_coherent_symmetric_center(self):
        lat = RotorLattice(((-30, 30),))
        coh = RotorState.coherent_product(lat, ((0.7, 0.0),), width=2.0)
        rec = measure_moments(coh)
        assert abs(rec.mean[0]) < 1e-12
        l = lat.momenta(0).astype(float)
        weights = np.exp(-(l**2) / (2.0 * 4.0))
        expected = float(np.dot(l * l, weights) / weights.sum())
        assert rec.second[0] == pytest.approx(expected, abs=1e-10)

    def test_coherent_needs_room(self):
        lat = RotorLattice(((-5, 5),))
        with pytest.raises(ValidationError):
            RotorState.coherent_product(lat, ((0.0, 0.0),), width=2.0)


class TestKickAndFree:
    def test_single_kick_bessel_variance(self):
        k = 1.5
        pot = PotentialSpec(1, (cosine_term(k, (1,)),))
        lat = RotorLattice.for_run(pot, (0,), steps=1, margin=24)
        engine = RotorEngine(pot, ResonancePlan(((1, 1),)), lat)
        state = engine.kick(RotorState.momentum_eigenstate(lat, (0,)))
        rec = measure_moments(state)
        assert rec.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert rec.second[0] == pytest.approx(kick_variance(k), abs=1e-10)
        assert rec.second[0] == pytest.approx(k * k / 2.0, abs=1e-10)

    def test_kick_matches_quadrature_matrix(self):
        k = 0.8
        pot = PotentialSpec(1, (cosine_term(k, (1,)),))
        lat = RotorLattice(((-14, 14),))
        engine = RotorEngine(pot, ResonancePlan(((1, 1),)), lat)
        state = random_state(lat, 11)
        got = engine.kick(state).amplitudes
        matrix = kick_matrix_quadrature(
            lambda th: k * np.cos(th), lat.momenta(0)
        )
        np.testing.assert_allclose(got, matrix @ state.amplitudes, atol=1e-9)

    def test_empty_kick_is_identity(self):
        lat = RotorLattice(((-6, 6),))
        engine = RotorEngine(PotentialSpec(1), ResonancePlan(((1, 1),)), lat)
        state = random_state(lat, 3)
        np.testing.assert_allclose(
            engine.kick(state).amplitudes, state.amplitudes, atol=1e-13
        )

    def test_free_secondary_parity_phase(self):
        lat = RotorLattice(((-5, 5),))
        engine = RotorEngine(PotentialSpec(1), ResonancePlan(((1, 2),)), lat)
        state = RotorState.momentum_eigenstate(lat, (3,))
        out = engine.free_rotation(state)
        idx = 3 - (-5)
        assert out.amplitudes[idx] == pytest.approx(-1.0)

    def test_free_detuning_phase(self):
        lat = RotorLattice(((-12, 12),))
        plan = ResonancePlan(((1, 1),), (1e-3,))
        engine = RotorEngine(PotentialSpec(1), plan, lat)
        state = RotorState.momentum_eigenstate(lat, (10,))
        out = engine.free_rotation(state)
        idx = 10 - (-12)
        assert out.amplitudes[idx] == pytest.approx(np.exp(-0.05j), abs=1e-14)

    def test_unitarity_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(1, 3))
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                modes = rng.integers(-2, 3, size=n)
                if not modes.any():
                    modes[0] = 1
                terms.append(
                    cosine_term(float(rng.uniform(-1.5, 1.5)), tuple(modes))
                )
            pot = PotentialSpec(n, tuple(terms))
            plan = ResonancePlan(
                tuple(
                    (int(rng.integers(1, 3)), int(rng.integers(1, 4)))
                    for _ in range(n)
                ),
                tuple(float(rng.uniform(-1e-3, 1e-3)) for _ in range(n)),
            )
            lat = RotorLattice(tuple((-20, 20) for _ in range(n)))
            engine = RotorEngine(pot, plan, lat)
            state = random_state(lat, int(rng.integers(0, 2**31)))
            for _ in range(3):
                state = engine.step(state)
            assert abs(state.norm() - 1.0) < 1e-12


class TestResonantFactorization:
    def test_fig1_single_step_moment(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=2)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        rec1 = measure_moments(engine.step(state), 1)
        assert rec1.second[1] == pytest.approx(0.52, abs=1e-10)
        rec2 = measure_moments(engine.step(engine.step(state)), 2)
        assert rec2.second[0] == pytest.approx(0.02, abs=1e-10)
        assert rec2.second[1] == pytest.approx(0.0, abs=1e-10)

    def test_resonant_matches_generic(self):
        pot = fig2_potential()
        plan = ResonancePlan(((1, 2), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=12)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        fast = engine.resonant_evolve(state, 12)
        slow = engine.evolve(state, 12)
        assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-10

    def test_resonant_zero_steps_identity(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=2)
        engine = RotorEngine(pot, plan, lat)
        state = random_state(lat, 5)
        out = engine.resonant_evolve(state, 0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_antiresonance_two_steps_identity(self):
        # purely antisymmetric potential at the secondary resonance
        pot = PotentialSpec(1, (cosine_term(1.3, (1,)),))
        plan = ResonancePlan(((1, 2),))
        lat = RotorLattice.for_run(pot, (0,), steps=4)
        engine = RotorEngine(pot, plan, lat)
        state = random_state(lat, 9)
        out = engine.evolve(state, 2)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-11)
        fast = engine.resonant_evolve(state, 2)
        np.testing.assert_allclose(fast.amplitudes, state.amplitudes, atol=1e-12)

    def test_resonant_rejects_detuned_plan(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)), (0.0, 1e-4))
        lat = RotorLattice.for_run(pot, (0, 0), steps=2)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        with pytest.raises(ValidationError):
            engine.resonant_evolve(state, 2)

    def test_detuned_stepping_converges_to_resonant(self):
        pot = fig2_potential()
        lat = RotorLattice.for_run(pot, (0, 0), steps=8)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        exact_engine = RotorEngine(
            pot, ResonancePlan(((1, 1), (1, 2))), lat
        )
        ideal = exact_engine.resonant_evolve(state, 8)
        diffs = []
        for dt in (1e-6, 1e-8):
            engine = RotorEngine(
                pot, ResonancePlan(((1, 1), (1, 2)), (dt, dt)), lat
            )
            out = engine.evolve(state, 8)
            diffs.append(np.max(np.abs(out.amplitudes - ideal.amplitudes)))
        assert diffs[1] < diffs[0]
        assert diffs[1] < 1e-4


class TestDressedFactorization:
    def test_lowest_orders_reduce_to_resonant(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=6)
        engine = RotorEngine(pot, plan, lat)
        state = random_state(lat, 21)
        a = engine.dressed_evolve(state, 5)
        b = engine.resonant_evolve(state, 5)
        c = engine.evolve(state, 5)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-13)
        assert np.max(np.abs(a.amplitudes - c.amplitudes)) < 1e-10

    def test_third_order_pair_matches_generic(self):
        pot = PotentialSpec(
            2,
            (
                cosine_term(1.0, (3, 0)),
                cosine_term(1.0, (0, 3)),
                cosine_term(1.0, (3, -3)),
            ),
        )
        plan = ResonancePlan(((1, 3), (1, 3)))
        # a strength-20 accumulated kick carries long Bessel tails; the
        # window must hold the exact state down to ~1e-11 amplitude for a
        # raw-tensor comparison at 1e-10, hence the generous margin
        lat = RotorLattice.for_run(pot, (0, 0), steps=20, margin=96)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        fast = engine.dressed_evolve(state, 20)
        slow = engine.evolve(state, 20)
        assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-10

    def test_fourth_order_single_step(self):
        pot = PotentialSpec(1, (cosine_term(0.9, (2,)),))
        plan = ResonancePlan(((3, 4),))
        lat = RotorLattice.for_run(pot, (0,), steps=8, margin=48)
        engine = RotorEngine(pot, plan, lat)
        state = random_state(lat, 33)
        one = engine.dressed_evolve(state, 1)
        ref = engine.step(state)
        np.testing.assert_allclose(one.amplitudes, ref.amplitudes, atol=1e-11)
        seven = engine.dressed_evolve(state, 7)
        ref7 = engine.evolve(state, 7)
        assert np.max(np.abs(seven.amplitudes - ref7.amplitudes)) < 1e-10

    def test_rejects_asymmetric_potential(self):
        pot = PotentialSpec(1, (cosine_term(1.0, (1,)),))
        plan = ResonancePlan(((1, 3),))
        lat = RotorLattice(((-20, 20),))
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0,))
        with pytest.raises(ValidationError):
            engine.dressed_evolve(state, 3)


class TestTruncationHandling:
    def test_tail_violation_raises(self):
        pot = PotentialSpec(1, (cosine_term(2.0, (1,)),))
        lat = RotorLattice(((-6, 6),))
        engine = RotorEngine(pot, ResonancePlan(((1, 1),)), lat)
        state = RotorState.momentum_eigenstate(lat, (0,))
        with pytest.raises(TruncationError):
            engine.evolve(state, 6)

    def test_auto_grow_recovers(self):
        pot = PotentialSpec(1, (cosine_term(2.0, (1,)),))
        lat = RotorLattice(((-6, 6),))
        engine = RotorEngine(
            pot, ResonancePlan(((1, 1),)), lat, auto_grow=True
        )
        state = RotorState.momentum_eigenstate(lat, (0,))
        out = engine.evolve(state, 6)
        assert engine.grow_events >= 1
        assert abs(out.norm() - 1.0) < 1e-10
        ref_lat = RotorLattice.for_run(pot, (0,), steps=6)
        ref_engine = RotorEngine(pot, ResonancePlan(((1, 1),)), ref_lat)
        ref = ref_engine.evolve(
            RotorState.momentum_eigenstate(ref_lat, (0,)), 6
        )
        assert out.amplitudes.shape[0] >= 13
        # compare second moments rather than raw tensors (windows differ)
        assert measure_moments(out).second[0] == pytest.approx(
            measure_moments(ref).second[0], rel=1e-8
        )


class TestMoments:
    def test_trajectory_yields_reference_first(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=4)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        series = [
            measure_moments(s, t) for t, s in engine.trajectory(state, 4)
        ]
        assert [rec.t for rec in series] == [0, 1, 2, 3, 4]
        assert series[0].second == (0.0, 0.0)

    def test_displacement_stats_fills_reference_frame(self):
        recs = [
            MomentRecord(0, (1.0,), (1.0,)),
            MomentRecord(1, (3.0,), (11.0,)),
        ]
        filled = displacement_stats(recs)
        assert filled[1].displacement == (2.0,)
        # <p^2>_t - 2 <p>_t <p>_0 + <p^2>_0 = 11 - 6 + 1
        assert filled[1].spread == (6.0,)
        assert filled[1].variance == (2.0,)
        assert filled[0].spread == (0.0,)

    def test_displacement_stats_needs_t0(self):
        with pytest.raises(ValidationError):
            displacement_stats([MomentRecord(1, (0.0,), (0.0,))])

    def test_fig2_moment_law_short_horizon(self):
        pot = fig2_potential()
        plan = ResonancePlan(((1, 2), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=9)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        series = displacement_stats(
            [measure_moments(s, t) for t, s in engine.trajectory(state, 9)]
        )
        lam_plus = 0.005
        lam_minus = (2.0, 4.5)
        for rec in series:
            for j in range(2):
                expect = lam_plus * rec.t**2
                if rec.t % 2 == 1:
                    expect += lam_minus[j]
                assert rec.spread[j] == pytest.approx(expect, abs=1e-8)
                assert rec.variance[j] >= -1e-9
