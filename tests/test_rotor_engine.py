"""Engine checks: unitarity, kick oracles, closed-form vs generic stepping."""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kickres import (
    BipartitionSpec,
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    ResourceCapError,
    TruncationError,
    ValidationError,
    cosine_term,
)
from kickres.entanglement import schmidt_purity
from kickres.potential import accumulated_potential
from kickres.rotor_engine import (
    GROW_TRIGGER,
    MARGINAL_BLOCK,
    MomentRecord,
    RotorEngine,
    RotorLattice,
    RotorState,
    _smooth_length,
    measure_moments,
    observe,
)
from oracles import (
    displacement_stats_reference,
    edge_mass_reference,
    fixed_window_engine,
    fixed_window_run,
    fixed_window_states,
    kick_matrix_quadrature,
    kick_table_reference,
    kick_variance,
    momentum_marginals_reference,
    plain_step,
)

# tracemalloc slack over the arrays a bound names: the FFT's and the
# ufunc machinery's own buffers (126 KiB on a 200 x 200 step) and the
# per-rotor phase vectors
SLACK = 256 * 1024


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


def fig4_potential():
    return PotentialSpec(
        2,
        (
            cosine_term(9.0, (1, 0)),
            cosine_term(10.0, (0, 1)),
            cosine_term(0.1, (1, -1)),
        ),
    )


def random_model(seed):
    """(potential, plan) in the style of test_predictor's random_case, on
    two rotors: a 0-1 coupling plus random terms with modes in -2..2 and
    random phases, resonance orders 1 and 2, and a detuning of 0 or 1e-3
    per rotor."""
    rng = np.random.default_rng(seed)
    terms = [FourierTerm(rng.normal(), (1, -1), 0.3)]
    for _ in range(int(rng.integers(2, 6))):
        modes = tuple(int(m) for m in rng.integers(-2, 3, size=2))
        if any(modes):
            terms.append(
                FourierTerm(rng.normal(), modes, rng.uniform(0.0, 2 * np.pi))
            )
    plan = ResonancePlan(
        tuple((1, int(s)) for s in rng.integers(1, 3, 2)),
        tuple(float(d) for d in rng.choice([0.0, 1e-3], 2)),
    )
    return PotentialSpec(2, tuple(terms)), plan


def is_smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def replay(records):
    """An engine stub whose trajectory yields ``records`` as its states,
    and the measure that reads each one back unchanged."""
    engine = SimpleNamespace(trajectory=lambda state, steps: enumerate(records))
    return engine, lambda record, t: record


def full_random_state(lattice, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=lattice.shape) + 1j * rng.normal(size=lattice.shape)
    return RotorState(lattice, amps / math.sqrt(np.vdot(amps, amps).real))


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
        # Bandwidths are 1.1 and 1.2.  A fixed run covers all 10 kicks:
        # half-widths 11 + 16 and 12 + 16 (lengths 55 and 57), rounded up
        # to the 7-smooth lengths 56 and 60 around the center.
        lat = RotorLattice.for_run(fig1_potential(), (0, 0), steps=10)
        assert lat.windows == ((-27, 28), (-29, 30))
        # A growing run starts on the first 4 kicks: half-widths 5 + 16
        # (length 43), rounded up to 45.
        grow = RotorLattice.start_window(fig1_potential(), (3, -2), steps=10)
        assert grow.windows == ((3 - 22, 3 + 22), (-2 - 22, -2 + 22))
        # A run shorter than the start horizon covers its own reach.
        short = RotorLattice.start_window(fig1_potential(), (0, 0), steps=2)
        assert short.shape == (_smooth_length(2 * 19 + 1),) * 2

    def test_for_run_keeps_exact_lengths_under_a_tight_cap(self):
        lat = RotorLattice.for_run(
            fig1_potential(), (0, 0), steps=10, element_cap=55 * 57
        )
        assert lat.windows == ((-27, 27), (-28, 28))

    @given(st.integers(min_value=1, max_value=100_000))
    def test_smooth_length_is_the_next_7_smooth(self, n):
        m = _smooth_length(n)
        assert m >= n and is_smooth(m)
        assert not any(is_smooth(k) for k in range(n, m))

    def test_rejects_tiny_window(self):
        with pytest.raises(ValidationError):
            RotorLattice(((0, 2),))

    def test_element_cap(self):
        with pytest.raises(ResourceCapError):
            RotorLattice(((-5000, 5000), (-5000, 5000)), element_cap=10**6)

    @pytest.mark.parametrize(
        "windows", [((-3.7, 5.2),), ((0, 9), (-4.0, 4)), (("0", 9),)]
    )
    def test_rejects_non_integer_windows(self, windows):
        # int() truncated (-3.7, 5.2) to the window (-3, 5)
        with pytest.raises(ValidationError, match="windows"):
            RotorLattice(windows)

    def test_numpy_integer_windows_pass(self):
        lat = RotorLattice(((np.int64(-3), np.int32(5)),))
        assert lat.windows == ((-3, 5),)
        assert all(type(x) is int for x in lat.windows[0])

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

    @pytest.mark.parametrize("momenta", [[0.6, 0], [0, 2.0], [0, True]])
    def test_eigenstate_rejects_non_integer_momenta(self, momenta):
        # int() truncated [0.6, 0] to momentum 0
        lat = RotorLattice(((-5, 5), (-5, 5)))
        with pytest.raises(ValidationError, match="momenta"):
            RotorState.momentum_eigenstate(lat, momenta)

    def test_eigenstate_takes_numpy_integer_momenta(self):
        lat = RotorLattice(((-5, 5), (-5, 5)))
        state = RotorState.momentum_eigenstate(lat, np.array([3, -2]))
        assert measure_moments(state).mean == (3.0, -2.0)

    def test_norm_enforced(self):
        lat = RotorLattice(((-3, 3),))
        with pytest.raises(ValidationError):
            RotorState(lat, np.ones(7, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        # abs(norm - 1) > tol is False for a NaN norm
        amps = np.zeros(7, dtype=complex)
        amps[3] = 1.0
        amps[0] = bad
        with pytest.raises(ValidationError, match="state norm"):
            RotorState(RotorLattice(((-3, 3),)), amps)

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

    def test_a_write_to_the_callers_array_leaves_the_state(self):
        # the state keeps its marginals, so it must not share the array
        # they were taken from
        lat = RotorLattice(((-4, 4), (-4, 4)))
        amps = np.zeros(lat.shape, dtype=complex)
        amps[4, 4] = 1.0
        state = RotorState(lat, amps)
        state.momentum_marginals()
        amps[4, 4] = 0.0
        amps[0, 0] = amps[8, 8] = 1.0 / math.sqrt(2.0)
        assert measure_moments(state).second == (0.0, 0.0)
        assert schmidt_purity(state, BipartitionSpec(2, (0,))) == 1.0


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

    def test_kick_rejects_a_state_of_another_lattice(self):
        pot = fig1_potential()
        lat = RotorLattice(((-8, 8), (-8, 8)))
        engine = RotorEngine(pot, ResonancePlan(((1, 1), (1, 2))), lat)
        other = RotorLattice(((-8, 8), (-6, 6)))
        state = RotorState.momentum_eigenstate(other, (0, 0))
        with pytest.raises(ValidationError, match="does not match"):
            engine.kick(state)

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

    def test_step_works_in_place_on_its_own_buffers(self):
        # beyond its input and the kick table, a step allocates one
        # full-lattice array, the next state, and never writes into the
        # input.  Measured 1.20 lattices here (the FFT's buffers are the
        # rest); 2.20 when ifftn allocated on every axis pass and free
        # rotation made a second copy
        pot = fig1_potential()
        lat = RotorLattice(((-100, 99), (-100, 99)))
        engine = RotorEngine(pot, ResonancePlan(((1, 1), (1, 2))), lat)
        state = random_state(lat, 3)
        before = state.amplitudes.copy()
        _, peak = traced_peak(lambda: engine.step(state))
        assert peak < 1.3 * state.amplitudes.nbytes
        np.testing.assert_array_equal(state.amplitudes, before)

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
        fast = engine.dressed_evolve(state, 12)
        slow = engine.evolve(state, 12)
        assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-10

    def test_resonant_zero_steps_identity(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=2)
        engine = RotorEngine(pot, plan, lat)
        state = random_state(lat, 5)
        out = engine.dressed_evolve(state, 0)
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
        fast = engine.dressed_evolve(state, 2)
        np.testing.assert_allclose(fast.amplitudes, state.amplitudes, atol=1e-12)

    def test_resonant_rejects_detuned_plan(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)), (0.0, 1e-4))
        lat = RotorLattice.for_run(pot, (0, 0), steps=2)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        with pytest.raises(ValidationError):
            engine.dressed_evolve(state, 2)

    def test_detuned_stepping_converges_to_resonant(self):
        # plain steps on the closed form's window: a growing trajectory
        # would leave it
        pot = fig2_potential()
        lat = RotorLattice.for_run(pot, (0, 0), steps=8)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        exact_engine = RotorEngine(
            pot, ResonancePlan(((1, 1), (1, 2))), lat
        )
        ideal = exact_engine.dressed_evolve(state, 8)
        diffs = []
        for dt in (1e-6, 1e-8):
            engine = RotorEngine(
                pot, ResonancePlan(((1, 1), (1, 2)), (dt, dt)), lat
            )
            for _, out in fixed_window_states(engine, state, 8):
                pass
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
        c = engine.evolve(state, 5)
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


class TestStepCheck:
    # 2.5 raised a bare TypeError from range, True ran one step, and
    # accumulated_potential took int(2.5) and int("2")
    @pytest.mark.parametrize("bad", [2.5, True, "2", -1])
    def test_every_steps_argument_rejects_non_counts(self, bad):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice(((-8, 8), (-8, 8)))
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        calls = [
            lambda: list(engine.trajectory(state, bad)),
            lambda: engine.evolve(state, bad),
            lambda: engine.dressed_evolve(state, bad),
            lambda: accumulated_potential(pot, plan.shift_set, bad),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="steps must be"):
                call()


class TestTruncationHandling:
    def test_tail_violation_raises(self):
        # the window grows, yet the mass its edges keep, summed over the
        # steps, passes a 1e-30 budget
        pot = PotentialSpec(1, (cosine_term(2.0, (1,)),))
        lat = RotorLattice(((-6, 6),))
        engine = RotorEngine(
            pot, ResonancePlan(((1, 1),)), lat, tail_budget=1e-30
        )
        state = RotorState.momentum_eigenstate(lat, (0,))
        with pytest.raises(TruncationError, match="exceeds budget 1.0e-30"):
            engine.evolve(state, 6)
        assert engine.grow_events >= 1

    @pytest.mark.parametrize("name", ["tail_tol", "tail_budget"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-8])
    def test_tail_bounds_must_be_finite_and_positive(self, name, bad):
        # a window the cap pins at 21 cells must grow at step 1; with a
        # NaN tolerance and budget no comparison trips and the run went on
        # for 30 steps on the truncated window without a word
        pot = PotentialSpec(1, (cosine_term(3.0, (1,)),))
        plan = ResonancePlan(((1, 2),))
        lat = RotorLattice(((-10, 10),), element_cap=21)
        state = RotorState.momentum_eigenstate(lat, (0,))
        with pytest.raises(ResourceCapError, match="at step 1 "):
            RotorEngine(pot, plan, lat).evolve(state, 30)
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            RotorEngine(pot, plan, lat, **{name: bad})

    def test_growth_falls_back_under_the_element_cap(self):
        # bandwidth 2: minimum pad 16 + 2 per side.  Growth takes 1.25x
        # onto a 7-smooth length (252) where the cap allows, else as much
        # of the minimum pad (to 237) as fits.
        pot = PotentialSpec(1, (cosine_term(2.0, (1,)),))
        plan = ResonancePlan(((1, 1),))
        for cap, length in ((10**6, 252), (251, 237), (220, 220), (201, None)):
            lat = RotorLattice(((-100, 100),), element_cap=cap)
            wider = RotorEngine(pot, plan, lat)._wider_lattice([0])
            if length is None:
                assert wider is None
            else:
                assert wider.shape == (length,)
                lo, hi = wider.windows[0]
                assert lo <= -100 and hi >= 100 and abs(lo + hi) <= 1

    def test_window_growth_recovers(self):
        pot = PotentialSpec(1, (cosine_term(2.0, (1,)),))
        plan = ResonancePlan(((1, 1),))
        lat = RotorLattice(((-6, 6),))
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0,))
        out = engine.evolve(state, 6)
        assert engine.grow_events >= 1
        assert abs(out.norm() - 1.0) < 1e-10
        ref_engine, ref_state = fixed_window_engine(pot, plan, (0,), 6, 16)
        for _, ref in fixed_window_states(ref_engine, ref_state, 6):
            pass
        assert out.amplitudes.shape[0] >= 13
        # compare second moments rather than raw tensors (windows differ)
        assert measure_moments(out).second[0] == pytest.approx(
            measure_moments(ref).second[0], rel=1e-8
        )

    def test_dressed_evolve_past_its_window_names_the_step(self):
        # the closed form never grows its window: one sized for 2 kicks
        # with a margin of 2 keeps a tail of order 0.1 after 40
        pot = fig1_potential()
        lat = RotorLattice.for_run(pot, (0, 0), 2, margin=2)
        engine = RotorEngine(pot, ResonancePlan(((1, 1), (1, 2))), lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        with pytest.raises(TruncationError, match=r"tail mass .*\(t=40\)"):
            engine.dressed_evolve(state, 40)


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
        # <p>_0 = 1 keeps the cross term of sigma^2 live
        engine, measure = replay(
            [MomentRecord(0, (1.0,), (1.0,)), MomentRecord(1, (3.0,), (11.0,))]
        )
        filled, _ = observe(engine, None, 1, measure)
        assert filled[1].displacement == (2.0,)
        # <p^2>_t - 2 <p>_t <p>_0 + <p^2>_0 = 11 - 6 + 1
        assert filled[1].spread == (6.0,)
        assert filled[1].variance == (2.0,)
        assert filled[0].spread == (0.0,)

    def test_displacement_stats_needs_t0(self):
        engine, measure = replay([MomentRecord(1, (0.0,), (0.0,))])
        with pytest.raises(ValidationError, match="t=0 reference"):
            observe(engine, None, 0, measure)

    def test_fig2_moment_law_short_horizon(self):
        pot = fig2_potential()
        plan = ResonancePlan(((1, 2), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=9)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        series = displacement_stats_reference(
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


class TestGrowingWindows:
    @pytest.mark.parametrize(
        "potential, rationals, detuning, steps, margin",
        [
            (fig1_potential(), ((1, 1), (1, 2)), 0.0, 100, 16),  # fig1
            # the fig4 head's model, run well past its start window
            (fig4_potential(), ((1, 3), (1, 5)), 0.0, 20, 16),
            # the scan3 ideal run and its first detuned run
            (fig2_potential(), ((1, 1), (1, 2)), 0.0, 70, 48),
            (fig2_potential(), ((1, 1), (1, 2)), 1e-3, 40, 48),
        ],
    )
    def test_matches_the_fixed_window_oracle(
        self, potential, rationals, detuning, steps, margin
    ):
        plan = ResonancePlan(rationals, (detuning, detuning))
        part = BipartitionSpec(2, (0,))
        ref_records, ref_purity = fixed_window_run(
            potential, plan, (0, 0), steps, margin, part
        )
        lat = RotorLattice.start_window(potential, (0, 0), steps)
        engine = RotorEngine(potential, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        records, purity = [], []
        for t, current in engine.trajectory(state, steps):
            records.append(measure_moments(current, t))
            purity.append(schmidt_purity(current, part))
        assert engine.grow_events >= 1
        # <p^2> to 1e-10 relative; <p>, which is zero here, to 1e-10 of
        # the momentum scale sqrt(<p^2>)
        for got, ref in zip(records, ref_records, strict=True):
            for j in range(2):
                scale = max(ref.second[j], 1.0)
                assert abs(got.second[j] - ref.second[j]) <= 1e-10 * scale
                assert abs(got.mean[j] - ref.mean[j]) <= 1e-10 * scale**0.5
        np.testing.assert_allclose(purity, ref_purity, rtol=0, atol=1e-12)

    def test_only_filling_windows_grow(self):
        # the secondary-resonance rotor of the scan model stays bounded
        pot = fig2_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.start_window(pot, (0, 0), 40)
        engine = RotorEngine(pot, plan, lat)
        engine.evolve(RotorState.momentum_eigenstate(lat, (0, 0)), 40)
        assert engine.lattice.shape[0] > lat.shape[0]
        assert engine.lattice.windows[1] == lat.windows[1]
        assert all(is_smooth(m) for m in engine.lattice.shape)

    def test_trajectory_states_carry_their_marginals(self):
        # the edge check forms each accepted state's marginals once, and
        # measure_moments reuses them
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.start_window(pot, (0, 0), 6)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        for t, current in engine.trajectory(state, 6):
            if t == 0:
                continue
            cached = current._marginals
            assert cached is not None
            measure_moments(current, t)
            assert current.momentum_marginals() is cached


class TestObserve:
    def test_matches_the_oracle_loop_on_a_fixed_lattice(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        part = BipartitionSpec(2, (0,))
        ref_records, ref_purity = fixed_window_run(
            pot, plan, (0, 0), 30, 16, part
        )
        engine, state = fixed_window_engine(pot, plan, (0, 0), 30, 16)
        series, purities = observe(
            engine,
            state,
            30,
            measure_moments,
            lambda current: schmidt_purity(current, part),
        )
        # exact equality of every field, <p> and <p^2> included
        assert engine.grow_events == 0
        assert series == displacement_stats_reference(ref_records)
        assert purities == ref_purity

    def test_growing_run_matches_a_hand_loop_bitwise(self):
        pot = fig2_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        part = BipartitionSpec(2, (0,))

        def pieces():
            lat = RotorLattice.start_window(pot, (0, 0), 40)
            engine = RotorEngine(pot, plan, lat)
            return engine, RotorState.momentum_eigenstate(lat, (0, 0))

        engine, state = pieces()
        records, ref_purity = [], []
        for t, current in engine.trajectory(state, 40):
            records.append(measure_moments(current, t))
            ref_purity.append(schmidt_purity(current, part))
        ref_series = displacement_stats_reference(records)

        engine, state = pieces()
        series, purities = observe(
            engine,
            state,
            40,
            measure_moments,
            lambda current: schmidt_purity(current, part),
        )
        assert engine.grow_events >= 1
        assert repr(series) == repr(ref_series)
        assert [p.hex() for p in purities] == [p.hex() for p in ref_purity]

    def test_without_purity_returns_no_purities(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), 3)
        engine = RotorEngine(pot, plan, lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        series, purities = observe(engine, state, 3, measure_moments)
        assert purities == []
        assert [r.t for r in series] == [0, 1, 2, 3]
        assert series[3].spread is not None

    def test_truncation_error_names_the_step(self):
        pot = PotentialSpec(1, (cosine_term(2.0, (1,)),))
        lat = RotorLattice(((-6, 6),))
        plan = ResonancePlan(((1, 1),))
        with pytest.raises(TruncationError) as hand:
            RotorEngine(pot, plan, lat, tail_budget=1e-30).evolve(
                RotorState.momentum_eigenstate(lat, (0,)), 6
            )
        step = int(str(hand.value).split("at step ")[1])
        assert 1 <= step <= 6
        with pytest.raises(TruncationError, match=f"at step {step}$"):
            observe(
                RotorEngine(pot, plan, lat, tail_budget=1e-30),
                RotorState.momentum_eigenstate(lat, (0,)),
                6,
                measure_moments,
            )


def count_in_place(engine):
    """Wrap ``engine.step`` to count the steps written into the input's own
    buffer; returns the list each such step appends its state to."""
    step, in_place = engine.step, []

    def counted(state, out=None):
        if out is not None:
            assert np.shares_memory(out, state.amplitudes)
            in_place.append(state)
        return step(state, out=out)

    engine.step = counted
    return in_place


class TestInPlaceSteps:
    def test_a_state_kept_from_trajectory_is_unchanged(self):
        # every step after the first runs in place on the working state,
        # which trajectory yields itself: a caller keeps a state by copying
        # it, and the copies hold every step's bits across steps and grows
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.start_window(pot, (0, 0), 100)
        engine = RotorEngine(pot, plan, lat)
        in_place = count_in_place(engine)
        start = RotorState.momentum_eigenstate(lat, (0, 0))
        kept, buffers = [], []
        for _, state in engine.trajectory(start, 100):
            kept.append(RotorState(state.lattice, state.amplitudes))
            if not any(state.amplitudes is b for b in buffers):
                buffers.append(state.amplitudes)
        assert engine.grow_events >= 1
        assert len(in_place) == 99 + engine.grow_events
        # the start, the first step's new array and one per grow
        assert len(buffers) == 2 + engine.grow_events
        series, _ = observe(
            RotorEngine(pot, plan, lat), start, 100, measure_moments
        )
        assert [measure_moments(s, t) for t, s in enumerate(kept)] == [
            MomentRecord(r.t, r.mean, r.second) for r in series
        ]

    def test_a_yielded_state_is_read_only_until_the_walk_resumes(self):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.start_window(pot, (0, 0), 100)
        start = RotorState.momentum_eigenstate(lat, (0, 0))
        engine = RotorEngine(pot, plan, lat)
        for t, state in engine.trajectory(start, 100):
            if t == 0:
                assert state is start and start.amplitudes.flags.writeable
                continue
            with pytest.raises(ValueError, match="read-only"):
                state.amplitudes[0, 0] = 0.0
        assert engine.grow_events >= 1
        # the last state of a finished walk, or of one the caller stopped,
        # is the caller's
        state.amplitudes[0, 0] = 0.0
        steps = RotorEngine(pot, plan, lat).trajectory(start, 100)
        for t, state in steps:
            if t == 5:
                break
        assert not state.amplitudes.flags.writeable
        steps.close()
        state.amplitudes[0, 0] = 0.0

    @pytest.mark.parametrize("start", ["eigenstate", "coherent"])
    def test_observe_and_evolve_leave_the_callers_state(self, start):
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.start_window(pot, (0, 0), 100)
        if start == "eigenstate":
            state = RotorState.momentum_eigenstate(lat, (0, 0))
        else:
            state = RotorState.coherent_product(
                lat, ((0.5, 0.0), (1.0, 3.0)), 1.5
            )
        before = state.amplitudes.copy()
        runs = {
            "observe": lambda engine: observe(
                engine, state, 100, measure_moments
            )[0][-1],
            "evolve": lambda engine: measure_moments(
                engine.evolve(state, 100)
            ),
            "trajectory": lambda engine: measure_moments(
                [*engine.trajectory(state, 100)][-1][1]
            ),
        }
        finals = {}
        for name, run in runs.items():
            engine = RotorEngine(pot, plan, lat)
            in_place = count_in_place(engine)
            finals[name] = run(engine)
            # every step after the first, and every redo, runs in place
            assert engine.grow_events >= 1, name
            assert len(in_place) == 99 + engine.grow_events, name
            np.testing.assert_array_equal(state.amplitudes, before)
        seconds = {final.second for final in finals.values()}
        assert len(seconds) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_in_place_steps_equal_the_plain_step(self, seed):
        # random models stepped through their grows: every step of the
        # working state, those whose edges fill and are then taken back
        # included, has the bits of the out-of-place oracle step
        pot, plan = random_model(seed)
        lat = RotorLattice.start_window(pot, (0, 0), 40)
        engine = RotorEngine(pot, plan, lat)
        step, checked, filled = engine.step, [], []

        def checked_step(state, out=None):
            want = plain_step(engine, state.amplitudes)
            got = step(state, out=out)
            np.testing.assert_array_equal(got.amplitudes, want)
            checked.append(state)
            if max(edge_mass_reference(want)) > GROW_TRIGGER:
                filled.append(state)
            return got

        engine.step = checked_step
        start = RotorState.momentum_eigenstate(lat, (0, 0))
        observe(engine, start, 40, measure_moments)
        # measured 4 to 9 grows in every model but one
        assert len(checked) == 40 + engine.grow_events
        assert len(filled) == engine.grow_events >= (0 if seed == 0 else 1)


class TestWorkingMemory:
    def test_kick_table_holds_the_table_and_the_potential(self):
        # cos V and -sin V go into the two halves of one complex array:
        # measured 1.51 lattices (the table and the real V); 2.01 through
        # the complex temporary of np.exp(-1j * V)
        lat = RotorLattice(((-150, 149), (-150, 149)))
        plan = ResonancePlan(((1, 1), (1, 2)))
        engine, peak = traced_peak(
            lambda: RotorEngine(fig1_potential(), plan, lat)
        )
        assert peak < 1.5 * engine._kick_phase.nbytes + SLACK

    def test_a_grow_holds_old_state_new_table_and_new_state(self):
        # on the working state a grow takes the step back in place, builds
        # the new table, embeds the state and redoes the step in place: it
        # holds the old state, the new table, the new state and one |a|^2
        # block, with no redo array
        pot = fig1_potential()
        plan = ResonancePlan(((1, 1), (1, 1)))
        tracemalloc.start()
        try:
            lat = RotorLattice.start_window(pot, (0, 0), 60)
            engine = RotorEngine(pot, plan, lat)
            state = RotorState.momentum_eigenstate(lat, (0, 0))
            steps = engine.trajectory(state, 60)
            del state
            _, current = next(steps)
            grown = 0
            for _ in range(60):
                old, grows = current.amplitudes.nbytes, engine.grow_events
                tracemalloc.reset_peak()
                _, current = next(steps)
                peak = tracemalloc.get_traced_memory()[1]
                if engine.grow_events > grows:
                    grown += 1
                    size = current.amplitudes.size
                    block = 8 * min(MARGINAL_BLOCK, size)
                    assert peak < old + 2 * 16 * size + block + SLACK
        finally:
            tracemalloc.stop()
        assert grown >= 3

    def test_every_step_after_the_first_allocates_no_window_array(self):
        # each step of the working state writes the kick, its phase and the
        # free rotation into the state's own buffer: it holds the state,
        # the table and one |a|^2 block of the edge check.  An out-of-place
        # step holds a second window array, 1.4 MB here
        pot = fig1_potential()
        lat = RotorLattice(((-150, 149), (-150, 149)))
        engine = RotorEngine(pot, ResonancePlan(((1, 1), (1, 2))), lat)
        start = RotorState.momentum_eigenstate(lat, (0, 0))
        steps = engine.trajectory(start, 8)
        _, current = next(steps)
        _, current = next(steps)  # the first step writes a new array
        block = 8 * MARGINAL_BLOCK
        assert block + SLACK < current.amplitudes.nbytes
        tracemalloc.start()
        try:
            for _ in range(7):
                tracemalloc.reset_peak()
                _, nxt = next(steps)
                peak = tracemalloc.get_traced_memory()[1]
                assert nxt.amplitudes is current.amplitudes
                assert peak < block + SLACK
                current = nxt
        finally:
            tracemalloc.stop()

    def test_marginals_hold_one_block_of_probability(self):
        # 1001 rows of 400: six blocks of 163 rows and one of 23.  The
        # whole-lattice |a|^2 took 0.50 lattices
        state = full_random_state(RotorLattice(((-500, 500), (-200, 199))), 5)
        margs, peak = traced_peak(state.momentum_marginals)
        assert peak < 8 * MARGINAL_BLOCK + sum(m.nbytes for m in margs) + SLACK

    def test_dressed_evolve_holds_the_table_and_the_result(self):
        # measured 2.01 lattices: the accumulated kick table and the result,
        # which takes the t-step free phases in place after the table goes;
        # 3.01 with a complex temporary and a fresh array per rotor
        pot = fig1_potential()
        lat = RotorLattice.for_run(pot, (0, 0), steps=100)
        engine = RotorEngine(pot, ResonancePlan(((1, 1), (1, 2))), lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        out, peak = traced_peak(lambda: engine.dressed_evolve(state, 100))
        assert peak < 2.0 * out.amplitudes.nbytes + SLACK


# Leading axes that are no multiple of their block's row count
PIN_WINDOWS = [
    ((0, 70000),),  # 70001 levels: blocks of 65536
    ((-150, 150), (-125, 124)),  # 301 rows of 250: blocks of 262 rows
    ((-25, 24), (-20, 20), (-18, 18)),  # 50 rows of 1517: blocks of 43
]


def pin_potential(n):
    """One cosine per rotor, plus a coupling of them all on two or more."""
    terms = [
        cosine_term(0.7 + 0.3 * j, tuple(int(k == j) for k in range(n)))
        for j in range(n)
    ]
    if n > 1:
        terms.append(cosine_term(2.5, (1, -1) + (1,) * (n - 2)))
    return PotentialSpec(n, tuple(terms))


class TestUndo:
    @pytest.mark.parametrize("detuned", [False, True])
    @pytest.mark.parametrize("windows", PIN_WINDOWS)
    def test_undo_takes_a_step_back(self, windows, detuned):
        # a full random state puts far more than the trigger on every edge,
        # so the step wraps around the window; the inverse step still
        # gives the start back, in the state's own buffer
        n = len(windows)
        lat = RotorLattice(windows)
        rationals = tuple((1, j + 2) for j in range(n))
        plan = ResonancePlan(rationals, (1e-3 if detuned else 0.0,) * n)
        engine = RotorEngine(pin_potential(n), plan, lat)
        start = full_random_state(lat, 3)
        state = engine.step(RotorState(lat, start.amplitudes))
        assert min(state.edge_mass()) > 1e6 * GROW_TRIGGER
        a = state.amplitudes
        _, peak = traced_peak(lambda: engine._undo(a))
        assert np.abs(a - start.amplitudes).max() <= 1e-15
        assert peak < SLACK

    def test_undo_after_a_filling_step_of_a_run(self):
        # the first step of fig1's run whose edges pass the trigger
        pot = fig1_potential()
        lat = RotorLattice.start_window(pot, (0, 0), 100)
        engine = RotorEngine(pot, ResonancePlan(((1, 1), (1, 2))), lat)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        while max(engine.step(state).edge_mass()) <= GROW_TRIGGER:
            state = engine.step(state)
        stepped = engine.step(state)
        engine._undo(stepped.amplitudes)
        np.testing.assert_allclose(
            stepped.amplitudes, state.amplitudes, rtol=0, atol=1e-15
        )


class TestBlockedKernels:
    @pytest.mark.parametrize("windows", PIN_WINDOWS)
    def test_marginals_match_one_probability_array(self, windows):
        lat = RotorLattice(windows)
        rows = MARGINAL_BLOCK // math.prod(lat.shape[1:])
        assert lat.shape[0] > rows and lat.shape[0] % rows
        state = full_random_state(lat, 11)
        got = state.momentum_marginals()
        ref = momentum_marginals_reference(state)
        # the leading axis sums each row as before, to the same bits; the
        # other axes add block partial sums, measured within 1.9e-15
        # relative over five seeds
        np.testing.assert_array_equal(got[0], ref[0])
        for g, r in zip(got[1:], ref[1:], strict=True):
            np.testing.assert_allclose(g, r, rtol=4e-15, atol=0)

    @pytest.mark.parametrize("windows", PIN_WINDOWS)
    def test_kick_table_matches_the_complex_exponential(self, windows):
        # measured bit for bit on every lattice here
        n = len(windows)
        pot = pin_potential(n)
        lat = RotorLattice(windows)
        engine = RotorEngine(pot, ResonancePlan(((1, 1),) * n), lat)
        np.testing.assert_array_equal(
            engine._kick_phase, kick_table_reference(pot, lat)
        )
