"""Term algebra: canonicalization, parity splitting, resonance symmetry."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickres import (
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    SymmetryClass,
    ValidationError,
    accumulated_potential,
    classify,
    cosine_term,
    decompose,
    effective_potential,
    satisfies_resonance_symmetry,
    sine_term,
    split_interaction,
    term_parity,
    term_text,
)
from oracles import fd_gradient, shifted

TWO_PI = 2.0 * math.pi


def modes_strategy(n):
    return (
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        .filter(lambda m: any(m))
        .map(tuple)
    )


def terms_strategy(n):
    coeff = st.integers(-3, 3).filter(bool).map(float)
    phase = st.sampled_from([0.0, 0.5 * math.pi, 1.0, -0.25])
    return st.builds(FourierTerm, coeff, modes_strategy(n), phase)


def spec_strategy(n, max_terms=5):
    return st.lists(terms_strategy(n), max_size=max_terms).map(
        lambda ts: PotentialSpec(n, tuple(ts))
    )


def random_angles(seed, n, size=6):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, TWO_PI, size=size) for _ in range(n)]


class TestFourierTerm:
    def test_sign_canonicalization(self):
        a = FourierTerm(0.5, (-1, 2), 0.3)
        assert a.modes == (1, -2)
        assert math.isclose(a.phase, TWO_PI - 0.3)
        assert a == FourierTerm(0.5, (1, -2), -0.3)

    def test_leading_zeros_skipped(self):
        assert FourierTerm(1.0, (0, -2, 1)).modes == (0, 2, -1)

    def test_rejects_constant_term(self):
        with pytest.raises(ValidationError):
            FourierTerm(1.0, (0, 0))

    def test_rejects_empty_modes(self):
        with pytest.raises(ValidationError):
            FourierTerm(1.0, ())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            FourierTerm(math.nan, (1,))

    def test_sine_helper(self):
        theta = np.linspace(0.0, TWO_PI, 7)
        spec = PotentialSpec(2, (sine_term(2.0, (1, 0)),))
        got = spec.evaluate([theta, np.zeros_like(theta)])
        np.testing.assert_allclose(got, 2.0 * np.sin(theta), atol=1e-12)

    def test_term_text_plain_and_mixed_signs(self):
        assert term_text(cosine_term(0.1, (1, 0))) == "0.1*cos(theta1)"
        assert (
            term_text(cosine_term(1.0, (2, -1)))
            == "1*cos(2*theta1 - theta2)"
        )

    def test_term_text_includes_wrapped_phase(self):
        text = term_text(sine_term(2.0, (0, 1)))
        assert text == f"2*cos(theta2 + {1.5 * math.pi:.12g})"

    def test_term_text_leading_mode_always_positive(self):
        text = term_text(FourierTerm(1.0, (0, -3, 2), 0.0))
        assert text == "1*cos(3*theta2 - 2*theta3)"


class TestPotentialSpec:
    def test_merges_equivalent_terms(self):
        spec = PotentialSpec(
            1, (cosine_term(1.0, (2,)), FourierTerm(0.5, (-2,), 0.0))
        )
        assert len(spec.terms) == 1
        assert spec.terms[0].coefficient == 1.5

    def test_cancellation_gives_zero(self):
        spec = PotentialSpec(1, (cosine_term(1.0, (1,)), cosine_term(-1.0, (1,))))
        assert spec.is_zero

    def test_rejects_mode_length_mismatch(self):
        with pytest.raises(ValidationError):
            PotentialSpec(3, (cosine_term(1.0, (1, 0)),))

    def test_rejects_zero_rotors(self):
        with pytest.raises(ValidationError):
            PotentialSpec(0)

    def test_evaluate_broadcasts_grid_axes(self):
        spec = PotentialSpec(2, (cosine_term(1.0, (1, -1)),))
        t1 = np.linspace(0.0, 1.0, 4)[:, None]
        t2 = np.linspace(0.0, 1.0, 5)[None, :]
        out = spec.evaluate([t1, t2])
        assert out.shape == (4, 5)
        np.testing.assert_allclose(out, np.cos(t1 - t2), atol=1e-12)

    def test_evaluate_rejects_wrong_arity(self):
        spec = PotentialSpec(2, (cosine_term(1.0, (1, 0)),))
        with pytest.raises(ValidationError):
            spec.evaluate([np.zeros(3)])

    def test_kick_bandwidth(self):
        spec = PotentialSpec(
            2, (cosine_term(2.0, (3, 1)), cosine_term(-0.5, (1, 2)))
        )
        assert spec.kick_bandwidth(0) == pytest.approx(6.5)
        assert spec.kick_bandwidth(1) == pytest.approx(3.0)


@given(spec_strategy(3), st.integers(0, 2), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_gradient_matches_finite_difference(spec, rotor, seed):
    thetas = random_angles(seed, 3)
    got = spec.gradient(rotor, thetas)
    np.testing.assert_allclose(got, fd_gradient(spec, rotor, thetas), atol=2e-7)


@given(spec_strategy(3), st.sets(st.integers(0, 2)), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_shift_action_on_values(spec, shift_set, seed):
    thetas = random_angles(seed, 3)
    moved = [
        th + math.pi if j in shift_set else th for j, th in enumerate(thetas)
    ]
    np.testing.assert_allclose(
        shifted(spec, shift_set).evaluate(thetas),
        spec.evaluate(moved),
        atol=1e-12,
    )


@given(terms_strategy(3), st.sets(st.integers(0, 2)), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_term_parity_matches_evaluation(term, shift_set, seed):
    spec = PotentialSpec(3, (term,))
    sign = 1.0 - 2.0 * term_parity(term, shift_set)
    thetas = random_angles(seed, 3)
    moved = [
        th + math.pi if j in shift_set else th for j, th in enumerate(thetas)
    ]
    np.testing.assert_allclose(
        spec.evaluate(moved), sign * spec.evaluate(thetas), atol=1e-12
    )


@given(spec_strategy(3), st.sets(st.integers(0, 2)))
@settings(max_examples=60, deadline=None)
def test_decompose_partitions_terms(spec, shift_set):
    even, odd = decompose(spec, shift_set)
    assert PotentialSpec(3, even.terms + odd.terms) == spec
    assert all(term_parity(t, shift_set) == 0 for t in even.terms)
    assert all(term_parity(t, shift_set) == 1 for t in odd.terms)
    assert classify(even, shift_set) in (SymmetryClass.ZERO, SymmetryClass.SYMMETRIC)
    assert classify(odd, shift_set) in (SymmetryClass.ZERO, SymmetryClass.ANTISYMMETRIC)


@given(spec_strategy(2, max_terms=4), st.sets(st.integers(0, 1)), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_accumulated_matches_explicit_alternation(spec, shift_set, steps):
    terms = []
    for k in range(steps):
        w = spec if k % 2 == 0 else shifted(spec, shift_set)
        terms.extend(w.terms)
    assert accumulated_potential(spec, shift_set, steps) == PotentialSpec(
        2, tuple(terms)
    )


def test_accumulated_rejects_negative_steps():
    with pytest.raises(ValidationError):
        accumulated_potential(PotentialSpec(1, (cosine_term(1.0, (1,)),)), set(), -1)


def test_classify_examples():
    s = frozenset({1})
    sym = PotentialSpec(2, (cosine_term(1.0, (1, 0)), cosine_term(0.3, (1, 2))))
    anti = PotentialSpec(2, (cosine_term(1.0, (1, 1)),))
    assert classify(sym, s) == SymmetryClass.SYMMETRIC
    assert classify(anti, s) == SymmetryClass.ANTISYMMETRIC
    assert classify(PotentialSpec(2, sym.terms + anti.terms), s) == SymmetryClass.ASYMMETRIC
    assert classify(PotentialSpec(2), s) == SymmetryClass.ZERO


def test_effective_potential_filters_by_support():
    spec = PotentialSpec(
        2, (cosine_term(1.0, (1, 0)), cosine_term(2.0, (0, 1)), cosine_term(0.5, (1, -1)))
    )
    eff = effective_potential(spec, 0)
    assert sorted(t.modes for t in eff.terms) == [(1, -1), (1, 0)]
    with pytest.raises(ValidationError):
        effective_potential(spec, 2)


def test_split_interaction_routes_by_support():
    spec = PotentialSpec(
        3,
        (
            cosine_term(1.0, (1, 0, 0)),
            cosine_term(2.0, (0, 1, -1)),
            cosine_term(0.5, (1, 0, 2)),
        ),
    )
    va, vb, vi = split_interaction(spec, {0})
    assert [t.modes for t in va.terms] == [(1, 0, 0)]
    assert [t.modes for t in vb.terms] == [(0, 1, -1)]
    assert [t.modes for t in vi.terms] == [(1, 0, 2)]
    assert PotentialSpec(3, va.terms + vb.terms + vi.terms) == spec


def test_split_interaction_rejects_trivial_parts():
    spec = PotentialSpec(2, (cosine_term(1.0, (1, 1)),))
    with pytest.raises(ValidationError):
        split_interaction(spec, set())
    with pytest.raises(ValidationError):
        split_interaction(spec, {0, 1})


class TestResonancePlan:
    def test_reduces_ratios(self):
        plan = ResonancePlan(((2, 4), (3, 3)))
        assert plan.rationals == ((1, 2), (1, 1))
        assert plan.shift_set == frozenset({0})
        assert plan.lowest_orders_only
        assert plan.is_exact

    def test_tau_includes_detuning(self):
        plan = ResonancePlan(((1, 2),), (1e-3,))
        assert plan.tau(0) == pytest.approx(TWO_PI + 1e-3)
        assert not plan.is_exact

    def test_default_detunings_are_zero(self):
        assert ResonancePlan(((1, 1), (1, 2))).detunings == (0.0, 0.0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValidationError):
            ResonancePlan(((0, 1),))
        with pytest.raises(ValidationError):
            ResonancePlan(((1, -2),))

    def test_rejects_detuning_length_mismatch(self):
        with pytest.raises(ValidationError):
            ResonancePlan(((1, 1), (1, 2)), (1e-3,))

    def test_higher_orders_flagged(self):
        assert not ResonancePlan(((1, 3), (1, 2))).lowest_orders_only


class TestResonanceSymmetry:
    def test_divisibility_rule(self):
        plan = ResonancePlan(((1, 3), (1, 4)))
        good = PotentialSpec(2, (cosine_term(1.0, (3, 2)),))
        bad = PotentialSpec(2, (cosine_term(1.0, (3, 1)),))
        assert satisfies_resonance_symmetry(good, plan)
        assert not satisfies_resonance_symmetry(bad, plan)

    def test_lowest_orders_are_unconstrained(self):
        plan = ResonancePlan(((1, 1), (1, 2)))
        spec = PotentialSpec(2, (cosine_term(1.0, (5, 7)),))
        assert satisfies_resonance_symmetry(spec, plan)

    def test_requires_exact_plan(self):
        plan = ResonancePlan(((1, 3),), (1e-4,))
        spec = PotentialSpec(1, (cosine_term(1.0, (3,)),))
        with pytest.raises(ValidationError):
            satisfies_resonance_symmetry(spec, plan)

    def test_requires_matching_rotor_count(self):
        plan = ResonancePlan(((1, 3),))
        spec = PotentialSpec(2, (cosine_term(1.0, (3, 0)),))
        with pytest.raises(ValidationError):
            satisfies_resonance_symmetry(spec, plan)
