import numpy as np
import pytest

from kickres.entanglement import (
    BipartitionSpec,
    epsilon_second_moment,
    product_basis_purity,
    schmidt_purity,
)
from kickres.errors import ValidationError
from kickres.potential import PotentialSpec, ResonancePlan, cosine_term
from kickres.rotor_engine import RotorEngine, RotorLattice, RotorState

from oracles import S_ODD_UNIT, dense_purity


def random_lattice_state(lattice, seed, concentrated=False):
    rng = np.random.default_rng(seed)
    amps = np.zeros(lattice.shape, dtype=complex)
    if concentrated:
        # fill only a central block so kicks cannot reach the window edge
        core = tuple(
            slice(m // 2 - 3, m // 2 + 4) for m in lattice.shape
        )
        block = rng.normal(size=amps[core].shape) + 1j * rng.normal(
            size=amps[core].shape
        )
        amps[core] = block
    else:
        amps = rng.normal(size=lattice.shape) + 1j * rng.normal(
            size=lattice.shape
        )
    amps /= np.linalg.norm(amps)
    return RotorState(lattice, amps)


def brute_force_purity(phi, chi, energies, t):
    v = np.abs(np.asarray(phi)) ** 2
    w = np.abs(np.asarray(chi)) ** 2
    total = 0.0
    for a in range(v.size):
        for b in range(w.size):
            for a2 in range(v.size):
                for b2 in range(w.size):
                    eps = (
                        energies[a, b]
                        + energies[a2, b2]
                        - energies[a2, b]
                        - energies[a, b2]
                    )
                    total += (
                        v[a] * w[b] * v[a2] * w[b2] * np.cos(t * eps)
                    )
    return total


def brute_force_eps_sq(phi, chi, energies):
    v = np.abs(np.asarray(phi)) ** 2
    w = np.abs(np.asarray(chi)) ** 2
    total = 0.0
    for a in range(v.size):
        for b in range(w.size):
            for a2 in range(v.size):
                for b2 in range(w.size):
                    eps = (
                        energies[a, b]
                        + energies[a2, b2]
                        - energies[a2, b]
                        - energies[a, b2]
                    )
                    total += v[a] * w[b] * v[a2] * w[b2] * eps**2
    return total


def random_instance(rng, d_a, d_b):
    phi = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
    phi /= np.linalg.norm(phi)
    chi = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
    chi /= np.linalg.norm(chi)
    energies = rng.uniform(-np.pi, np.pi, size=(d_a, d_b))
    return phi, chi, energies


class TestBipartition:
    def test_complement(self):
        part = BipartitionSpec(4, (2, 0))
        assert part.part_a == (0, 2)
        assert part.part_b == (1, 3)
        assert part.swapped().part_a == (1, 3)

    def test_rejects_improper_subsets(self):
        with pytest.raises(ValidationError):
            BipartitionSpec(3, ())
        with pytest.raises(ValidationError):
            BipartitionSpec(3, (0, 1, 2))
        with pytest.raises(ValidationError):
            BipartitionSpec(3, (3,))
        with pytest.raises(ValidationError):
            BipartitionSpec(3, (0, 0))
        with pytest.raises(ValidationError):
            BipartitionSpec(1, (0,))


class TestSchmidtPurity:
    def test_product_state(self):
        lat = RotorLattice(((-3, 3), (-4, 4)))
        state = RotorState.momentum_eigenstate(lat, (1, -2))
        part = BipartitionSpec(2, (0,))
        assert schmidt_purity(state, part) == pytest.approx(1.0, abs=1e-14)

    def test_bell_pair(self):
        lat = RotorLattice(((-2, 2), (-2, 2)))
        amps = np.zeros(lat.shape, dtype=complex)
        zero = 2  # index of l = 0 in the window
        one = 3
        amps[zero, zero] = 1 / np.sqrt(2)
        amps[one, one] = 1 / np.sqrt(2)
        state = RotorState(lat, amps)
        part = BipartitionSpec(2, (0,))
        assert schmidt_purity(state, part) == pytest.approx(0.5, abs=1e-14)

    def test_matches_dense_partial_trace(self):
        lat = RotorLattice(((-2, 2), (-2, 3), (-3, 2)))
        state = random_lattice_state(lat, 7)
        for block in [(0,), (1,), (2,), (0, 2), (1, 2)]:
            part = BipartitionSpec(3, block)
            expected = dense_purity(
                state.amplitudes.ravel(), lat.shape, block
            )
            assert schmidt_purity(state, part) == pytest.approx(
                expected, abs=1e-12
            )

    def test_subsystem_symmetry(self):
        lat = RotorLattice(((-4, 4), (-3, 3), (-2, 2)))
        for seed in range(6):
            state = random_lattice_state(lat, 100 + seed)
            part = BipartitionSpec(3, (0, 2))
            a = schmidt_purity(state, part)
            b = schmidt_purity(state, part.swapped())
            assert abs(a - b) < 1e-12


def two_rotor_setup(xi):
    pot = PotentialSpec(
        2,
        (
            cosine_term(0.1, (1, 0)),
            cosine_term(0.2, (0, 1)),
            cosine_term(xi, (1, -1)),
        ),
    )
    plan = ResonancePlan(((1, 1), (1, 2)))
    return pot, plan


class TestEntropySeries:
    def test_antisymmetric_interaction_alternates(self):
        pot, plan = two_rotor_setup(1.0)
        lat = RotorLattice.for_run(pot, (0, 0), steps=6)
        engine = RotorEngine(pot, plan, lat)
        initial = RotorState.momentum_eigenstate(lat, (0, 0))
        part = BipartitionSpec(2, (0,))
        seen = []
        for t, state in engine.trajectory(initial, 6):
            seen.append(t)
            s_lin = 1.0 - schmidt_purity(state, part)
            if t % 2 == 0:
                assert abs(s_lin) < 1e-10
            else:
                # odd-step plateau: 1 - sum_n J_n(xi)^4 for xi = 1
                assert s_lin == pytest.approx(S_ODD_UNIT, abs=1e-9)
        assert seen == list(range(7))

    def test_local_potential_leaves_entropy_unchanged(self):
        local = PotentialSpec(
            2, (cosine_term(0.8, (1, 0)), cosine_term(1.1, (0, 2)))
        )
        plan = ResonancePlan(((1, 1), (1, 1)))
        lat = RotorLattice(((-44, 44), (-44, 44)))
        state = random_lattice_state(lat, 42, concentrated=True)
        part = BipartitionSpec(2, (1,))
        before = schmidt_purity(state, part)
        engine = RotorEngine(local, plan, lat)
        for _, current in engine.trajectory(state, 4):
            assert abs(schmidt_purity(current, part) - before) < 1e-12

    def test_empty_interaction_keeps_product_states_pure(self):
        local = PotentialSpec(
            2, (cosine_term(1.4, (1, 0)), cosine_term(0.9, (0, 1)))
        )
        plan = ResonancePlan(((1, 2), (1, 2)))
        lat = RotorLattice.for_run(local, (0, 0), steps=5)
        engine = RotorEngine(local, plan, lat)
        initial = RotorState.momentum_eigenstate(lat, (0, 0))
        part = BipartitionSpec(2, (0,))
        for _, state in engine.trajectory(initial, 5):
            assert abs(1.0 - schmidt_purity(state, part)) < 1e-12


class TestProductBasisPurity:
    def test_t_zero_is_pure(self):
        rng = np.random.default_rng(0)
        phi, chi, energies = random_instance(rng, 6, 5)
        assert product_basis_purity(phi, chi, energies, 0) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_separable_energies_stay_pure(self):
        rng = np.random.default_rng(1)
        phi, chi, _ = random_instance(rng, 5, 7)
        f = rng.normal(size=5)
        g = rng.normal(size=7)
        energies = f[:, None] + g[None, :]
        for t in (1, 3, 10, 250):
            assert product_basis_purity(
                phi, chi, energies, t
            ) == pytest.approx(1.0, abs=1e-12)

    def test_matches_quadruple_sum(self):
        rng = np.random.default_rng(2)
        for d_a, d_b in [(2, 2), (4, 4), (5, 8), (8, 3)]:
            phi, chi, energies = random_instance(rng, d_a, d_b)
            for t in (1, 3):
                fast = product_basis_purity(phi, chi, energies, t)
                slow = brute_force_purity(phi, chi, energies, t)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_epsilon_second_moment_matches_quadruple_sum(self):
        rng = np.random.default_rng(3)
        for d_a, d_b in [(3, 5), (6, 4), (8, 8)]:
            phi, chi, energies = random_instance(rng, d_a, d_b)
            fast = epsilon_second_moment(phi, chi, energies)
            slow = brute_force_eps_sq(phi, chi, energies)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_short_time_quadratic_with_quartic_remainder(self):
        rng = np.random.default_rng(4)
        phi, chi, energies = random_instance(rng, 7, 6)
        energies = energies * 0.01  # weak coupling
        eps_sq = epsilon_second_moment(phi, chi, energies)
        residuals = []
        for t in (1, 2, 4):
            s_lin = 1.0 - product_basis_purity(phi, chi, energies, t)
            residuals.append(abs(s_lin - 0.5 * eps_sq * t**2))
        # remainder should scale like t^4: doubling t multiplies it by ~16
        assert 10.0 < residuals[1] / residuals[0] < 22.0
        assert 10.0 < residuals[2] / residuals[1] < 22.0

    def test_rejects_unnormalized_or_mismatched(self):
        energies = np.zeros((2, 3))
        good_a = np.array([1.0, 0.0])
        good_b = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            product_basis_purity(2 * good_a, good_b, energies, 1)
        with pytest.raises(ValidationError):
            product_basis_purity(good_a, good_b, np.zeros((3, 2)), 1)
        with pytest.raises(ValidationError):
            epsilon_second_moment(good_a, good_b, np.zeros((2, 2)))


class TestCrossCheck:
    def test_schmidt_vs_product_basis_on_resonant_run(self):
        # with a coupling that survives the half-period shift, the even
        # step map is exp(-i m (V + V')), diagonal in the product angle
        # basis, so the reshaped-SVD route and the quasienergy-grid route
        # must return the same purity
        xi = 0.4
        pot = PotentialSpec(
            2,
            (
                cosine_term(0.1, (1, 0)),
                cosine_term(0.2, (0, 1)),
                cosine_term(xi, (1, -2)),
            ),
        )
        plan = ResonancePlan(((1, 1), (1, 2)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=8)
        engine = RotorEngine(pot, plan, lat)
        initial = RotorState.momentum_eigenstate(lat, (0, 0))
        part = BipartitionSpec(2, (0,))

        theta1 = lat.angles(0)
        theta2 = lat.angles(1)
        grid1, grid2 = np.meshgrid(theta1, theta2, indexing="ij")
        # the local 0.2 cos(theta2) term flips sign under the shift and
        # cancels over a double step; the coupling (even harmonic of the
        # shifted rotor) survives and doubles
        double_step = 2 * (
            0.1 * np.cos(grid1) + xi * np.cos(grid1 - 2 * grid2)
        )
        phi = np.full(theta1.size, 1.0 / np.sqrt(theta1.size))
        chi = np.full(theta2.size, 1.0 / np.sqrt(theta2.size))
        for t, state in engine.trajectory(initial, 8):
            if t % 2 != 0:
                continue
            mu_state = schmidt_purity(state, part)
            mu_basis = product_basis_purity(phi, chi, double_step, t // 2)
            assert mu_state == pytest.approx(mu_basis, abs=1e-10)
            if t >= 4:
                assert 1.0 - mu_state > 1e-3  # entanglement actually grows
