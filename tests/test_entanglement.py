import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kickres.cli import _rotor_run_pieces, load_config
from kickres.entanglement import (
    BOX_FLOOR,
    BipartitionSpec,
    _occupied_box,
    epsilon_second_moment,
    schmidt_purity,
)
from kickres.errors import ResourceCapError, ValidationError
from kickres.potential import PotentialSpec, ResonancePlan, cosine_term
from kickres.rotor_engine import RotorEngine, RotorLattice, RotorState

from oracles import (
    S_ODD_UNIT,
    block_matrix,
    dense_purity,
    product_basis_purity,
    svd_purity,
    window_purity,
)

ROOT = Path(__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("bad", [0.7, "1", True, 1.0])
    def test_rejects_non_integer_indices(self, bad):
        # int() turned 0.7 into rotor 0 and accepted "1"
        with pytest.raises(ValidationError, match="part_a"):
            BipartitionSpec(2, (bad,))


def assert_box_pinned(state, block):
    """schmidt_purity against the full-window Gram product and the SVD."""
    lat = state.lattice
    mine = schmidt_purity(state, BipartitionSpec(lat.rotor_count, block))
    assert abs(mine - window_purity(state.amplitudes, block)) <= 1e-14
    matrix = block_matrix(state.amplitudes, lat.shape, block)
    assert abs(mine - svd_purity(matrix)) <= 1e-12
    return mine


def assert_pinned_to_oracles(state, block):
    """assert_box_pinned, and against the dense partial-trace oracle."""
    mine = assert_box_pinned(state, block)
    psi = state.amplitudes.ravel()
    assert abs(mine - dense_purity(psi, state.lattice.shape, block)) <= 1e-12
    return mine


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
        # shape 5 x 6 x 6: the two-rotor blocks have more rows than
        # columns, so they take the transposed branch
        lat = RotorLattice(((-2, 2), (-2, 3), (-3, 2)))
        state = random_lattice_state(lat, 7)
        for block in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            assert_pinned_to_oracles(state, block)

    def test_workspace_respects_element_cap(self):
        # 25 amplitudes fit the cap of 30, the purity workspace
        # (25 + 2 * 5 * 5 = 75 elements) does not
        lat = RotorLattice(((-2, 2), (-2, 2)), element_cap=30)
        state = RotorState.momentum_eigenstate(lat, (0, 0))
        with pytest.raises(ResourceCapError, match="purity workspace 75"):
            schmidt_purity(state, BipartitionSpec(2, (0,)))

    def test_workspace_counts_the_permuted_copy(self):
        # Blocks whose axes are not adjacent in a 3-body tensor need a
        # permuted copy of the amplitudes besides the conjugate one: the
        # cap must refuse a budget below what the kernel really allocates.
        lat = RotorLattice(((0, 39), (0, 29), (0, 49)), element_cap=10**6)
        state = random_lattice_state(lat, 11)
        for block in [(0, 2), (1,)]:
            part = BipartitionSpec(3, block)
            tracemalloc.start()
            try:
                schmidt_purity(state, part)
                peak = tracemalloc.get_traced_memory()[1] // 16
            finally:
                tracemalloc.stop()
            assert peak > 2 * state.amplitudes.size
            tight = RotorLattice(lat.windows, element_cap=peak - 1)
            with pytest.raises(ResourceCapError, match="purity workspace"):
                schmidt_purity(RotorState(tight, state.amplitudes), part)
            roomy = RotorLattice(lat.windows, element_cap=int(1.05 * peak))
            schmidt_purity(RotorState(roomy, state.amplitudes), part)

    def test_workspace_counts_the_box_copy(self):
        # Block (0, 1) of a 3-body tensor reshapes to M as a view, but
        # once the box trims the middle axis the two axes no longer merge
        # in memory and M is a copy: the cap must count it.
        lat = RotorLattice(((0, 39), (0, 29), (0, 49)), element_cap=10**6)
        amps = random_lattice_state(lat, 12).amplitudes
        amps[:, :2] = amps[:, -2:] = 0.0
        state = RotorState(lat, amps / np.linalg.norm(amps))
        assert _occupied_box(state.momentum_marginals())[1] == slice(2, 28)
        part = BipartitionSpec(3, (0, 1))
        tracemalloc.start()
        try:
            schmidt_purity(state, part)
            peak = tracemalloc.get_traced_memory()[1] // 16
        finally:
            tracemalloc.stop()
        # more than the window's one conjugate copy: the box was copied
        assert peak > 1.5 * state.amplitudes.size
        tight = RotorLattice(lat.windows, element_cap=peak - 1)
        with pytest.raises(ResourceCapError, match="purity workspace"):
            schmidt_purity(RotorState(tight, state.amplitudes), part)
        roomy = RotorLattice(lat.windows, element_cap=int(1.05 * peak))
        schmidt_purity(RotorState(roomy, state.amplitudes), part)

    def test_workspace_counts_the_strided_box_copy(self):
        # Block (0, 1) of a 3-body tensor reshapes to M as a view, but
        # with the odd class of the last axis empty the box steps by 2
        # there, and the strided M is copied before its gemm: keeping 13
        # of 25 indices makes that copy outgrow the window's own count.
        lat = RotorLattice(((0, 39), (0, 39), (0, 24)), element_cap=10**6)
        amps = random_lattice_state(lat, 13).amplitudes
        amps[..., 1::2] = 0.0
        state = RotorState(lat, amps / np.linalg.norm(amps))
        box = _occupied_box(state.momentum_marginals())
        assert box == (slice(0, 40), slice(0, 40), slice(0, 25, 2))
        part = BipartitionSpec(3, (0, 1))
        tracemalloc.start()
        try:
            schmidt_purity(state, part)
            peak = tracemalloc.get_traced_memory()[1] // 16
        finally:
            tracemalloc.stop()
        # more than the box's one conjugate copy: M was copied
        assert peak > 1.5 * state.amplitudes[box].size
        tight = RotorLattice(lat.windows, element_cap=peak - 1)
        with pytest.raises(ResourceCapError, match="purity workspace"):
            schmidt_purity(RotorState(tight, state.amplitudes), part)
        roomy = RotorLattice(lat.windows, element_cap=int(1.05 * peak))
        schmidt_purity(RotorState(roomy, state.amplitudes), part)

    def test_subsystem_symmetry(self):
        lat = RotorLattice(((-4, 4), (-3, 3), (-2, 2)))
        for seed in range(6):
            state = random_lattice_state(lat, 100 + seed)
            part = BipartitionSpec(3, (0, 2))
            a = schmidt_purity(state, part)
            b = schmidt_purity(state, part.swapped())
            assert abs(a - b) < 1e-12

    def test_evolved_grown_fig4_state(self):
        pot = PotentialSpec(
            2,
            (
                cosine_term(9.0, (1, 0)),
                cosine_term(10.0, (0, 1)),
                cosine_term(0.1, (1, -1)),
            ),
        )
        plan = ResonancePlan(((1, 3), (1, 5)))
        lat = RotorLattice.for_run(pot, (0, 0), steps=2)
        engine = RotorEngine(pot, plan, lat)
        initial = RotorState.momentum_eigenstate(lat, (0, 0))
        state = engine.evolve(initial, 6)
        assert engine.grow_events >= 1
        assert state.lattice.shape != lat.shape
        for block in [(0,), (1,)]:
            mu2 = assert_pinned_to_oracles(state, block)
            assert 1.0 - mu2 > 1e-3

    def test_near_product_state(self):
        lat = RotorLattice(((-3, 3), (-4, 4)))
        rng = np.random.default_rng(5)
        left = rng.normal(size=7) + 1j * rng.normal(size=7)
        right = rng.normal(size=9) + 1j * rng.normal(size=9)
        noise = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
        amps = np.outer(left, right)
        amps = amps / np.linalg.norm(amps) + 7e-6 * noise / np.linalg.norm(
            noise
        )
        state = RotorState(lat, amps / np.linalg.norm(amps))
        mu2 = assert_pinned_to_oracles(state, (0,))
        assert 1e-11 < 1.0 - mu2 < 1e-9


def config_trajectory(path):
    """(part, trajectory) of a bundled rotor config's simulate run."""
    cfg = load_config(path, "simulate")
    engine, state = _rotor_run_pieces(cfg)
    return cfg.part, engine.trajectory(state, cfg.steps)


def exact_purity(amplitudes):
    """Tr(rho_A^2) of a real 2-rotor amplitude matrix, rows as block A, in
    exact rational arithmetic on the float values."""
    rows = [[Fraction(float(x)) for x in row] for row in amplitudes.real]
    gram = [[sum(x * y for x, y in zip(r, q)) for q in rows] for r in rows]
    return sum(g * g for row in gram for g in row)


def box_steps(state):
    return tuple(cut.step for cut in _occupied_box(state.momentum_marginals()))


# States after t = 0 whose box steps by 2 on some axis: fig1's axis 1 on
# its even steps, where the odd part of that rotor's kicks cancels; fig3's
# kicks are even on axis 0, whose box steps by 2 at every step, and axis
# 1's does too at t = 2, 4, 6.
STRIDED_STATES = {
    "perfbench/configs/fig4_head.yaml": 0,
    "configs/fig1.yaml": 50,
    "configs/fig3.yaml": 100,
}


class TestOccupiedBox:
    @pytest.mark.parametrize("config", list(STRIDED_STATES))
    def test_pinned_along_config_run(self, config):
        # every box of a momentum eigenstate start steps by 2 at t = 0
        part, trajectory = config_trajectory(ROOT / config)
        steps = []
        for _, state in trajectory:
            assert_box_pinned(state, part.part_a)
            steps.append(box_steps(state))
        assert steps[0] == (2, 2)
        assert sum(2 in s for s in steps[1:]) == STRIDED_STATES[config]
        if "fig3" in config:
            assert {s[0] for s in steps} == {2}
            assert [t for t, s in enumerate(steps) if s[1]] == [0, 2, 4, 6]
        box = _occupied_box(state.momentum_marginals())
        lengths = state.amplitudes[box].shape
        assert all(n < m for n, m in zip(lengths, state.lattice.shape))

    @pytest.mark.parametrize(
        "core",
        [
            (slice(2, 9), slice(1, 10), slice(None)),
            (slice(None), slice(3, 7), slice(0, 11)),
            (slice(4, 5), slice(None), slice(5, 14)),
        ],
    )
    def test_zero_padded_three_rotor_states(self, core):
        lat = RotorLattice(((0, 11), (0, 9), (0, 13)))
        rng = np.random.default_rng(31)
        amps = np.zeros(lat.shape, dtype=complex)
        shape = amps[core].shape
        amps[core] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        state = RotorState(lat, amps / np.linalg.norm(amps))
        box = _occupied_box(state.momentum_marginals())
        assert state.amplitudes[box].shape == shape
        for block in [(0,), (1,), (0, 2), (0, 1)]:
            assert_box_pinned(state, block)

    def test_mass_above_the_floor_is_kept(self):
        # A 9 x 13 window: a product core in rows 3..5 and columns 4..8,
        # plus 1e-12 of probability in edge row 0 along the core's column
        # profile and in edge column 12 along its row profile.  Dropping
        # either moves the purity by ~2e-12; so would a higher floor, or
        # an axis trimmed by the other axis's marginal.
        lat = RotorLattice(((-4, 4), (-6, 6)))
        rng = np.random.default_rng(8)
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        amps = np.zeros(lat.shape, dtype=complex)
        amps[3:6, 4:9] = np.outer(u, v)
        amps[0, 4:9] = 1e-6 * v
        amps[3:6, 12] = 1e-6 * u
        state = RotorState(lat, amps / np.linalg.norm(amps))
        full = window_purity(state.amplitudes, (0,))
        core = state.amplitudes[3:6, 4:9]
        assert abs(window_purity(core, (0,)) - full) > 1e-12
        for block in [(0,), (1,)]:
            part = BipartitionSpec(2, block)
            assert abs(schmidt_purity(state, part) - full) <= 1e-14

    def test_mass_under_the_floor_moves_purity_within_bound(self):
        # 0.9 BOX_FLOOR at each of the four window ends, each on a cell
        # that overlaps the core: the box drops all four, and the exact
        # purities of window and box differ by 0 <= delta <= 4 N floor.
        lat = RotorLattice(((0, 6), (0, 7)))
        rng = np.random.default_rng(9)
        amps = np.zeros(lat.shape, dtype=complex)
        amps[1:6, 1:7] = rng.normal(size=(5, 6))
        amps /= np.linalg.norm(amps)
        planted = np.sqrt(0.9 * BOX_FLOOR)
        for cell in [(0, 3), (6, 4), (2, 0), (3, 7)]:
            amps[cell] = planted
        state = RotorState(lat, amps)
        box = _occupied_box(state.momentum_marginals())
        assert box == (slice(1, 6), slice(1, 7))
        window = exact_purity(state.amplitudes)
        inside = exact_purity(state.amplitudes[box])
        delta = window - inside
        assert 0 < delta <= 4 * 2 * Fraction(BOX_FLOOR)
        part = BipartitionSpec(2, (0,))
        assert abs(schmidt_purity(state, part) - float(inside)) <= 1e-15


    def test_parity_class_under_the_floor_moves_purity_within_bound(self):
        # A core on the even offsets of rows 1..7 and columns 1..9 of a
        # 9 x 11 window, plus 0.9 BOX_FLOOR at each of the four window ends
        # and on one odd offset of each axis, each cell placed so that the
        # other axis sees it in its occupied class: the box drops all six,
        # and the exact purities of window and box differ by
        # 0 <= delta <= 6 N floor.
        lat = RotorLattice(((0, 8), (0, 10)))
        rng = np.random.default_rng(10)
        amps = np.zeros(lat.shape, dtype=complex)
        amps[1:8:2, 1:10:2] = rng.normal(size=(4, 5))
        amps /= np.linalg.norm(amps)
        planted = np.sqrt(0.9 * BOX_FLOOR)
        for cell in [(0, 3), (8, 5), (3, 0), (5, 10), (4, 5), (3, 6)]:
            amps[cell] = planted
        state = RotorState(lat, amps)
        box = _occupied_box(state.momentum_marginals())
        assert box == (slice(1, 8, 2), slice(1, 10, 2))
        window = exact_purity(state.amplitudes)
        inside = exact_purity(state.amplitudes[box])
        delta = window - inside
        assert 0 < delta <= 6 * 2 * Fraction(BOX_FLOOR)
        part = BipartitionSpec(2, (0,))
        assert abs(schmidt_purity(state, part) - float(inside)) <= 1e-15

    def test_parity_class_above_the_floor_keeps_step_one(self):
        # The same even-offset core with 1e-12 of probability on the odd
        # offsets of each axis, along the core's profile on the other
        # axis: dropping either class moves the purity by ~2e-12, so the
        # box must keep step 1 on both axes.
        lat = RotorLattice(((0, 8), (0, 10)))
        rng = np.random.default_rng(11)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        amps = np.zeros(lat.shape, dtype=complex)
        amps[1:8:2, 1:10:2] = np.outer(u, v)
        amps[4, 1:10:2] = 1e-6 * v
        amps[1:8:2, 6] = 1e-6 * u
        state = RotorState(lat, amps / np.linalg.norm(amps))
        assert box_steps(state) == (None, None)
        full = window_purity(state.amplitudes, (0,))
        even = state.amplitudes[1:8:2, 1:10:2]
        assert abs(window_purity(even, (0,)) - full) > 1e-12
        for block in [(0,), (1,)]:
            part = BipartitionSpec(2, block)
            assert abs(schmidt_purity(state, part) - full) <= 1e-14


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

    @pytest.mark.parametrize(
        "phi, energies, says",
        [
            # np.asarray(None, dtype=complex) is NaN, and so was the result
            (None, [[0.0]], "phi_a must be a sequence, not None"),
            ([np.nan], [[0.0]], "phi_a must be normalized"),
            ([1.0], [[np.nan]], "energies must be a finite"),
            ([1.0], [[np.inf]], "energies must be a finite"),
        ],
    )
    def test_epsilon_second_moment_rejects_non_finite_input(
        self, phi, energies, says
    ):
        with pytest.raises(ValidationError, match=f"^{says}"):
            epsilon_second_moment(phi, [1.0], np.array(energies))


class TestCrossCheck:
    def test_schmidt_vs_product_basis_on_resonant_run(self):
        # with a coupling that survives the half-period shift, the even
        # step map is exp(-i m (V + V')), diagonal in the product angle
        # basis, so the reshaped-Gram route and the quasienergy-grid route
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
