"""Hand-rolled reference results the suite checks the library against.

Everything here is deliberately independent of the package internals:
Bessel identities, quadrature-built matrices, dense partial traces.
Slow and obvious beats fast and clever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from kickres.entanglement import _coefficient_weights, schmidt_purity
from kickres.errors import ValidationError
from kickres.potential import (
    FourierTerm,
    PotentialSpec,
    _check_seq,
    decompose,
    effective_potential,
)
from kickres.predictor import (
    EpsilonMoments,
    ProductAngleDensity,
    SlinEstimate,
    _check_interaction_inputs,
    _cos_product_mean,
    _four_block,
)
from kickres.rotor_engine import (
    MomentRecord,
    RotorEngine,
    RotorLattice,
    RotorState,
    marginal_moments,
    measure_moments,
)
from kickres.top_engine import TopState, _along_axis, build_spin_ops

# Linear entropy plateau 1 - sum_n J_n(xi)^4 for a one-term coupling of
# strength xi with uniform initial angles (momentum eigenstates).  Values
# frozen from the Bessel sum below with a 200-order tail check.
S_ODD_UNIT = 0.581812227138689  # xi = 1.0
S_ODD_TENTH = 0.009943923279238542  # xi = 0.1


def shifted(spec, shift_set):
    """V with ``theta_j -> theta_j + pi`` on the given rotors.

    Each term picks up ``(-1)**(sum of its modes on the shifted rotors)``;
    the mode vectors are unchanged.
    """
    shift = frozenset(shift_set)
    terms = tuple(
        FourierTerm(
            t.coefficient * (-1.0) ** sum(t.modes[j] for j in shift),
            t.modes,
            t.phase,
        )
        for t in spec.terms
    )
    return PotentialSpec(spec.rotor_count, terms)


def _orders(x):
    return np.arange(-int(abs(x)) - 60, int(abs(x)) + 61)


def kick_variance(k):
    """<p^2> of |p=0> after one cos(theta) kick: sum_n n^2 J_n(k)^2.

    Equals k^2/2 analytically; summing the series keeps the check
    independent of that simplification.
    """
    n = _orders(k)
    return float(np.sum(n**2 * jv(n, k) ** 2))


def uniform_cos_moment(c, t):
    """<cos(t * eps)> for a single coupling term of coefficient c with
    uniform angles: sum_n J_n(c t)^4."""
    x = c * t
    return float(np.sum(jv(_orders(x), x) ** 4))


def linregress_fit(xs, ys):
    """(slope, intercept, stderr, ci95) from scipy.stats, the reference
    for the closed-form least squares in ``scaling_fit``."""
    from scipy import stats

    fit = stats.linregress(xs, ys)
    spread = stats.t.ppf(0.975, len(xs) - 2)
    return fit.slope, fit.intercept, fit.stderr, spread * fit.stderr


def t_quantile(p, df):
    """Student-t quantile from scipy, the reference for the finite-series
    quantile behind ``scaling_fit``'s ci95."""
    from scipy.special import stdtrit

    return float(stdtrit(df, p))


def displacement_stats_reference(series):
    """Fill displacement D, squared displacement sigma^2, and variance of
    every record against the first, in a second pass over the whole
    series: the rebuild that ``observe`` replaced by filling each record
    as it measures it, with the same expressions in the same order.

    sigma^2 uses <p^2>_t - 2<p>_t <p>_0 + <p^2>_0, which equals the
    Heisenberg squared displacement exactly when the initial state is a
    momentum eigenstate and stays non-negative for any initial state.
    """
    if not series:
        return []
    ref = series[0]
    if ref.t != 0:
        raise ValidationError("the first record must be the t=0 reference")
    out = []
    for rec in series:
        disp, sig, var = [], [], []
        for j in range(len(rec.mean)):
            d = rec.mean[j] - ref.mean[j]
            s2 = rec.second[j] - 2.0 * rec.mean[j] * ref.mean[j] + ref.second[j]
            disp.append(d)
            sig.append(s2)
            var.append(s2 - d * d)
        out.append(
            MomentRecord(
                t=rec.t,
                mean=rec.mean,
                second=rec.second,
                displacement=tuple(disp),
                spread=tuple(sig),
                variance=tuple(var),
            )
        )
    return out


def fixed_window_engine(potential, plan, momenta, steps, margin):
    """(engine, initial state) of a run from momentum eigenstates on one
    window sized for the worst-case reach of all the steps.

    Each half-width is ceil(steps * bandwidth) + margin, on exact
    (unrounded) lengths: the sizing every run used before windows grew on
    demand.  It uses the package's own engine: what it pins is the window
    policy, not the propagator.  Step it with fixed_window_states, not the
    engine's trajectory, which would grow the window.
    """
    windows = []
    for j, p0 in enumerate(momenta):
        half = math.ceil(steps * potential.kick_bandwidth(j)) + margin
        windows.append((p0 - half, p0 + half))
    lattice = RotorLattice(tuple(windows))
    engine = RotorEngine(potential, plan, lattice)
    return engine, RotorState.momentum_eigenstate(lattice, momenta)


def fixed_window_states(engine, state, steps):
    """Yield (t, state) for t = 0..steps by plain engine.step calls.

    The window never grows.  A state whose edge mass passes the engine's
    tail tolerance raises AssertionError, naming the step: the margin is
    too small for a fixed-window reference.
    """
    shape = state.lattice.shape
    yield 0, state
    for t in range(1, steps + 1):
        state = engine.step(state)
        if not state.lattice.shape == engine.lattice.shape == shape:
            raise AssertionError(f"the window changed at step {t}")
        tail = max(state.edge_mass())
        if tail > engine.tail_tol:
            raise AssertionError(
                f"tail mass {tail:.3e} passes the tolerance at step {t}"
            )
        yield t, state


def fixed_window_run(potential, plan, momenta, steps, margin, part):
    """(moment records, purities) along the fixed_window_engine run, each
    step observed by a plain loop."""
    engine, state = fixed_window_engine(potential, plan, momenta, steps, margin)
    records, purities = [], []
    for t, current in fixed_window_states(engine, state, steps):
        records.append(measure_moments(current, t))
        purities.append(schmidt_purity(current, part))
    return records, purities


def kick_matrix_quadrature(v_of_theta, l_values, grid=4096):
    """<l'| e^{-iV(theta)} |l> for one rotor by trapezoid quadrature.

    The element depends only on l' - l (a Fourier coefficient of
    e^{-iV}), so compute each difference once.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    w = np.exp(-1j * v_of_theta(theta))
    l = np.asarray(l_values, dtype=int)
    diffs = np.arange(l.min() - l.max(), l.max() - l.min() + 1)
    coeff = np.exp(-1j * np.outer(diffs, theta)) @ w / grid
    lookup = dict(zip(diffs.tolist(), coeff))
    return np.array([[lookup[lp - ll] for ll in l] for lp in l])


def full_axis_marginals(prob):
    """Each axis's marginal of the whole probability tensor ``prob``: the
    kernel that the block sums of ``axis_marginals`` replaced."""
    n = prob.ndim
    return tuple(
        prob.sum(axis=tuple(k for k in range(n) if k != j)) for j in range(n)
    )


def momentum_marginals_reference(state):
    """Each rotor's momentum marginal of a RotorState from one
    lattice-size |a|^2."""
    return full_axis_marginals(np.abs(state.amplitudes) ** 2)


def jx_marginals_reference(state):
    """Each top's J_x-frame marginal from one whole-tensor re^2 + im^2,
    the |a|^2 that ``TopState`` took before it shared ``axis_marginals``."""
    amps = state._jx
    return full_axis_marginals(amps.real**2 + amps.imag**2)


def kick_table_reference(potential, lattice):
    """exp(-i V) on the lattice's angle grid through one complex
    temporary: the kernel that ``RotorEngine``'s cos/sin table replaced."""
    axes = [
        lattice.axis_view(j, lattice.angles(j))
        for j in range(lattice.rotor_count)
    ]
    return np.exp(-1j * potential.evaluate(axes))


def plain_step(engine, amplitudes):
    """One engine period through fresh arrays: ifftn, the kick table,
    fftn, then each rotor's free phase.  The step an in-place one must
    equal bit for bit: the same operations, none of them in place."""
    b = np.fft.fftn(np.fft.ifftn(amplitudes) * engine._kick_phase)
    for j, phase in enumerate(engine._free_phase):
        b = b * engine.lattice.axis_view(j, phase)
    return b


def edge_mass_reference(amplitudes):
    """Probability on the outermost two cells of each axis, from one
    whole-tensor |a|^2."""
    return tuple(
        float(marg[:2].sum() + marg[-2:].sum())
        for marg in full_axis_marginals(np.abs(amplitudes) ** 2)
    )


def block_matrix(psi, dims, part_a):
    """The pure state psi over ``dims`` as a dim_A x dim_B matrix, rows
    indexed by the axes in ``part_a`` (ascending), columns by the rest."""
    dims = tuple(int(d) for d in dims)
    axes_a = tuple(sorted(part_a))
    axes_b = tuple(j for j in range(len(dims)) if j not in axes_a)
    tensor = np.asarray(psi).reshape(dims).transpose(axes_a + axes_b)
    da = int(np.prod([dims[j] for j in axes_a]))
    return tensor.reshape(da, -1)


def dense_purity(psi, dims, part_a):
    """Tr(rho_A^2) by an explicit dense partial trace."""
    m = block_matrix(psi, dims, part_a)
    rho = m @ m.conj().T
    return float(np.real(np.trace(rho @ rho)))


def svd_purity(matrix):
    """Tr(rho_A^2) of a dim_A x dim_B amplitude matrix as the sum of the
    fourth powers of its singular values (Schmidt coefficients): the SVD
    kernel the Gram-matrix purity replaced."""
    singular = np.linalg.svd(matrix, compute_uv=False)
    return float(np.sum(singular**4))


def window_purity(amplitudes, part_a):
    """Tr(rho_A^2) as ||M M^dagger||_F^2 with M the block matrix of the whole
    amplitude tensor, turned so the smaller side is the row side: the
    full-window Gram product that schmidt_purity's occupied box replaced."""
    matrix = block_matrix(amplitudes, amplitudes.shape, part_a)
    if matrix.shape[0] > matrix.shape[1]:
        matrix = matrix.T
    gram = matrix @ matrix.conj().T
    return float(np.vdot(gram, gram).real)


def window_jz_moments(engine, state, t=0):
    """<J_nz> and <J_nz^2> of every top over the whole J_x-frame window:
    the full-lattice kernel that TopEngine.measure_jz_moments's occupied
    box replaced, with the engine's padded band stripped of its pads."""
    amps = state._jx
    dim = engine.spec.dimension
    means, seconds = [], []
    for n, padded in enumerate(engine._jz_bands):
        band = padded[1:-1]
        psi = amps.reshape(dim**n, dim, -1).view(float)
        applied = np.zeros_like(psi)
        applied[:, 1:] = band * psi[:, :-1]
        applied[:, :-1] += band * psi[:, 1:]
        means.append(float((psi * applied).sum()))
        seconds.append(float((applied * applied).sum()))
    return MomentRecord(t=int(t), mean=tuple(means), second=tuple(seconds))


def product_basis_purity(phi_a, chi_b, energies, t):
    """Purity of a product state expanded in a product eigenbasis.

    With weights v_a = |phi_a|^2, w_b = |chi_b|^2 and quasienergies E_ab,
    the purity after t cycles is

        mu2(t) = sum v_a w_b v_a' w_b' cos(t * (E_ab + E_a'b'
                                              - E_a'b - E_ab'))

    evaluated as v^T |P diag(w) P*|^2 v with P = exp(i t E), which costs
    O(d_A^2 d_B) instead of the quartic sum.  The contraction is oriented
    so the squared dimension is the smaller one.
    """
    v = _coefficient_weights(phi_a, "phi_a")
    w = _coefficient_weights(chi_b, "chi_b")
    grid = np.asarray(energies, dtype=float)
    if grid.ndim != 2 or grid.shape != (v.size, w.size):
        raise ValidationError(
            "energies must be a (len(phi_a), len(chi_b)) real matrix"
        )
    if not np.all(np.isfinite(grid)):
        raise ValidationError("energies must be finite")
    if not math.isfinite(float(t)):
        raise ValidationError("t must be finite")
    if v.size > w.size:
        v, w, grid = w, v, grid.T
    phases = np.exp(1j * float(t) * grid)
    mixed = (phases * w) @ phases.conj().T
    return float(np.real(v @ (np.abs(mixed) ** 2) @ v))


def slin_curve_reference(sample, times):
    """(t, s_lin, std_error) per step from one four-block draw, the per-step
    loop that slin_exact's row reuse and phase rotation replaced: a fresh
    cos, mean and np.std over the whole sample at every t."""
    root = math.sqrt(sample.sample_count)
    out = []
    for t in times:
        if t % 2 == 0:
            samples = np.cos(t * sample.eps_plus)
        else:
            samples = np.cos(t * sample.eps_plus + sample.eps_minus)
        out.append(
            (t, float(1.0 - np.mean(samples)), float(np.std(samples)) / root)
        )
    return out


# The Monte-Carlo pass as one full-length draw: the four-block arrays of
# every sample held at once and reduced by np.mean and np.std.  The blocked
# pass in kickres.predictor replaced it and must draw the same per-sample
# values.  It shares the four-block series, the exact second-moment kernel
# and the input checks with the package: what it pins is the draw and its
# reduction.


@dataclass(frozen=True, eq=False)
class FullEpsilonSample:
    """The whole draw: eps_plus[k], eps_minus[k] for the k-th sample."""

    v_plus: PotentialSpec
    v_minus: PotentialSpec
    initial: ProductAngleDensity
    part: object
    sample_count: int
    eps_plus: np.ndarray
    eps_minus: np.ndarray


def epsilon_sample_reference(
    v_i, shift_set, initial, part, sample_count, seed
) -> FullEpsilonSample:
    """Both copies drawn whole, sample(rng, sample_count) each from its
    own child stream of SeedSequence(seed).spawn(2), and the four-block
    series evaluated on every sample at once."""
    _check_interaction_inputs(v_i, initial, part, sample_count)
    v_plus, v_minus = decompose(v_i, shift_set)
    plain, primed = (
        initial.sample(np.random.default_rng(child), sample_count)
        for child in np.random.SeedSequence(seed).spawn(2)
    )
    columns = [
        block[:, j]
        for j in range(initial.rotor_count)
        for block in (plain, primed)
    ]
    eps = []
    for v in (v_plus, v_minus):
        series = _four_block(v, part)
        values = (
            np.zeros(sample_count)
            if series.is_zero
            else series.evaluate(columns)
        )
        values.flags.writeable = False
        eps.append(values)
    return FullEpsilonSample(
        v_plus, v_minus, initial, part, sample_count, eps[0], eps[1]
    )


def _mean_and_spread(x, overwrite=False):
    # (np.mean(x), np.std(x)) with the mean taken once
    mean = np.mean(x)
    dev = np.subtract(x, mean, out=x if overwrite else None)
    np.multiply(dev, dev, out=dev)
    return float(mean), float(np.sqrt(np.mean(dev)))


def epsilon_moments_reference(sample: FullEpsilonSample) -> EpsilonMoments:
    """epsilon_moments over the whole draw of epsilon_sample_reference."""
    doubled = ProductAngleDensity.from_factors(
        [factor for factor in sample.initial.factors for _ in range(2)]
    )
    series_plus = _four_block(sample.v_plus, sample.part)
    series_minus = _four_block(sample.v_minus, sample.part)
    plus_sq = _cos_product_mean(doubled, series_plus, series_plus)
    minus_sq = _cos_product_mean(doubled, series_minus, series_minus)
    cross = _cos_product_mean(doubled, series_plus, series_minus)
    eps_sq = plus_sq + 2 * cross + minus_sq
    eps_plus, eps_minus = sample.eps_plus, sample.eps_minus
    plus_mean, plus_spread = _mean_and_spread(eps_plus)
    minus_mean, minus_spread = _mean_and_spread(eps_minus)
    cos_mean, cos_spread = _mean_and_spread(
        np.cos(eps_plus + eps_minus), overwrite=True
    )
    root = math.sqrt(sample.sample_count)
    errors = {
        "eps_plus_sq": float(np.std(eps_plus**2)) / root,
        "eps_minus_sq": float(np.std(eps_minus**2)) / root,
        "eps_cross": float(np.std(eps_plus * eps_minus)) / root,
        "s_odd": cos_spread / root,
        "eps_plus_mean": plus_spread / root,
        "eps_minus_mean": minus_spread / root,
    }
    return EpsilonMoments(
        eps_plus_sq=plus_sq,
        eps_minus_sq=minus_sq,
        eps_cross=cross,
        norm=math.sqrt(max(eps_sq, 0.0)),
        s_odd=1.0 - cos_mean,
        eps_plus_mean=plus_mean,
        eps_minus_mean=minus_mean,
        std_errors=errors,
        sample_count=sample.sample_count,
    )


def slin_exact_reference(sample: FullEpsilonSample, times):
    """slin_exact over the whole draw: each distinct row key (0 if
    eps_plus == 0 else t, 0 if eps_minus == 0 else t mod 2) once, a key
    whose chain predecessor k - s is asked for rotated from it by
    exp(i s eps_plus), every other key a fresh cos."""
    times = _check_seq(times, "times", minimum=0)
    plus_zero = sample.v_plus.is_zero
    minus_zero = sample.v_minus.is_zero
    stride = 1 if minus_zero else 2
    root = math.sqrt(sample.sample_count)
    keys = [
        (0 if plus_zero else t, 0 if minus_zero else t % 2)
        for t in map(int, times)
    ]
    wanted = set(keys)
    row = np.empty(sample.sample_count)
    z = w = None
    rows = {}
    for k, p in sorted(wanted, key=lambda key: (key[1], key[0])):
        if (k - stride, p) in rows:
            np.multiply(z, w, out=z)
            np.copyto(row, z.real)
        else:
            np.multiply(sample.eps_plus, k, out=row)
            if p:
                np.add(row, sample.eps_minus, out=row)
            if (k + stride, p) in wanted:
                if z is None:
                    z = np.empty(sample.sample_count, dtype=complex)
                    w = np.empty(sample.sample_count, dtype=complex)
                    np.multiply(sample.eps_plus, stride, out=w.real)
                    np.sin(w.real, out=w.imag)
                    np.cos(w.real, out=w.real)
                np.sin(row, out=z.imag)
                np.cos(row, out=row)
                np.copyto(z.real, row)
            else:
                np.cos(row, out=row)
        mean, spread = _mean_and_spread(row, overwrite=True)
        rows[k, p] = (1.0 - mean, spread / root)
    return tuple(
        SlinEstimate(
            t=t,
            value=rows[key][0],
            std_error=rows[key][1],
            sample_count=sample.sample_count,
        )
        for t, key in zip(map(int, times), keys)
    )


def _sin_mean(density, term):
    # <sin(m . theta + phase)>
    value = np.exp(1j * term.phase) * density.char_vector(term.modes)
    return float(np.imag(value))


def _sin_pair_mean(density, one, two):
    # <sin(m1 . theta + f1) sin(m2 . theta + f2)>
    diff_modes = tuple(a - b for a, b in zip(one.modes, two.modes))
    sum_modes = tuple(a + b for a, b in zip(one.modes, two.modes))
    diff = np.exp(1j * (one.phase - two.phase)) * density.char_vector(
        diff_modes
    )
    total = np.exp(1j * (one.phase + two.phase)) * density.char_vector(
        sum_modes
    )
    return 0.5 * float(np.real(diff) - np.real(total))


def _impulse_mean(density, spec, rotor):
    # <-dV/dtheta_rotor> = sum_t c_t m_{t,rotor} <sin(...)>
    total = 0.0
    for term in spec.terms:
        weight = term.coefficient * term.modes[rotor]
        if weight != 0.0:
            total += weight * _sin_mean(density, term)
    return total


def _impulse_second(density, left, right, rotor):
    # <(dV_left/dtheta_rotor)(dV_right/dtheta_rotor)>
    total = 0.0
    for one in left.terms:
        w1 = one.coefficient * one.modes[rotor]
        if w1 == 0.0:
            continue
        for two in right.terms:
            w2 = two.coefficient * two.modes[rotor]
            if w2 == 0.0:
                continue
            total += w1 * w2 * _sin_pair_mean(density, one, two)
    return total


def wavepacket_reference(potential, shift_set, density):
    """(alpha_plus, alpha_minus, lambda_plus, lambda_minus, kappa), one
    tuple per field over the rotors, from per-term sine averages of the
    potential's derivative: the kernels the cosine-series moments of
    ``wavepacket_params`` replaced."""
    rows = []
    for j in range(potential.rotor_count):
        even, odd = decompose(effective_potential(potential, j), shift_set)
        rows.append(
            (
                _impulse_mean(density, even, j),
                _impulse_mean(density, odd, j),
                _impulse_second(density, even, even, j),
                _impulse_second(density, odd, odd, j),
                _impulse_second(density, even, odd, j),
            )
        )
    return tuple(zip(*rows))


# (A-side copy, B-side copy, sign) of the four-block combination, copy 0
# unprimed and copy 1 primed
_REFERENCE_BLOCKS = ((0, 0, 1.0), (1, 1, 1.0), (1, 0, -1.0), (0, 1, -1.0))


def _four_block_atoms(spec, part):
    # signed cosines over (rotor, copy) coordinates:
    # (coefficient, doubled modes, phase)
    in_a = set(part.part_a)
    atoms = []
    for a_copy, b_copy, sign in _REFERENCE_BLOCKS:
        for term in spec.terms:
            doubled = np.zeros((spec.rotor_count, 2), dtype=int)
            for j, m in enumerate(term.modes):
                copy = a_copy if j in in_a else b_copy
                doubled[j, copy] = m
            atoms.append((sign * term.coefficient, doubled, term.phase))
    return atoms


def _doubled_char(density, doubled):
    out = 1.0 + 0.0j
    for j in range(doubled.shape[0]):
        out *= density.char(j, doubled[j, 0])
        if out == 0.0j:
            return 0.0j
        out *= density.char(j, doubled[j, 1])
        if out == 0.0j:
            return 0.0j
    return out


def _four_block_product_mean(density, atoms_x, atoms_y):
    # exact <eps_x eps_y> over independent unprimed/primed blocks
    total = 0.0
    for cx, mx, fx in atoms_x:
        for cy, my, fy in atoms_y:
            diff = np.exp(1j * (fx - fy)) * _doubled_char(density, mx - my)
            summed = np.exp(1j * (fx + fy)) * _doubled_char(density, mx + my)
            total += 0.5 * cx * cy * float(np.real(diff) + np.real(summed))
    return total


def epsilon_second_moments_reference(sample):
    """(eps_plus_sq, eps_minus_sq, eps_cross) of an EpsilonSample's parity
    parts from per-block atoms over (rotor, copy) coordinates: the kernels
    the doubled-angle cosine series of ``epsilon_moments`` replaced."""
    density = sample.initial
    plus = _four_block_atoms(sample.v_plus, sample.part)
    minus = _four_block_atoms(sample.v_minus, sample.part)
    return (
        _four_block_product_mean(density, plus, plus),
        _four_block_product_mean(density, minus, minus),
        _four_block_product_mean(density, plus, minus),
    )


def spin_matrices(j):
    """Dense (J_x, J_y, J_z) in the J_z eigenbasis ordered m = -j..j."""
    dim = int(round(2 * j)) + 1
    m = np.arange(dim) - j
    jz = np.diag(m.astype(float))
    jp = np.zeros((dim, dim))
    for i in range(dim - 1):
        jp[i + 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jx = (jp + jp.T) / 2.0
    jy = (jp - jp.T) / 2j
    return jx, jy, jz


def _top_axis_transform(amps, matrix, axis):
    moved = np.tensordot(matrix, amps, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def jz_frame_top_run(engine, amplitudes, steps):
    """J_z-basis amplitudes after 0..steps kick cycles of a TopEngine's
    model, stepped entirely in the J_z frame: the per-step path the
    J_x-frame propagation replaced.

    Each cycle multiplies every axis by its twist phase (rebuilt here from
    the plan's rationals and detunings), rotates every axis into the J_x
    eigenbasis, applies the engine's field phase and rotates every axis
    back.  Only the field phase grid is taken from the engine.
    """
    spec = engine.spec
    j = spec.j_tot
    m = np.arange(-j, j + 1)
    twist = []
    for (r, s), delta in zip(spec.plan.rationals, spec.plan.detunings):
        phase = np.exp(-2j * np.pi * ((r % s) * ((m * m) % s) % s) / s)
        if delta:
            phase = phase * np.exp(-1j * delta * (m * m) / (2.0 * j))
        twist.append(phase)
    _, rot = np.linalg.eigh(build_spin_ops(j)[0])
    amps = np.array(amplitudes, dtype=complex)
    out = [amps]
    for _ in range(steps):
        for n in range(spec.top_count):
            shape = [1] * spec.top_count
            shape[n] = spec.dimension
            amps = amps * twist[n].reshape(shape)
        for n in range(spec.top_count):
            amps = _top_axis_transform(amps, rot.conj().T, n)
        amps = amps * engine._field_phase
        for n in range(spec.top_count):
            amps = _top_axis_transform(amps, rot, n)
        out.append(amps)
    return out


def dense_reversal_signs(spec, n):
    """Top n's exact secondary twist over its J_x eigenbasis, read from
    the dense W^T T W: the +-1 signs on its reversed diagonal.  This is
    the (2j+1)^3 product that ``TopEngine._jx_frame_twist`` replaced with
    the closed form (-1)^j."""
    j = spec.j_tot
    r, s = spec.plan.rationals[n]
    m = np.arange(-j, j + 1)
    phase = np.exp(-2j * np.pi * ((r % s) * ((m * m) % s) % s) / s)
    _, basis = spec._jx_eigenbasis
    dense = basis.T @ (phase[:, None] * basis)
    return np.rint(np.diagonal(dense[:, ::-1]).real)


def twist_then_field_step(engine, state):
    """One kick cycle of a TopEngine as a twist pass, then a field pass,
    each making a new array: the two-pass step that ``TopEngine.step``'s
    single pass replaced.  Each reversal is a flip times its +-1 signs,
    read from the dense W^T T W (``dense_reversal_signs``), applied where
    its axis falls in the order."""
    spec = engine.spec
    amps = state._jx
    for n, (form, operand) in enumerate(engine._twist_x):
        if form == "reverse":
            shape = [1] * spec.top_count
            shape[n] = spec.dimension
            signs = dense_reversal_signs(spec, n).reshape(shape)
            amps = np.flip(amps, n) * signs
        elif form == "dense":
            amps = _along_axis(amps, operand, n)
    return TopState._from_jx(spec, amps * engine._field_phase)


def jz_moments_reference(state, t=0):
    """<J_z> and <J_z^2> of every top from the J_z-basis amplitudes: the
    back-rotation, |a|^2 and per-axis marginals that the tridiagonal
    J_x-frame kernel of ``TopEngine.measure_jz_moments`` replaced."""
    j = state.spec.j_tot
    m = np.arange(-j, j + 1, dtype=float)
    prob = np.abs(state.amplitudes) ** 2
    return marginal_moments(full_axis_marginals(prob), [m] * prob.ndim, t)
