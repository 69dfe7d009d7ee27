"""Hand-rolled reference results the suite checks the library against.

Everything here is deliberately independent of the package internals:
finite differences, Bessel identities, quadrature-built matrices, dense
partial traces.  Slow and obvious beats fast and clever.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv

from kickres.potential import FourierTerm, PotentialSpec

# Linear entropy plateau 1 - sum_n J_n(xi)^4 for a one-term coupling of
# strength xi with uniform initial angles (momentum eigenstates).  Values
# frozen from the Bessel sum below with a 200-order tail check.
S_ODD_UNIT = 0.581812227138689  # xi = 1.0
S_ODD_TENTH = 0.009943923279238542  # xi = 0.1


def fd_gradient(spec, rotor, thetas, h=1e-6):
    """Central-difference d/dtheta_rotor of spec.evaluate."""
    plus = [np.array(t, dtype=float) for t in thetas]
    minus = [np.array(t, dtype=float) for t in thetas]
    plus[rotor] = plus[rotor] + h
    minus[rotor] = minus[rotor] - h
    return (spec.evaluate(plus) - spec.evaluate(minus)) / (2.0 * h)


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


def dense_purity(psi, dims, part_a):
    """Tr(rho_A^2) by an explicit dense partial trace."""
    dims = tuple(int(d) for d in dims)
    axes_a = tuple(sorted(part_a))
    axes_b = tuple(j for j in range(len(dims)) if j not in axes_a)
    tensor = np.asarray(psi).reshape(dims).transpose(axes_a + axes_b)
    da = int(np.prod([dims[j] for j in axes_a]))
    m = tensor.reshape(da, -1)
    rho = m @ m.conj().T
    return float(np.real(np.trace(rho @ rho)))


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
