"""Bipartite purity and linear entropy of evolved rotor and top states.

Everything here works with the purity mu2 = Tr(rho_A^2) of a pure global
state; the linear entropy is S_lin = 1 - mu2.  With the amplitude tensor
reshaped to a matrix M, the reduced density matrix of the smaller side is
the Gram matrix G = M M^dagger, and mu2 = ||G||_F^2 (the sum of fourth
powers of the Schmidt coefficients, without a decomposition).  Forming G
costs O(d_small^2 d_large).  A separate fast path covers states expanded
in a tensor-product eigenbasis of the one-cycle map, where the purity
reduces to a double contraction over quasienergy phase matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .rotor_engine import RotorState


@dataclass(frozen=True)
class BipartitionSpec:
    """Split of the rotor indices into one block and its complement."""

    rotor_count: int
    part_a: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rotor_count < 2:
            raise ValidationError(
                "a bipartition needs at least two rotors"
            )
        part = tuple(sorted(set(int(j) for j in self.part_a)))
        if len(part) != len(self.part_a):
            raise ValidationError("part_a contains repeated indices")
        if not part:
            raise ValidationError("part_a must be nonempty")
        if len(part) >= self.rotor_count:
            raise ValidationError(
                "part_a must be a proper subset of the rotor indices"
            )
        for j in part:
            if j < 0 or j >= self.rotor_count:
                raise ValidationError(
                    f"rotor index {j} outside 0..{self.rotor_count - 1}"
                )
        object.__setattr__(self, "part_a", part)

    @property
    def part_b(self) -> tuple[int, ...]:
        members = set(self.part_a)
        return tuple(
            j for j in range(self.rotor_count) if j not in members
        )

    def swapped(self) -> "BipartitionSpec":
        return BipartitionSpec(self.rotor_count, self.part_b)


def _block_purity(
    amplitudes: np.ndarray, part: BipartitionSpec, element_cap: int
) -> float:
    """Tr(rho_A^2) of a pure amplitude tensor over the axes in part_a.

    The tensor is permuted so the block's axes (in ascending order) come
    first and reshaped to a dim_A x dim_B matrix M, turned so the smaller
    side is the row side.  The purity is ||M M^dagger||_F^2: the reduced
    density matrix of the smaller side, squared and traced.  The workspace
    (the permuted copy of M when a block's axes are not adjacent, the
    conjugate copy of M, the Gram matrix and one temporary) is checked
    against ``element_cap`` before anything is allocated.
    """
    shape = amplitudes.shape
    dim_a = int(np.prod([shape[j] for j in part.part_a]))
    dim_b = int(np.prod([shape[j] for j in part.part_b]))
    small = min(dim_a, dim_b)
    # The reshape below is a view only when each side's axes are adjacent.
    adjacent = all(
        b == a + 1
        for axes in (part.part_a, part.part_b)
        for a, b in zip(axes, axes[1:])
    )
    copies = 1 if adjacent else 2
    workspace = copies * dim_a * dim_b + 2 * small * small
    if workspace > element_cap:
        raise ResourceCapError(
            f"purity workspace {workspace} exceeds the "
            f"element cap {element_cap}"
        )
    order = part.part_a + part.part_b
    matrix = np.transpose(amplitudes, order).reshape(dim_a, dim_b)
    if dim_a > dim_b:
        matrix = matrix.T
    gram = matrix @ matrix.conj().T
    return float(np.vdot(gram, gram).real)


def schmidt_purity(state: RotorState, part: BipartitionSpec) -> float:
    """Tr(rho_A^2) for one block of rotors of a pure lattice state."""
    if part.rotor_count != state.lattice.rotor_count:
        raise ValidationError(
            "bipartition rotor count does not match the state"
        )
    return _block_purity(state.amplitudes, part, state.lattice.element_cap)


def _coefficient_weights(values: Sequence[complex], label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex).ravel()
    if arr.size == 0:
        raise ValidationError(f"{label} must be nonempty")
    weights = np.abs(arr) ** 2
    total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(
            f"{label} must be normalized (sum of squares = {total:.3e})"
        )
    return weights


def product_basis_purity(
    phi_a: Sequence[complex],
    chi_b: Sequence[complex],
    energies: np.ndarray,
    t: float,
) -> float:
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


def epsilon_second_moment(
    phi_a: Sequence[complex],
    chi_b: Sequence[complex],
    energies: np.ndarray,
) -> float:
    """Exact <eps^2> of the four-point quasienergy differences.

    eps = E_ab + E_a'b' - E_a'b - E_ab' with all four indices drawn
    independently from the weights |phi|^2 and |chi|^2.  Row means drop
    out of eps, which collapses the average to

        <eps^2> = 4 * ( sum_a v_a Var_w(E_a.) - Var_w(sum_a v_a E_a.) )

    and sets the short-time law S_lin(t) = (<eps^2>/2) t^2 + O(t^4).
    """
    v = _coefficient_weights(phi_a, "phi_a")
    w = _coefficient_weights(chi_b, "chi_b")
    grid = np.asarray(energies, dtype=float)
    if grid.ndim != 2 or grid.shape != (v.size, w.size):
        raise ValidationError(
            "energies must be a (len(phi_a), len(chi_b)) real matrix"
        )
    row_mean = grid @ w
    row_second = (grid**2) @ w
    within = float(v @ (row_second - row_mean**2))
    mixed_rows = v @ grid
    between = float(w @ mixed_rows**2 - (w @ mixed_rows) ** 2)
    return 4.0 * (within - between)
