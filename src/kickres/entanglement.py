"""Bipartite purity and linear entropy of evolved rotor and top states.

Everything here works with the purity mu2 = Tr(rho_A^2) of a pure global
state; the linear entropy is S_lin = 1 - mu2.  With the amplitude tensor
reshaped to a matrix M, the reduced density matrix of the smaller side is
the Gram matrix G = M M^dagger, and mu2 = ||G||_F^2 (the sum of fourth
powers of the Schmidt coefficients, without a decomposition).  Forming G
costs O(d_small^2 d_large); for a rotor state, and for a top state held
in the J_x frame, only the occupied box of the window enters it, which
steps by 2 along an axis whose odd parity class is empty.
epsilon_second_moment gives the <eps^2> that sets the short-time
curvature of S_lin for a product state expanded in a tensor-product
eigenbasis of the one-cycle map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .potential import _check_complex, _check_int, _check_seq
from .rotor_engine import RotorState


@dataclass(frozen=True)
class BipartitionSpec:
    """Split of the rotor indices into one block and its complement."""

    rotor_count: int
    part_a: tuple[int, ...]

    def __post_init__(self) -> None:
        last = _check_int(self.rotor_count, "rotor_count", 2) - 1
        part_a = _check_seq(self.part_a, "part_a", minimum=0, maximum=last)
        part = tuple(sorted(set(part_a)))
        if len(part) != len(part_a):
            raise ValidationError("part_a contains repeated indices")
        if not part:
            raise ValidationError("part_a must be nonempty")
        if len(part) >= self.rotor_count:
            raise ValidationError(
                "part_a must be a proper subset of the rotor indices"
            )
        object.__setattr__(self, "part_a", part)

    @cached_property
    def part_b(self) -> tuple[int, ...]:
        members = set(self.part_a)
        return tuple(
            j for j in range(self.rotor_count) if j not in members
        )

    def swapped(self) -> "BipartitionSpec":
        return BipartitionSpec(self.rotor_count, self.part_b)


# Probability at or below which part of an axis's marginal is left out of
# _block_purity's Gram product and of the top engine's J_z moments: each
# end run, and the odd offsets from the first kept index, which a parity
# symmetry keeps empty (even kick modes on a rotor; for a top started at
# J_z = 0, its pi-rotation about x, which commutes with the twist and the
# field).  Dropping rows and columns of M that hold eps_A and eps_B lowers
# the purity by at most 2 eps_A + 2 eps_B <= 6 N BOX_FLOOR for N bodies
# (two end runs and one parity class per axis), far below the product's
# roundoff.
BOX_FLOOR = 1e-24


def _occupied_box(marginals: Sequence[np.ndarray]) -> tuple[slice, ...]:
    """One slice per axis that drops the two end runs of that axis's
    marginal whose cumulative probability is at most BOX_FLOOR, and steps
    by 2 when the odd offsets from the first kept index hold at most
    BOX_FLOOR in total."""

    def run(marg: np.ndarray) -> int:
        return int(marg.cumsum().searchsorted(BOX_FLOOR, side="right"))

    def axis(marg: np.ndarray) -> slice:
        lo, hi = run(marg), marg.size - run(marg[::-1])
        if marg[lo + 1 : hi : 2].sum() <= BOX_FLOOR:
            return slice(lo, hi, 2)
        return slice(lo, hi)

    return tuple(axis(m) for m in marginals)


def _gram_workspace(
    shape: tuple[int, ...],
    lengths: tuple[int, ...],
    part: BipartitionSpec,
    strided: bool = False,
) -> int:
    """Elements the Gram product over a box of ``lengths`` in a C-ordered
    tensor of ``shape`` allocates: the conjugate copy of M, the Gram matrix,
    one temporary, and a copy of M unless the reshape is a view, which
    needs a box that is not ``strided`` and each side's axes adjacent and
    untrimmed after the side's first.
    """
    dim_a = math.prod(lengths[j] for j in part.part_a)
    dim_b = math.prod(lengths[j] for j in part.part_b)
    view = not strided and all(
        b == a + 1 and lengths[b] == shape[b]
        for axes in (part.part_a, part.part_b)
        for a, b in zip(axes, axes[1:])
    )
    return (1 if view else 2) * dim_a * dim_b + 2 * min(dim_a, dim_b) ** 2


def _block_purity(
    amplitudes: np.ndarray,
    part: BipartitionSpec,
    element_cap: int,
    occupied: Callable[[], tuple[slice, ...]] | None = None,
) -> float:
    """Tr(rho_A^2) of a pure amplitude tensor over the axes in part_a.

    The tensor is permuted so the block's axes (in ascending order) come
    first and reshaped to a dim_A x dim_B matrix M, turned so the smaller
    side is the row side.  The purity is ||M M^dagger||_F^2: the reduced
    density matrix of the smaller side, squared and traced, summed by
    numpy rather than BLAS so its bits do not depend on the thread count.
    Given ``occupied``, which returns the _occupied_box of the tensor's
    axis marginals, M spans that box, and the cap, checked first on the
    whole tensor's shape before any allocation, also covers the box's
    copy of M when it trims inner axes or steps by 2.
    """
    shape = amplitudes.shape
    workspace = _gram_workspace(shape, shape, part)
    strided = False
    if occupied is not None and workspace <= element_cap:
        box = occupied()
        strided = any(cut.step for cut in box)
        amplitudes = amplitudes[box]
        in_box = _gram_workspace(shape, amplitudes.shape, part, strided)
        workspace = max(workspace, in_box)
    if workspace > element_cap:
        raise ResourceCapError(
            f"purity workspace {workspace} exceeds the "
            f"element cap {element_cap}"
        )
    dim_a = math.prod(amplitudes.shape[j] for j in part.part_a)
    order = part.part_a + part.part_b
    matrix = np.transpose(amplitudes, order).reshape(dim_a, -1)
    if strided:
        # the counted copy, in place of numpy's buffering of a strided
        # gemm operand
        matrix = np.ascontiguousarray(matrix)
    if matrix.shape[0] > matrix.shape[1]:
        matrix = matrix.T
    # squared in place: a temporary of G's size would cost a fresh mmap
    # once G passes malloc's threshold
    squares = (matrix @ matrix.conj().T).view(float).ravel()
    np.square(squares, out=squares)
    purity = float(squares.sum())
    # After OpenBLAS's complex gemm, numpy's next FFT runs about twice as
    # slow until a vector routine clears the state the gemm left in this
    # thread; the timings fit the AVX/SSE transition penalty that
    # vzeroupper clears (Intel optimization manual, "Mixing AVX code with
    # SSE code").  np.square and sum do not clear it, a float64 np.add
    # does.  Its result is dropped.
    np.add(np.zeros(16), 0.0)
    return purity


def schmidt_purity(state: RotorState, part: BipartitionSpec) -> float:
    """Tr(rho_A^2) for one block of rotors of a pure lattice state, over
    the occupied box of its momentum window (see BOX_FLOOR)."""
    if part.rotor_count != state.lattice.rotor_count:
        raise ValidationError(
            "bipartition rotor count does not match the state"
        )
    cap = state.lattice.element_cap
    return _block_purity(
        state.amplitudes,
        part,
        cap,
        lambda: _occupied_box(state.momentum_marginals()),
    )


def _coefficient_weights(values: Sequence[complex], label: str) -> np.ndarray:
    arr = np.array(_check_seq(values, label, check=_check_complex))
    if arr.size == 0:
        raise ValidationError(f"{label} must be nonempty")
    weights = np.abs(arr) ** 2
    total = float(np.sum(weights))
    if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise ValidationError(
            f"{label} must be normalized (sum of squares = {total:.3e})"
        )
    return weights


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
    if grid.shape != (v.size, w.size) or not np.isfinite(grid).all():
        raise ValidationError(
            "energies must be a finite (len(phi_a), len(chi_b)) real matrix"
        )
    row_mean = grid @ w
    row_second = (grid**2) @ w
    within = float(v @ (row_second - row_mean**2))
    mixed_rows = v @ grid
    between = float(w @ mixed_rows**2 - (w @ mixed_rows) ** 2)
    return 4.0 * (within - between)
