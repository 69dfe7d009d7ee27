"""Resonantly twisted coupled kicked tops.

Finite-dimensional counterpart of the rotor engine: each body is a spin
with fixed total angular momentum quantum number j (integer), kicked by
a nonlinear twist exp(-i beta_n J_nz^2 / (2j)) and rotated by a field
term U_f = exp(-i H_f) with H_f a polynomial in the commuting J_nx
operators.  Twist strengths are stored as rational multiples of 4 pi j,
so at the principal resonance the twist is the identity and at the
secondary resonance it reduces to the exact pi-rotation
exp(-i pi J_nz) about the z axis.

The one-cycle map is U = U_f U_k (twist first).  Because H_f is
diagonal in the product J_x eigenbasis, the field step is applied by
rotating each axis into that eigenbasis with a precomputed single-top
orthogonal transform; no matrix exponentials are taken at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .entanglement import BipartitionSpec, _block_purity
from .errors import ResourceCapError, ValidationError
from .potential import ResonancePlan
from .rotor_engine import MomentRecord

DEFAULT_TOP_ELEMENT_CAP = 1 << 26

TWO_PI = 2.0 * math.pi

# equator gate: linearizing the moment laws needs the initial state far
# from the poles
EQUATOR_MEAN_FRACTION = 0.05
EQUATOR_SECOND_FRACTION = 0.05


@dataclass(frozen=True)
class FieldTerm:
    """One monomial of the field Hamiltonian H_f.

    Represents coefficient * j^(1 - sum(powers)) * prod_n J_nx^powers[n];
    the j normalization keeps all coefficients of order one.
    """

    coefficient: float
    powers: tuple

    def __post_init__(self) -> None:
        powers = tuple(int(k) for k in self.powers)
        if any(k < 0 for k in powers):
            raise ValidationError("powers must be nonnegative")
        if sum(powers) < 1:
            raise ValidationError(
                "each field term must involve at least one spin operator"
            )
        if not math.isfinite(self.coefficient) or self.coefficient == 0.0:
            raise ValidationError(
                "field coefficients must be finite and nonzero"
            )
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "coefficient", float(self.coefficient))

    @property
    def total_power(self) -> int:
        return sum(self.powers)


@dataclass(frozen=True)
class TopSpec:
    """Collection of twisted tops with a polynomial field coupling."""

    top_count: int
    j_tot: int
    plan: ResonancePlan
    field_terms: tuple
    element_cap: int = DEFAULT_TOP_ELEMENT_CAP

    def __post_init__(self) -> None:
        if self.top_count < 1:
            raise ValidationError("top_count must be >= 1")
        if not isinstance(self.j_tot, (int, np.integer)) or isinstance(
            self.j_tot, bool
        ):
            raise ValidationError(
                "j_tot must be an integer; half-integer spins break the "
                "secondary-twist periodicity"
            )
        if self.j_tot < 1:
            raise ValidationError("j_tot must be >= 1")
        if self.plan.rotor_count != self.top_count:
            raise ValidationError(
                "twist plan must cover every top exactly once"
            )
        terms = tuple(
            t if isinstance(t, FieldTerm) else FieldTerm(*t)
            for t in self.field_terms
        )
        for term in terms:
            if len(term.powers) != self.top_count:
                raise ValidationError(
                    "field term powers must cover every top"
                )
        object.__setattr__(self, "field_terms", terms)
        object.__setattr__(self, "j_tot", int(self.j_tot))
        if self.dimension**self.top_count > self.element_cap:
            raise ResourceCapError(
                f"state tensor of {self.dimension}^{self.top_count} "
                f"elements exceeds the cap {self.element_cap}"
            )

    @property
    def dimension(self) -> int:
        return 2 * self.j_tot + 1

    @property
    def shape(self) -> tuple:
        return (self.dimension,) * self.top_count

    @property
    def shift_set(self) -> frozenset:
        return self.plan.shift_set

    def field_parity(self, term: FieldTerm) -> int:
        """Parity of a term under flipping J_nx -> -J_nx for n in the
        pi-rotated set."""
        return sum(term.powers[n] for n in self.shift_set) % 2


class TopState:
    """Normalized amplitude tensor over the product J_z eigenbasis."""

    def __init__(self, spec: TopSpec, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != spec.shape:
            raise ValidationError(
                f"amplitude shape {amps.shape} does not match {spec.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(
                f"state norm {norm} deviates from 1 beyond 1e-10"
            )
        self.spec = spec
        self.amplitudes = amps

    @classmethod
    def jz_product(cls, spec: TopSpec, m_values: Sequence[int]) -> "TopState":
        """Product of J_z eigenstates |m_1> x ... x |m_N>."""
        if len(m_values) != spec.top_count:
            raise ValidationError("one m value required per top")
        amps = np.zeros(spec.shape, dtype=complex)
        index = []
        for m in m_values:
            m = int(m)
            if abs(m) > spec.j_tot:
                raise ValidationError(f"|m| = {abs(m)} exceeds j_tot")
            index.append(m + spec.j_tot)
        amps[tuple(index)] = 1.0
        return cls(spec, amps)

    @classmethod
    def from_factors(
        cls, spec: TopSpec, factors: Sequence[np.ndarray]
    ) -> "TopState":
        if len(factors) != spec.top_count:
            raise ValidationError("one factor required per top")
        amps = np.ones((), dtype=complex)
        for factor in factors:
            arr = np.asarray(factor, dtype=complex).ravel()
            if arr.size != spec.dimension:
                raise ValidationError("factor dimension mismatch")
            arr = arr / np.linalg.norm(arr)
            amps = np.tensordot(amps, arr, axes=0)
        return cls(spec, amps)

    def copy(self) -> "TopState":
        return TopState(self.spec, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def build_spin_ops(j_tot: int):
    """Dense (J_x, J_z) for one spin, basis m = -j..j ascending."""
    if j_tot < 1:
        raise ValidationError("j_tot must be >= 1")
    dim = 2 * j_tot + 1
    m = np.arange(-j_tot, j_tot + 1, dtype=float)
    j_z = np.diag(m.astype(complex))
    ladder = np.sqrt(j_tot * (j_tot + 1) - m[:-1] * (m[:-1] + 1))
    j_plus = np.zeros((dim, dim), dtype=complex)
    j_plus[np.arange(1, dim), np.arange(dim - 1)] = ladder
    j_x = (j_plus + j_plus.conj().T) / 2.0
    return j_x, j_z


class TopEngine:
    """Applies the one-cycle map U = U_f U_k for a TopSpec."""

    def __init__(self, spec: TopSpec):
        self.spec = spec
        j = spec.j_tot
        dim = spec.dimension
        j_x, j_z = build_spin_ops(j)
        self.j_x = j_x
        self.j_z = j_z
        values, vectors = np.linalg.eigh(j_x)
        self._x_values = values
        self._x_rotation = vectors  # J_x = W diag(values) W^dagger
        m = np.arange(-j, j + 1)
        self._twist_phase = []
        for n in range(spec.top_count):
            r, s = spec.plan.rationals[n]
            residue = (r % s) * ((m * m) % s) % s
            phase = np.exp(-2j * np.pi * residue / s)
            delta = spec.plan.detunings[n]
            if delta:
                phase = phase * np.exp(-1j * delta * (m * m) / (2.0 * j))
            self._twist_phase.append(phase)
        self._field_phase = np.exp(-1j * self._field_diagonal())

    def _field_diagonal(self) -> np.ndarray:
        """H_f eigenvalue grid over the product J_x eigenbasis."""
        spec = self.spec
        grid = np.zeros(spec.shape)
        for term in spec.field_terms:
            scale = term.coefficient * float(spec.j_tot) ** (
                1 - term.total_power
            )
            factor = np.ones(spec.shape)
            for n, k in enumerate(term.powers):
                if k == 0:
                    continue
                axis_values = self._x_values**k
                shape = [1] * spec.top_count
                shape[n] = spec.dimension
                factor = factor * axis_values.reshape(shape)
            grid = grid + scale * factor
        return grid

    def _axis_transform(
        self, amps: np.ndarray, matrix: np.ndarray, axis: int
    ) -> np.ndarray:
        moved = np.tensordot(matrix, amps, axes=([1], [axis]))
        return np.moveaxis(moved, 0, axis)

    def twist(self, state: TopState) -> TopState:
        amps = state.amplitudes.copy()
        for n in range(self.spec.top_count):
            shape = [1] * self.spec.top_count
            shape[n] = self.spec.dimension
            amps *= self._twist_phase[n].reshape(shape)
        return TopState(self.spec, amps)

    def field_rotation(self, state: TopState) -> TopState:
        amps = state.amplitudes
        rot = self._x_rotation
        for n in range(self.spec.top_count):
            amps = self._axis_transform(amps, rot.conj().T, n)
        amps = amps * self._field_phase
        for n in range(self.spec.top_count):
            amps = self._axis_transform(amps, rot, n)
        return TopState(self.spec, amps)

    def step(self, state: TopState) -> TopState:
        return self.field_rotation(self.twist(state))

    def evolve(self, state: TopState, steps: int) -> TopState:
        for _, out in self.trajectory(state, steps):
            pass
        return out

    def trajectory(
        self, state: TopState, steps: int
    ) -> Iterator[tuple]:
        if steps < 0:
            raise ValidationError("steps must be >= 0")
        yield 0, state
        for t in range(1, steps + 1):
            state = self.step(state)
            yield t, state

    # ------------------------------------------------------------------
    # observables

    def _jz_weights(self, state: TopState, axis: int) -> np.ndarray:
        prob = np.abs(state.amplitudes) ** 2
        axes = tuple(
            n for n in range(self.spec.top_count) if n != axis
        )
        return prob.sum(axis=axes)

    def measure_jz_moments(self, state: TopState, t: int = 0) -> MomentRecord:
        j = self.spec.j_tot
        m = np.arange(-j, j + 1, dtype=float)
        means, seconds = [], []
        for n in range(self.spec.top_count):
            weights = self._jz_weights(state, n)
            means.append(float(weights @ m))
            seconds.append(float(weights @ m**2))
        return MomentRecord(
            t=int(t), mean=tuple(means), second=tuple(seconds)
        )

    def measure_jx_moments(self, state: TopState, t: int = 0) -> MomentRecord:
        amps = state.amplitudes
        rot = self._x_rotation
        for n in range(self.spec.top_count):
            amps = self._axis_transform(amps, rot.conj().T, n)
        prob = np.abs(amps) ** 2
        means, seconds = [], []
        for n in range(self.spec.top_count):
            axes = tuple(
                k for k in range(self.spec.top_count) if k != n
            )
            weights = prob.sum(axis=axes)
            means.append(float(weights @ self._x_values))
            seconds.append(float(weights @ self._x_values**2))
        return MomentRecord(
            t=int(t), mean=tuple(means), second=tuple(seconds)
        )


def top_purity(state: TopState, part: BipartitionSpec) -> float:
    """Tr(rho_A^2) of a pure top state over a block of tops."""
    if part.rotor_count != state.spec.top_count:
        raise ValidationError("bipartition top count mismatch")
    return _block_purity(state.amplitudes, part, state.spec.element_cap)


# ----------------------------------------------------------------------
# linearized predictor


@dataclass(frozen=True)
class TopKickStats:
    """Per-top displacement-operator statistics for the moment laws."""

    alpha_plus: float
    alpha_minus: float
    lambda_plus: float
    lambda_minus: float
    kappa: float

    def __post_init__(self) -> None:
        if (
            self.lambda_plus < self.alpha_plus**2 - 1e-9
            or self.lambda_minus < self.alpha_minus**2 - 1e-9
        ):
            raise ValidationError(
                "squared displacement below squared mean"
            )
        bound = self.lambda_plus * self.lambda_minus
        if self.kappa**2 > bound + 1e-9 * max(1.0, bound):
            raise ValidationError(
                "cross term violates the Cauchy-Schwarz bound"
            )


def _single_top_expectations(
    factors: Sequence[np.ndarray],
    matrices: Sequence,
) -> complex:
    """<prod_n A_n> over a product state; matrices[n] may be None."""
    out = 1.0 + 0.0j
    for factor, matrix in zip(factors, matrices):
        if matrix is None:
            continue
        out *= complex(np.vdot(factor, matrix @ factor))
    return out


def _check_equator(
    factors: Sequence[np.ndarray], j_tot: int
) -> None:
    j = j_tot
    m = np.arange(-j, j + 1, dtype=float)
    for n, factor in enumerate(factors):
        prob = np.abs(factor) ** 2
        mean = float(prob @ m)
        second = float(prob @ m**2)
        if abs(mean) > EQUATOR_MEAN_FRACTION * j or second > (
            EQUATOR_SECOND_FRACTION * j * j
        ):
            raise ValidationError(
                f"top {n} starts too far from the equator for the "
                f"linearized moment laws (<J_z> = {mean:.3g}, "
                f"<J_z^2> = {second:.3g})"
            )


def top_params(
    spec: TopSpec,
    top: int,
    initial_factors: Sequence[np.ndarray],
) -> TopKickStats:
    """Displacement-operator statistics of one top near the equator.

    The field terms acting on the chosen top are split by their parity
    under the pi-rotation of the secondary tops; the displacement
    operators are D_+- = -i [J_nz, H_nf+-] and the returned statistics
    are their first and second moments in the initial product state,
    with kappa the symmetrized cross moment.
    """
    if top < 0 or top >= spec.top_count:
        raise ValidationError("top index out of range")
    if len(initial_factors) != spec.top_count:
        raise ValidationError("one initial factor required per top")
    factors = []
    for factor in initial_factors:
        arr = np.asarray(factor, dtype=complex).ravel()
        if arr.size != spec.dimension:
            raise ValidationError("initial factor dimension mismatch")
        factors.append(arr / np.linalg.norm(arr))
    _check_equator(factors, spec.j_tot)

    j_x, j_z = build_spin_ops(spec.j_tot)
    powers_cache = {0: np.eye(spec.dimension, dtype=complex)}

    def x_power(k: int) -> np.ndarray:
        if k not in powers_cache:
            powers_cache[k] = j_x @ x_power(k - 1)
        return powers_cache[k]

    # matrix factor lists for each parity block of the displacement
    blocks = {0: [], 1: []}  # parity -> list of (scale, per-top matrices)
    for term in spec.field_terms:
        if term.powers[top] == 0:
            continue
        scale = term.coefficient * float(spec.j_tot) ** (
            1 - term.total_power
        )
        matrices = []
        for n, k in enumerate(term.powers):
            if n == top:
                base = x_power(k)
                matrices.append(-1j * (j_z @ base - base @ j_z))
            elif k >= 1:
                matrices.append(x_power(k))
            else:
                matrices.append(None)
        blocks[spec.field_parity(term)].append((scale, matrices))

    def first_moment(block) -> float:
        total = 0.0 + 0.0j
        for scale, matrices in block:
            total += scale * _single_top_expectations(factors, matrices)
        return float(np.real(total))

    def second_moment(block_a, block_b) -> float:
        total = 0.0 + 0.0j
        for sa, ma in block_a:
            for sb, mb in block_b:
                paired = []
                for one, two in zip(ma, mb):
                    if one is None and two is None:
                        paired.append(None)
                    elif one is None:
                        paired.append(two)
                    elif two is None:
                        paired.append(one)
                    else:
                        paired.append(one @ two)
                total += sa * sb * _single_top_expectations(
                    factors, paired
                )
        return float(np.real(total))

    plus, minus = blocks[0], blocks[1]
    alpha_plus = first_moment(plus)
    alpha_minus = first_moment(minus)
    lambda_plus = second_moment(plus, plus)
    lambda_minus = second_moment(minus, minus)
    # symmetrized cross moment <{D+, D-}> / 2
    kappa = 0.5 * (
        second_moment(plus, minus) + second_moment(minus, plus)
    )
    return TopKickStats(
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        lambda_plus=lambda_plus,
        lambda_minus=lambda_minus,
        kappa=kappa,
    )


def predict_jz_moments(stats: TopKickStats, t: int):
    """Linearized displacement and squared spread of J_z at step t.

    Even steps: D = t alpha_plus, sigma^2 = t^2 lambda_plus.  Odd steps
    subtract the odd-block offsets: D = t alpha_plus - alpha_minus and
    sigma^2 = t^2 lambda_plus - 2 t kappa + lambda_minus (the twist-first
    ordering flips the sign of the odd contributions relative to the
    rotor case).
    """
    if t < 0:
        raise ValidationError("t must be >= 0")
    d = t * stats.alpha_plus
    s = t * t * stats.lambda_plus
    if t % 2 == 1:
        d -= stats.alpha_minus
        s += -2 * t * stats.kappa + stats.lambda_minus
    return d, s


def saturation_time(spec: TopSpec, lambda_plus: float) -> float:
    """Step count at which ballistic spreading reaches the poles."""
    if lambda_plus <= 0.0:
        raise ValidationError(
            "saturation time undefined without quadratic growth"
        )
    return spec.j_tot / math.sqrt(lambda_plus)
