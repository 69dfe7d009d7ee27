"""Resonantly twisted coupled kicked tops.

Finite-dimensional counterpart of the rotor engine: each body is a spin
with fixed total angular momentum quantum number j (integer), kicked by
a nonlinear twist exp(-i beta_n J_nz^2 / (2j)) and rotated by a field
term U_f = exp(-i H_f) with H_f a polynomial in the commuting J_nx
operators.  Twist strengths are stored as rational multiples of 4 pi j,
so at the principal resonance the twist is the identity and at the
secondary resonance it reduces to the exact pi-rotation
exp(-i pi J_nz) about the z axis.

The one-cycle map is U = U_f U_k (twist first).  H_f is diagonal in the
product J_x eigenbasis, so the engine keeps each state's amplitudes in
that frame between steps and the field step is one elementwise phase.
Each top's twist is taken into the same frame once, when the engine is
built: at exact principal resonance it is skipped, at exact secondary
resonance the pi-rotation maps J_x to -J_x and becomes a reversal of that
axis times the sign (-1)^j (Haake, Kus & Scharf, Z. Phys. B 65, 381
(1987)), and any other rational or a detuning keeps the dense W^T T W.
A step is one pass: the dense twists in axis order, each reversal as a
flipped view, then one multiply by a phase built with the engine, the
field phase times the reversals' one scalar sign.  A kick makes one
new array and one norm check; ``twist`` and ``field_rotation`` run the
same pass with their own phases.  The J_z moments and the bipartite
purity are read in the J_x frame too, so a run never rotates back: J_z
is tridiagonal over the J_x eigenbasis, and the purity is invariant
under the local change of frame W x ... x W.  Both are read over the
occupied box of the J_x-frame marginals, which keeps every second index
from a J_z = 0 start (see entanglement.BOX_FLOOR).
Those marginals and the unit-norm check are the rotor engine's
``axis_marginals`` and ``unit_norm``: a rotor state and a top state share
one kernel for each.
Every state holds its J_x-frame amplitudes from construction, and no
read changes what a later call returns: ``amplitudes`` rotates an
engine-made state back, one single-top transform per axis, and stores
nothing.  A run takes no matrix exponential and no LAPACK call: the J_x
eigenbasis comes from a three-term recursion (``TopSpec._jx_eigenbasis``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .entanglement import BipartitionSpec, _block_purity, _occupied_box
from .errors import ResourceCapError, ValidationError
from .potential import (
    ResonancePlan, _check_complex, _check_int, _check_real, _check_seq,
    _check_step,
)
from .rotor_engine import (
    DEFAULT_ELEMENT_CAP,
    MomentRecord,
    axis_marginals,
    marginal_moments,
    unit_norm,
)


@dataclass(frozen=True)
class FieldTerm:
    """One monomial of the field Hamiltonian H_f.

    Represents coefficient * j^(1 - sum(powers)) * prod_n J_nx^powers[n];
    the j normalization keeps all coefficients of order one.
    """

    coefficient: float
    powers: tuple

    def __post_init__(self) -> None:
        powers = _check_seq(self.powers, "powers")
        if any(k < 0 for k in powers):
            raise ValidationError("powers must be nonnegative")
        if sum(powers) < 1:
            raise ValidationError(
                "each field term must involve at least one spin operator"
            )
        coefficient = _check_real(self.coefficient, "coefficient")
        if coefficient == 0.0:
            raise ValidationError(
                "field coefficients must be finite and nonzero"
            )
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "coefficient", coefficient)

    def weight(self, j_tot: int) -> float:
        """coefficient * j^(1 - sum(powers)), the term's scale at spin j."""
        return self.coefficient * float(j_tot) ** (1 - sum(self.powers))


@dataclass(frozen=True)
class TopSpec:
    """Collection of twisted tops with a polynomial field coupling."""

    top_count: int
    j_tot: int
    plan: ResonancePlan
    field_terms: tuple
    element_cap: int = DEFAULT_ELEMENT_CAP

    def __post_init__(self) -> None:
        _check_int(self.element_cap, "element_cap")
        if _check_int(self.top_count, "top_count") < 1:
            raise ValidationError("top_count must be >= 1")
        # half-integer spins break the secondary-twist periodicity
        if _check_int(self.j_tot, "j_tot") < 1:
            raise ValidationError("j_tot must be >= 1")
        if self.plan.rotor_count != self.top_count:
            raise ValidationError(
                "twist plan must cover every top exactly once"
            )
        terms = _check_seq(self.field_terms, "field_terms", check=FieldTerm)
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

    @cached_property
    def _jx_eigenbasis(self) -> tuple:
        """(eigenvalues, W) of one top's J_x, J_x = W diag W^T, with no
        LAPACK or BLAS call: elementwise numpy only.

        The eigenvalues are k = -j..j exactly.  Column k of W is the
        eigenvector c over m = -j..j.  Row m of J_x c = k c reads
        a_{m-1} c_{m-1} + a_m c_{m+1} = 2 k c_m, a_m = sqrt(j(j+1) - m(m+1)),
        so c_{m-1} = (2 k c_m - a_m c_{m+1}) / a_{m-1} runs in to m = 0 from
        the edge entry c_j = 2^-j sqrt(C(2j, j+k)), the J_x coherent
        state's binomial amplitude; inward from the edge it follows the
        growing solution, so it is stable.  J_x commutes with the
        reflection m -> -m, which gives c_{-m} = (-1)^(j-k) c_m and an exact
        zero at m = 0 for odd j - k.  Each column is then scaled to unit
        norm.  Every edge entry is positive, which fixes the column signs.

        The edge entries start from their logarithms, since 2^-j
        underflows past j = 1074: a start below 2^-400 is raised to it,
        and a column whose entry passes 2^400 is divided by 2^400, its rows
        so far too.  Entries that small beside the column's largest are
        zero in double precision anyway.

        W is held as a complex array: a real product over a float view of
        the amplitudes does half the flops, but at j = 50 its last bits
        change with the BLAS thread count, and the complex product's do
        not.
        """
        j = self.j_tot
        k = np.arange(-j, j + 1, dtype=float)
        m = np.arange(j + 1, dtype=float)
        ladder = np.sqrt(j * (j + 1) - m * (m + 1))  # a_m for m = 0..j
        log_fact = np.array([math.lgamma(j + x + 1) for x in k])
        log_edge = 0.5 * (math.lgamma(2 * j + 1) - log_fact - log_fact[::-1])
        log_edge -= j * math.log(2.0)
        big = 2.0**400
        w = np.zeros((2 * j + 1, 2 * j + 1))  # row j + m holds c_m
        w[-1] = np.exp(np.maximum(log_edge, -math.log(big)))
        for i in range(j, 0, -1):  # c_{i-1} from c_i and c_{i+1}
            above = w[j + i + 1] if i < j else 0.0
            row = (2.0 * k * w[j + i] - ladder[i] * above) / ladder[i - 1]
            grown = np.abs(row) > big
            if grown.any():
                row[grown] /= big
                w[j + i :, grown] /= big
            w[j + i - 1] = row
        reflect = np.where((j - k) % 2, -1.0, 1.0)
        w[:j] = w[:j:-1] * reflect
        w[j, reflect < 0] = 0.0
        w /= np.sqrt(np.square(w).sum(axis=0))
        return k, w.astype(complex)

    def unit_factors(self, factors: Sequence) -> list[np.ndarray]:
        """One flat factor per top, each checked, then normalized."""
        factors = _check_seq(factors, "factors", self.top_count, None)
        unit = []
        for n, factor in enumerate(factors):
            arr = np.array(_check_seq(factor, "factors", check=_check_complex))
            if arr.size != self.dimension:
                raise ValidationError(
                    f"factor {n} has size {arr.size}; need {self.dimension}"
                )
            norm = np.linalg.norm(arr)
            if not (math.isfinite(norm) and norm > 0.0):
                raise ValidationError(
                    f"factor {n} has norm {norm}; need finite and > 0"
                )
            unit.append(arr / norm)
        return unit

    def field_parity(self, term: FieldTerm) -> int:
        """Parity of a term under flipping J_nx -> -J_nx for n in the
        pi-rotated set."""
        return sum(term.powers[n] for n in self.shift_set) % 2


class TopState:
    """Normalized state of the tops, held over the product J_x eigenbasis.

    A state built from J_z amplitudes is rotated into that frame once, at
    construction, and keeps them: its purity is read from them over the
    whole window, so a J_z product start reads exactly 1.  A state made
    by TopEngine holds the J_x frame only, and ``amplitudes`` rotates it
    back on each read without storing the result.
    """

    def __init__(self, spec: TopSpec, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=complex)  # own copy, not the caller's
        if amps.shape != spec.shape:
            raise ValidationError(
                f"amplitude shape {amps.shape} does not match {spec.shape}"
            )
        unit_norm(amps)
        _, basis = spec._jx_eigenbasis
        self.spec = spec
        self._jx = _rotate_axes(amps, basis.T)
        self._jz = amps  # held only by a state built from J_z amplitudes
        self._marginals = self._box = None

    @classmethod
    def _from_jx(cls, spec: TopSpec, jx_amplitudes: np.ndarray) -> "TopState":
        unit_norm(jx_amplitudes)
        state = cls.__new__(cls)
        state.spec, state._jx, state._jz = spec, jx_amplitudes, None
        state._marginals = state._box = None
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """Amplitudes over the product J_z eigenbasis."""
        if self._jz is not None:
            return self._jz
        _, basis = self.spec._jx_eigenbasis
        return _rotate_axes(self._jx, basis)

    def _jx_marginals(self) -> tuple[np.ndarray, ...]:
        """Probability over each axis of the J_x frame, kept once found."""
        if self._marginals is None:
            self._marginals = axis_marginals(self._jx)
        return self._marginals

    def _jx_box(self) -> tuple[slice, ...]:
        """The occupied box of the J_x-frame marginals, kept once found:
        the J_z moments and the purity read the same one."""
        if self._box is None:
            self._box = _occupied_box(self._jx_marginals())
        return self._box

    @classmethod
    def jz_product(cls, spec: TopSpec, m_values: Sequence[int]) -> "TopState":
        """Product of J_z eigenstates |m_1> x ... x |m_N>."""
        amps = np.zeros(spec.shape, dtype=complex)
        index = []
        for m in _check_seq(m_values, "m_values", spec.top_count):
            if abs(m) > spec.j_tot:
                raise ValidationError(f"|m| = {abs(m)} exceeds j_tot")
            index.append(m + spec.j_tot)
        amps[tuple(index)] = 1.0
        return cls(spec, amps)

    @classmethod
    def from_factors(
        cls, spec: TopSpec, factors: Sequence[np.ndarray]
    ) -> "TopState":
        amps = np.ones((), dtype=complex)
        for factor in spec.unit_factors(factors):
            amps = np.tensordot(amps, factor, axes=0)
        return cls(spec, amps)

    def norm(self) -> float:
        """Norm of the held J_x-frame amplitudes."""
        return unit_norm(self._jx)


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


def _along_axis(amps: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """``matrix`` applied to one axis of a (dim,) * N amplitude tensor.

    One matrix product over a reshaped view, with no axis moved: the
    last axis is contracted from the right, any other one from the left
    of a (before, dim, after) stack.
    """
    dim = matrix.shape[0]
    after = amps.size // dim ** (axis + 1)
    if after == 1:
        return (amps.reshape(-1, dim) @ matrix.T).reshape(amps.shape)
    return (matrix @ amps.reshape(-1, dim, after)).reshape(amps.shape)


def _rotate_axes(amps: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` applied to every axis: a change of single-top basis."""
    for axis in range(amps.ndim):
        amps = _along_axis(amps, matrix, axis)
    return amps


class TopEngine:
    """Applies the one-cycle map U = U_f U_k for a TopSpec."""

    def __init__(self, spec: TopSpec):
        self.spec = spec
        self._x_values, basis = spec._jx_eigenbasis
        self._twist_x = tuple(
            self._jx_frame_twist(n, basis) for n in range(spec.top_count)
        )
        self._field_phase = np.exp(-1j * self._field_diagonal())
        # Every reversal's sign is (-1)^j, so their product is one scalar,
        # and the field phase times it: a step is the twists' matrix parts,
        # then one multiply by the latter.  Multiplying by +-1 is exact, so
        # the bits match a twist followed by the field.
        reversals = sum(form == "reverse" for form, _ in self._twist_x)
        self._twist_signs = (-1.0) ** (spec.j_tot * reversals)
        self._step_phase = self._field_phase * self._twist_signs
        # Each top's J_z band b padded to bp with bp[q + 1] = b_q and
        # zeros at both ends, shaped to broadcast over the (before, dim,
        # 2 * after) float view of its axis.  The last axis's band is
        # repeated over each (re, im) pair, so numpy runs one contiguous
        # loop there rather than one loop of length 2 per index.
        band = np.pad(self._jx_frame_jz_band(), 1)[:, None]
        last = spec.top_count - 1
        self._jz_bands = tuple(
            np.repeat(band, 2, axis=1) if n == last else band
            for n in range(spec.top_count)
        )

    def _jx_frame_jz_band(self) -> np.ndarray:
        """Off-diagonal of one top's J_z over its J_x eigenbasis.

        A quarter turn about y takes J_x to J_z, so B = W^T J_z W is
        tridiagonal with a zero diagonal and band magnitudes
        b_k = sqrt(j(j+1) - k(k+1)) / 2 for k = -j..j-1.  The signs follow
        from W's positive edge row e: row m = j of J_z W = W B reads
        j e_k = B_{k-1,k} e_{k-1} + B_{k,k+1} e_{k+1}, which the binomial
        e_k satisfy with every entry +b_k, and, solved from k = -j up,
        with no other signs.  So the band is exact and positive.
        """
        j = self.spec.j_tot
        k = np.arange(-j, j, dtype=float)
        return 0.5 * np.sqrt(j * (j + 1) - k * (k + 1))

    def _jx_frame_twist(self, n: int, basis: np.ndarray) -> tuple:
        """(form, operand) of top n's twist over its J_x eigenbasis.

        ``skip``: exact principal resonance, the phase is exactly 1.
        ``reverse``: exact secondary resonance; T = exp(-i pi J_z) maps the
        J_x eigenvector c_k to +-c_{-k}, so W^T T W is a reversal of the
        axis times signs that are all (-1)^j: the edge entry of T c_k is
        (-1)^j c_k(j), and c_k(j) = c_{-k}(j) > 0, a binomial amplitude.
        The engine keeps that sign as one scalar, so no operand is returned.
        ``dense``: any other rational or a detuning, the matrix W^T T W.
        """
        spec = self.spec
        j = spec.j_tot
        r, s = spec.plan.rationals[n]
        delta = spec.plan.detunings[n]
        if s == 1 and delta == 0.0:
            return "skip", None
        if s == 2 and delta == 0.0:
            return "reverse", None
        m = np.arange(-j, j + 1)
        residue = (r % s) * ((m * m) % s) % s
        phase = np.exp(-2j * np.pi * residue / s)
        if delta:
            phase = phase * np.exp(-1j * delta * (m * m) / (2.0 * j))
        return "dense", basis.T @ (phase[:, None] * basis)

    def _field_diagonal(self) -> np.ndarray:
        """H_f eigenvalue grid over the product J_x eigenbasis."""
        spec = self.spec
        grid = np.zeros(spec.shape)
        for term in spec.field_terms:
            scale = term.weight(spec.j_tot)
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

    def _kick(self, state: TopState, twist: bool, phase) -> TopState:
        """One pass over the J_x-frame amplitudes: with ``twist``, the
        dense twists in axis order and each reversal as a flipped view,
        then one multiply by ``phase``."""
        self._check_state(state)
        amps = state._jx
        for n, (form, operand) in enumerate(self._twist_x if twist else ()):
            if form == "reverse":
                amps = np.flip(amps, n)
            elif form == "dense":
                amps = _along_axis(amps, operand, n)
        return TopState._from_jx(self.spec, amps * phase)

    def twist(self, state: TopState) -> TopState:
        return self._kick(state, True, self._twist_signs)

    def field_rotation(
        self, state: TopState, *, after_twist: bool = False
    ) -> TopState:
        """U_f alone, one multiply by the field phase.  With
        ``after_twist``, the whole cycle U_f U_k in that same one pass: the
        twists' matrix parts, then one multiply by the field phase times
        the reversals' scalar sign.  ``step`` takes its pass here, so a span
        around this method times the work of every kick."""
        if after_twist:
            return self._kick(state, True, self._step_phase)
        return self._kick(state, False, self._field_phase)

    def step(self, state: TopState) -> TopState:
        return self.field_rotation(state, after_twist=True)

    def evolve(self, state: TopState, steps: int) -> TopState:
        for _, out in self.trajectory(state, steps):
            pass
        return out

    def trajectory(
        self, state: TopState, steps: int
    ) -> Iterator[tuple]:
        _check_step(steps)
        self._check_state(state)
        yield 0, state
        for t in range(1, steps + 1):
            state = self.step(state)
            yield t, state

    # ------------------------------------------------------------------
    # observables

    def measure_jz_moments(self, state: TopState, t: int = 0) -> MomentRecord:
        """<J_nz> and <J_nz^2> of every top, read in the J_x frame over the
        state's occupied box (see entanglement.BOX_FLOOR).

        Along axis n the box keeps the indices k_i = lo + s i, i < L.
        B = J_nz psi is two shifted products with the real padded band,
        up = bp[k] onto k - 1 and down = bp[k + 1] onto k + 1, which land on
        L + 3 - s slots.  <J_nz^2> = ||B||^2 cannot go negative.  With
        s = 1, <J_nz> = Re <psi|B> over the kept slots; with s = 2, B lies
        on the empty parity class, which J_z reaches from the occupied
        one, so <J_nz> is 0.  Both are taken over a float view with
        elementwise products and sums only, so their bits do not depend
        on the BLAS thread count.
        """
        self._check_state(state)
        box = state._jx_box()
        amps = np.ascontiguousarray(state._jx[box])
        means, seconds = [], []
        for n, (band, cut) in enumerate(zip(self._jz_bands, box)):
            lo, hi, step = cut.start, cut.stop, cut.step or 1
            size = amps.shape[n]
            psi = amps.reshape(math.prod(amps.shape[:n]), size, -1).view(float)
            # contiguous band slices, so the last axis's (re, im) loop merges
            up = np.ascontiguousarray(band[lo:hi:step])
            down = np.ascontiguousarray(band[lo + 1 : hi + 1 : step])
            applied = np.zeros((psi.shape[0], size + 3 - step, psi.shape[2]))
            np.multiply(up, psi, out=applied[:, :size])
            applied[:, 3 - step :] += down * psi
            if step == 1:
                means.append(float((psi * applied[:, 1 : size + 1]).sum()))
            else:
                means.append(0.0)
            np.square(applied, out=applied)
            seconds.append(float(applied.sum()))
        return MomentRecord(_check_int(t, "t"), tuple(means), tuple(seconds))

    def measure_jx_moments(self, state: TopState, t: int = 0) -> MomentRecord:
        self._check_state(state)
        marginals = state._jx_marginals()
        values = [self._x_values] * len(marginals)
        return marginal_moments(marginals, values, t)

    def _check_state(self, state: TopState) -> None:
        if state.spec.shape != self.spec.shape:
            raise ValidationError(
                f"state shape {state.spec.shape} does not match the "
                f"engine's {self.spec.shape}"
            )


def top_purity(state: TopState, part: BipartitionSpec) -> float:
    """Tr(rho_A^2) of a pure top state over a block of tops.

    Read in the J_x frame: ||M M^dagger||_F^2 is unchanged by the local
    change of frame W x ... x W, and the Gram product runs over the
    occupied box of the J_x-frame marginals.  A state built from J_z
    amplitudes is read from them over the whole window instead, so a J_z
    product start reads exactly 1.
    """
    if part.rotor_count != state.spec.top_count:
        raise ValidationError("bipartition top count mismatch")
    cap = state.spec.element_cap
    if state._jz is not None:
        return _block_purity(state._jz, part, cap)
    return _block_purity(state._jx, part, cap, state._jx_box)
