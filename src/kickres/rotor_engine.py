"""Split-operator propagation of coupled kicked rotors on momentum windows.

States live on per-rotor integer momentum windows.  A kick is a circular
convolution done by FFT to the angle grid, pointwise phase multiplication,
and FFT back; free rotation is diagonal in momentum with the rational part
of its phase reduced by integer modular arithmetic, so no accuracy is lost
at large momentum.  Besides the generic per-step propagator there are two
closed-form paths: the lowest-resonance factorization (one accumulated
kick plus a parity phase) and its dressed-operator generalization to
higher resonance orders under the translation-symmetry condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceCapError, TruncationError, ValidationError
from .potential import (
    PotentialSpec,
    ResonancePlan,
    accumulated_potential,
    satisfies_resonance_symmetry,
)

DEFAULT_ELEMENT_CAP = 1 << 26  # complex amplitudes: 1 GiB at 16 bytes each
DEFAULT_TAIL_TOL = 1e-10
DEFAULT_TAIL_BUDGET = 1e-8


@dataclass(frozen=True)
class RotorLattice:
    """Per-rotor inclusive momentum windows [l_min, l_max].

    Construction fails when the product of window sizes exceeds
    ``element_cap`` (amplitude count, not bytes) so runaway configs die
    before allocating anything.
    """

    windows: tuple[tuple[int, int], ...]
    element_cap: int = DEFAULT_ELEMENT_CAP

    def __post_init__(self) -> None:
        windows = []
        for pair in self.windows:
            lo, hi = (int(x) for x in pair)
            if hi - lo + 1 < 4:
                raise ValidationError(
                    f"window [{lo}, {hi}] too small (need at least 4 levels)"
                )
            windows.append((lo, hi))
        if not windows:
            raise ValidationError("need at least one rotor window")
        object.__setattr__(self, "windows", tuple(windows))
        total = 1
        for lo, hi in windows:
            total *= hi - lo + 1
        if total > self.element_cap:
            raise ResourceCapError(
                f"lattice needs {total} amplitudes, cap is {self.element_cap}"
            )

    @classmethod
    def for_run(
        cls,
        potential: PotentialSpec,
        initial_momenta: Sequence[int],
        steps: int,
        margin: int = 16,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ) -> "RotorLattice":
        """Windows wide enough for ``steps`` kicks from the given centers.

        Each kick shifts momentum by at most the potential's per-rotor
        bandwidth (sum of |coefficient * mode|), so the padding
        ``ceil(steps * bandwidth) + margin`` bounds the reachable support;
        the margin absorbs the soft Bessel tails.
        """
        if len(initial_momenta) != potential.rotor_count:
            raise ValidationError("need one initial momentum per rotor")
        windows = []
        for j in range(potential.rotor_count):
            half = math.ceil(steps * potential.kick_bandwidth(j)) + margin
            p0 = int(initial_momenta[j])
            windows.append((p0 - half, p0 + half))
        return cls(tuple(windows), element_cap)

    @property
    def rotor_count(self) -> int:
        return len(self.windows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.windows)

    def momenta(self, rotor: int) -> np.ndarray:
        lo, hi = self.windows[rotor]
        return np.arange(lo, hi + 1, dtype=np.int64)

    def angles(self, rotor: int) -> np.ndarray:
        m = self.shape[rotor]
        return 2.0 * np.pi * np.arange(m) / m

    def axis_view(self, rotor: int, values: np.ndarray) -> np.ndarray:
        """Reshape a per-rotor 1-D array so it broadcasts along its axis."""
        shape = [1] * self.rotor_count
        shape[rotor] = len(values)
        return values.reshape(shape)

    def grown(self, rotors: Sequence[int], pad: int) -> "RotorLattice":
        windows = list(self.windows)
        for j in rotors:
            lo, hi = windows[j]
            windows[j] = (lo - pad, hi + pad)
        return RotorLattice(tuple(windows), self.element_cap)


class RotorState:
    """Normalized momentum amplitude tensor over a lattice."""

    def __init__(self, lattice: RotorLattice, amplitudes: np.ndarray) -> None:
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != lattice.shape:
            raise ValidationError(
                f"amplitude shape {amplitudes.shape} does not match "
                f"lattice shape {lattice.shape}"
            )
        norm = float(np.linalg.norm(amplitudes.ravel()))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"state norm {norm} deviates from 1")
        self.lattice = lattice
        self.amplitudes = amplitudes

    @classmethod
    def momentum_eigenstate(
        cls, lattice: RotorLattice, momenta: Sequence[int]
    ) -> "RotorState":
        if len(momenta) != lattice.rotor_count:
            raise ValidationError("need one momentum per rotor")
        idx = []
        for j, l in enumerate(momenta):
            lo, hi = lattice.windows[j]
            l = int(l)
            if not lo <= l <= hi:
                raise ValidationError(
                    f"momentum {l} outside window [{lo}, {hi}] of rotor {j}"
                )
            idx.append(l - lo)
        amps = np.zeros(lattice.shape, dtype=complex)
        amps[tuple(idx)] = 1.0
        return cls(lattice, amps)

    @classmethod
    def coherent_product(
        cls,
        lattice: RotorLattice,
        centers: Sequence[tuple[float, float]],
        width: float,
    ) -> "RotorState":
        """Product of per-rotor Gaussian momentum packets.

        ``centers`` lists (theta0, p0) per rotor; ``width`` is the momentum
        standard deviation.  Amplitudes follow
        exp(-(l - p0)^2 / (4 width^2)) * exp(-i l theta0).
        """
        if width <= 0:
            raise ValidationError("width must be positive")
        if len(centers) != lattice.rotor_count:
            raise ValidationError("need one (theta0, p0) center per rotor")
        factors = []
        for j, (theta0, p0) in enumerate(centers):
            lo, hi = lattice.windows[j]
            if p0 - 6.0 * width < lo or p0 + 6.0 * width > hi:
                raise ValidationError(
                    f"rotor {j} window [{lo}, {hi}] too small for the "
                    f"12-sigma support of a packet at p0={p0}, width={width}"
                )
            l = lattice.momenta(j).astype(float)
            g = np.exp(-((l - p0) ** 2) / (4.0 * width**2)) * np.exp(
                -1j * l * theta0
            )
            factors.append(g / np.linalg.norm(g))
        amps = factors[0]
        for g in factors[1:]:
            amps = np.multiply.outer(amps, g)
        return cls(lattice, amps)

    def copy(self) -> "RotorState":
        return RotorState(self.lattice, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes.ravel()))

    def momentum_marginal(self, rotor: int) -> np.ndarray:
        """Probability over the rotor's momentum window."""
        prob = np.abs(self.amplitudes) ** 2
        axes = tuple(j for j in range(self.lattice.rotor_count) if j != rotor)
        return prob.sum(axis=axes)

    def edge_mass(self, layers: int = 2) -> tuple[float, ...]:
        """Probability on the outermost ``layers`` cells of each window."""
        out = []
        for j in range(self.lattice.rotor_count):
            marg = self.momentum_marginal(j)
            out.append(float(marg[:layers].sum() + marg[-layers:].sum()))
        return tuple(out)


@dataclass(frozen=True)
class MomentRecord:
    """Per-step momentum moments; displacement fields are filled against
    the t=0 reference by displacement_stats."""

    t: int
    mean: tuple[float, ...]
    second: tuple[float, ...]
    displacement: tuple[float, ...] | None = None
    spread: tuple[float, ...] | None = None
    variance: tuple[float, ...] | None = None


def measure_moments(state: RotorState, t: int = 0) -> MomentRecord:
    means, seconds = [], []
    for j in range(state.lattice.rotor_count):
        marg = state.momentum_marginal(j)
        l = state.lattice.momenta(j).astype(float)
        means.append(float(np.dot(marg, l)))
        seconds.append(float(np.dot(marg, l * l)))
    return MomentRecord(t=int(t), mean=tuple(means), second=tuple(seconds))


def displacement_stats(series: Sequence[MomentRecord]) -> list[MomentRecord]:
    """Fill displacement D, squared displacement sigma^2, and variance.

    sigma^2 uses <p^2>_t - 2<p>_t <p>_0 + <p^2>_0, which equals the
    Heisenberg squared displacement exactly when the initial state is a
    momentum eigenstate (the only case the closed-form laws address) and
    stays non-negative for any initial state.
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
            replace(
                rec,
                displacement=tuple(disp),
                spread=tuple(sig),
                variance=tuple(var),
            )
        )
    return out


class RotorEngine:
    """Propagators for one (potential, plan) pair on a fixed lattice.

    ``auto_grow=True`` lets evolve() widen windows when tail mass crosses
    the tolerance instead of raising; the element cap still applies.
    """

    def __init__(
        self,
        potential: PotentialSpec,
        plan: ResonancePlan,
        lattice: RotorLattice,
        tail_tol: float = DEFAULT_TAIL_TOL,
        tail_budget: float = DEFAULT_TAIL_BUDGET,
        auto_grow: bool = False,
    ) -> None:
        if potential.rotor_count != plan.rotor_count:
            raise ValidationError("potential and plan disagree on rotor count")
        if lattice.rotor_count != potential.rotor_count:
            raise ValidationError("lattice and potential disagree on rotor count")
        self.potential = potential
        self.plan = plan
        self.tail_tol = float(tail_tol)
        self.tail_budget = float(tail_budget)
        self.auto_grow = bool(auto_grow)
        self.grow_events = 0
        self._configure(lattice)

    def _configure(self, lattice: RotorLattice) -> None:
        self.lattice = lattice
        axes = [
            lattice.axis_view(j, lattice.angles(j))
            for j in range(lattice.rotor_count)
        ]
        self._kick_phase = np.exp(-1j * self.potential.evaluate(axes))
        self._free_phase = [
            self._free_axis_phase(j, 1) for j in range(lattice.rotor_count)
        ]

    def _free_axis_phase(self, rotor: int, steps: int) -> np.ndarray:
        """exp(-i t tau l^2 / 2) over the window, rational part reduced
        mod s in integers: t*r*l^2 mod s == ((t*r) mod s)*((l mod s)^2) mod s."""
        r, s = self.plan.rationals[rotor]
        l = self.lattice.momenta(rotor)
        residue = ((steps * r) % s) * ((l % s) ** 2) % s
        phase = np.exp(-2j * np.pi * residue / s)
        dt = self.plan.detunings[rotor]
        if dt != 0.0:
            phase = phase * np.exp(-0.5j * dt * steps * l.astype(float) ** 2)
        return phase

    def _apply_kick_array(self, a: np.ndarray, phase: np.ndarray) -> np.ndarray:
        # The momentum-offset twist cancels around a diagonal angle factor,
        # so the plain ifftn/fftn pair is exact here.
        return np.fft.fftn(np.fft.ifftn(a) * phase)

    def kick(self, state: RotorState) -> RotorState:
        self._check_state(state)
        out = RotorState(
            state.lattice,
            self._apply_kick_array(state.amplitudes, self._kick_phase),
        )
        return out

    def free_rotation(self, state: RotorState) -> RotorState:
        self._check_state(state)
        a = state.amplitudes
        for j, phase in enumerate(self._free_phase):
            a = a * self.lattice.axis_view(j, phase)
        return RotorState(state.lattice, a)

    def step(self, state: RotorState) -> RotorState:
        """One period: kick, then free rotation."""
        return self.free_rotation(self.kick(state))

    def evolve(self, state: RotorState, steps: int) -> RotorState:
        for _, state in self.trajectory(state, steps):
            pass
        return state

    def trajectory(
        self, state: RotorState, steps: int
    ) -> Iterator[tuple[int, RotorState]]:
        """Yield (t, state) for t = 0..steps using the generic propagator."""
        if steps < 0:
            raise ValidationError("steps must be >= 0")
        self._check_state(state)
        cumulative_tail = 0.0
        yield 0, state
        for t in range(1, steps + 1):
            nxt = self.step(state)
            tail = max(nxt.edge_mass())
            # A step that trips the tolerance has already aliased across the
            # window boundary, so growing must redo it from the pre-step
            # state on the wider window rather than keep the tainted result.
            while tail > self.tail_tol and self.auto_grow:
                state = self._embed_wider(state)
                nxt = self.step(state)
                tail = max(nxt.edge_mass())
            if tail > self.tail_tol:
                raise TruncationError(
                    f"tail mass {tail:.3e} exceeds tolerance "
                    f"{self.tail_tol:.1e} at step {t}; widen the windows "
                    "or enable auto_grow"
                )
            cumulative_tail += tail
            if cumulative_tail > self.tail_budget:
                raise TruncationError(
                    f"cumulative tail mass {cumulative_tail:.3e} exceeds "
                    f"budget {self.tail_budget:.1e} at step {t}"
                )
            state = nxt
            yield t, state

    def _embed_wider(self, state: RotorState) -> RotorState:
        pad = 16 + max(
            math.ceil(self.potential.kick_bandwidth(j))
            for j in range(self.lattice.rotor_count)
        )
        new_lattice = self.lattice.grown(range(self.lattice.rotor_count), pad)
        slices = tuple(slice(pad, pad + m) for m in self.lattice.shape)
        amps = np.zeros(new_lattice.shape, dtype=complex)
        amps[slices] = state.amplitudes
        self._configure(new_lattice)
        self.grow_events += 1
        return RotorState(new_lattice, amps)

    def resonant_evolve(self, state: RotorState, steps: int) -> RotorState:
        """Closed-form t-step evolution at the two lowest resonance orders."""
        if not self.plan.is_exact:
            raise ValidationError("closed-form evolution needs zero detuning")
        if not self.plan.lowest_orders_only:
            raise ValidationError(
                "resonant_evolve handles orders 1 and 2 only; "
                "use dressed_evolve for higher orders"
            )
        return self._closed_form(state, steps)

    def dressed_evolve(self, state: RotorState, steps: int) -> RotorState:
        """Closed-form t-step evolution at any orders, via the dressed
        commuting factors; requires the translation-symmetry condition."""
        if not self.plan.is_exact:
            raise ValidationError("closed-form evolution needs zero detuning")
        if not satisfies_resonance_symmetry(self.potential, self.plan):
            raise ValidationError(
                "potential violates the resonance translation symmetry; "
                "the dressed factors do not commute"
            )
        return self._closed_form(state, steps)

    def _closed_form(self, state: RotorState, steps: int) -> RotorState:
        # U^t = [momentum phases of t free rotations] x [one kick by the
        # accumulated potential]; the half-turn dressing phases cancel
        # between the two commuting factors.
        if steps < 0:
            raise ValidationError("steps must be >= 0")
        self._check_state(state)
        acc = accumulated_potential(
            self.potential, self.plan.shift_set, steps
        )
        axes = [
            self.lattice.axis_view(j, self.lattice.angles(j))
            for j in range(self.lattice.rotor_count)
        ]
        a = self._apply_kick_array(
            state.amplitudes, np.exp(-1j * acc.evaluate(axes))
        )
        for j in range(self.lattice.rotor_count):
            a = a * self.lattice.axis_view(j, self._free_axis_phase(j, steps))
        out = RotorState(state.lattice, a)
        tail = max(out.edge_mass())
        if tail > self.tail_tol:
            raise TruncationError(
                f"tail mass {tail:.3e} exceeds tolerance {self.tail_tol:.1e} "
                f"after the accumulated kick (t={steps})"
            )
        return out

    def _check_state(self, state: RotorState) -> None:
        if state.lattice.shape != self.lattice.shape:
            raise ValidationError("state lattice does not match the engine")
