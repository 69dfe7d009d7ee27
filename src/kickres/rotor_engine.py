"""Split-operator propagation of coupled kicked rotors on momentum windows.

States live on per-rotor integer momentum windows.  A kick is a circular
convolution done by FFT to the angle grid, pointwise phase multiplication,
and FFT back; free rotation is diagonal in momentum with the rational part
of its phase reduced by integer modular arithmetic, so no accuracy is lost
at large momentum.  Besides the generic per-step propagator there is one
closed-form path, ``dressed_evolve``: one accumulated kick plus the
momentum phases of t free rotations, valid at any exact resonance whose
potential meets the translation-symmetry condition (which orders 1 and 2
always do).  ``observe`` is the one loop that steps an engine, for every
run: it records each state's moments, filled against the t = 0 record as
they are measured, and optionally its purity.

Windows follow the occupied support.  A run starts on the bandwidth
reach of its first ``START_STEPS`` kicks plus the margin; after each step,
every rotor whose edge mass passes ``GROW_TRIGGER`` (far below the
``tail_tol`` the element cap may stop growth at) grows by
``GROWTH_FACTOR``, at least by its minimum pad, and the step is redone
on the wider window.  ``dressed_evolve`` cannot grow, so its callers
size the windows for the worst-case reach of all the steps.  Every length
is rounded up to a 7-smooth one (prime factors 2, 3, 5, 7), which numpy's
FFT handles at full speed (Frigo & Johnson, Proc. IEEE 93(2), 2005).

A run's first step writes a new working state, and every later step runs
in place on it, holding two window-size arrays: the state and the kick
table.  ``trajectory`` yields that working state itself, read-only while
the walk is suspended, so a yielded state is valid until the next step
and a caller that keeps one copies it.  The redo needs no pre-step state:
a step is unitary on its own window, even once its edges have filled and
wrapped, so the inverse step recovers the pre-step state to roundoff in
the same buffer, and a grow holds the old state, the new table and the
new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceCapError, TruncationError, ValidationError
from .potential import (
    PotentialSpec,
    ResonancePlan,
    _check_int,
    _check_real,
    _check_rotor,
    _check_seq,
    _check_step,
    accumulated_potential,
    satisfies_resonance_symmetry,
)

DEFAULT_ELEMENT_CAP = 1 << 26  # complex amplitudes: 1 GiB at 16 bytes each
DEFAULT_TAIL_TOL = 1e-10
DEFAULT_WINDOW_MARGIN = 16  # start-window pad per side past the kick reach
DEFAULT_TAIL_BUDGET = 1e-8
START_STEPS = 4  # a growing run's first window covers this many kicks
GROW_TRIGGER = 1e-20  # edge mass that makes a rotor's window grow
GROWTH_FACTOR = 1.25
GROW_MARGIN = 16  # minimum pad per side: this plus ceil(bandwidth)
MARGINAL_BLOCK = 1 << 16  # |a|^2 elements per block in axis_marginals


def _smooth_length(n: int) -> int:
    """Smallest integer >= n whose prime factors are all at most 7."""
    n = max(int(n), 1)
    best = 1 << (n - 1).bit_length()  # a power of two always qualifies
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                p2 = p3
                while p2 < n:
                    p2 *= 2
                best = min(best, p2)
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


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
        _check_int(self.element_cap, "element_cap")
        windows = []
        for pair in _check_seq(self.windows, "windows", check=None):
            lo, hi = _check_seq(pair, "windows", 2)
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
        margin: int = DEFAULT_WINDOW_MARGIN,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ) -> "RotorLattice":
        """Windows for a ``steps``-kick run from the given centers.

        Each kick shifts momentum by at most the potential's per-rotor
        bandwidth (sum of |coefficient * mode|), so the padding
        ``ceil(k * bandwidth) + margin`` bounds the support k kicks reach;
        the margin absorbs the soft Bessel tails.  The windows cover
        k = ``steps``, the worst case that ``dressed_evolve`` needs.  Each
        length is rounded up to a 7-smooth one around its center, unless
        that alone would pass the element cap.
        """
        momenta = _check_seq(initial_momenta, "initial_momenta", potential.rotor_count)
        steps, margin = _check_step(steps), _check_int(margin, "margin")
        windows = []
        for j, p0 in enumerate(momenta):
            half = math.ceil(steps * potential.kick_bandwidth(j)) + margin
            windows.append((p0 - half, p0 + half))
        exact = cls(tuple(windows), element_cap)
        smooth = [_smooth_length(m) for m in exact.shape]
        if math.prod(smooth) > element_cap:
            return exact
        return exact.resized(smooth)

    @classmethod
    def start_window(
        cls, potential: PotentialSpec, initial_momenta, steps: int, **sizing
    ) -> "RotorLattice":
        """First windows of a growing ``steps``-kick run.

        ``for_run`` over min(steps, START_STEPS) kicks, with its ``margin``
        and ``element_cap`` keywords; the engine's trajectory widens the
        windows as their edges fill.
        """
        reach = min(_check_step(steps), START_STEPS)
        return cls.for_run(potential, initial_momenta, reach, **sizing)

    @property
    def rotor_count(self) -> int:
        return len(self.windows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.windows)

    def momenta(self, rotor: int) -> np.ndarray:
        lo, hi = self.windows[_check_rotor(self, rotor)]
        return np.arange(lo, hi + 1, dtype=np.int64)

    def angles(self, rotor: int) -> np.ndarray:
        m = self.shape[_check_rotor(self, rotor)]
        return 2.0 * np.pi * np.arange(m) / m

    def axis_view(self, rotor: int, values: np.ndarray) -> np.ndarray:
        """Reshape a per-rotor 1-D array so it broadcasts along its axis."""
        shape = [1] * self.rotor_count
        shape[_check_rotor(self, rotor)] = len(values)
        return values.reshape(shape)

    def resized(self, lengths: Sequence[int]) -> "RotorLattice":
        """Windows of the given lengths, each centered on the current one
        (an odd extra cell goes on top)."""
        windows = []
        lengths = _check_seq(lengths, "lengths", self.rotor_count)
        for (lo, hi), m in zip(self.windows, lengths):
            lo -= (m - (hi - lo + 1)) // 2
            windows.append((lo, lo + m - 1))
        return RotorLattice(tuple(windows), self.element_cap)


def _coherent_packet(
    momenta: np.ndarray, theta0: float, p0: float, width: float
) -> np.ndarray:
    """Normalized exp(-(l - p0)^2 / (4 width^2)) * exp(-i l theta0) over l.

    The meaning of ``initial.type: coherent`` for one rotor: the rotor
    state and the predictor's angular density both build it here.
    """
    l = np.asarray(momenta, dtype=float)
    g = np.exp(-((l - p0) ** 2) / (4.0 * width**2)) * np.exp(
        -1j * l * theta0
    )
    return g / np.linalg.norm(g)


def unit_norm(amplitudes: np.ndarray) -> float:
    """Norm of a rotor or top state's amplitudes; ValidationError unless
    within 1e-10 of 1.  One contiguous pass: np.linalg.norm splits a
    complex array into two strided ones and runs tens of times slower."""
    norm = math.sqrt(np.vdot(amplitudes, amplitudes).real)
    if not math.isfinite(norm) or abs(norm - 1.0) > 1e-10:
        raise ValidationError(
            f"state norm {norm} deviates from 1 beyond 1e-10"
        )
    return norm


def axis_marginals(amplitudes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each axis's marginal of |amplitudes|^2, formed and summed one block
    of the leading axis at a time (at most MARGINAL_BLOCK elements, or one
    row), so no full-size probability array is made."""
    a = amplitudes
    axes = range(a.ndim)
    rows = max(1, MARGINAL_BLOCK // (a.size // len(a)))
    margs = [np.empty(len(a))] + [np.zeros(m) for m in a.shape[1:]]
    block = np.empty((min(rows, len(a)),) + a.shape[1:])
    for i in range(0, len(a), rows):
        p = np.abs(a[i : i + rows], out=block[: len(a) - i])
        p *= p
        margs[0][i : i + rows] = p.sum(axis=tuple(axes[1:]))
        for j in axes[1:]:
            margs[j] += p.sum(axis=tuple(k for k in axes if k != j))
    return tuple(margs)


class RotorState:
    """Normalized momentum amplitude tensor over a lattice.  It owns its
    amplitudes, so its kept marginals stay valid: a caller's array is
    copied, and the module's own fresh arrays are handed over (``_owned``)."""

    def __init__(
        self, lattice: RotorLattice, amplitudes: np.ndarray, *, _owned=False
    ) -> None:
        take = np.asarray if _owned else np.array
        amplitudes = take(amplitudes, dtype=complex)
        if amplitudes.shape != lattice.shape:
            raise ValidationError(
                f"amplitude shape {amplitudes.shape} does not match "
                f"lattice shape {lattice.shape}"
            )
        self.lattice = lattice
        self.amplitudes = amplitudes
        self._marginals: tuple[np.ndarray, ...] | None = None
        unit_norm(amplitudes)

    @classmethod
    def momentum_eigenstate(
        cls, lattice: RotorLattice, momenta: Sequence[int]
    ) -> "RotorState":
        idx = []
        for j, l in enumerate(_check_seq(momenta, "momenta", lattice.rotor_count)):
            lo, hi = lattice.windows[j]
            if not lo <= l <= hi:
                raise ValidationError(
                    f"momentum {l} outside window [{lo}, {hi}] of rotor {j}"
                )
            idx.append(l - lo)
        amps = np.zeros(lattice.shape, dtype=complex)
        amps[tuple(idx)] = 1.0
        return cls(lattice, amps, _owned=True)

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
        width = _check_real(width, "width", positive=True)
        centers = _check_seq(centers, "centers", lattice.rotor_count, None)
        factors = []
        for j, center in enumerate(centers):
            theta0, p0 = _check_seq(center, "centers", 2, _check_real)
            lo, hi = lattice.windows[j]
            if p0 - 6.0 * width < lo or p0 + 6.0 * width > hi:
                raise ValidationError(
                    f"rotor {j} window [{lo}, {hi}] too small for the "
                    f"12-sigma support of a packet at p0={p0}, width={width}"
                )
            factors.append(
                _coherent_packet(lattice.momenta(j), theta0, p0, width)
            )
        amps = factors[0]
        for g in factors[1:]:
            amps = np.multiply.outer(amps, g)
        return cls(lattice, amps, _owned=True)

    def norm(self) -> float:
        return unit_norm(self.amplitudes)

    def momentum_marginals(self) -> tuple[np.ndarray, ...]:
        """Probability over each rotor's momentum window.

        Computed on first use and kept, so the trajectory's edge check and
        the caller's moments share one pass.  An in-place step hands its
        result over in a new state, which forms its own.
        """
        if self._marginals is None:
            self._marginals = axis_marginals(self.amplitudes)
        return self._marginals

    def edge_mass(self) -> tuple[float, ...]:
        """Probability on the outermost two cells of each window."""
        return tuple(
            float(marg[:2].sum() + marg[-2:].sum())
            for marg in self.momentum_marginals()
        )


@dataclass(frozen=True, slots=True)
class MomentRecord:
    """Per-step momentum moments; ``observe`` fills the displacement
    fields against the t=0 record as it measures each step.  Slotted: a
    run keeps one per step, and a slotted record is a third smaller."""

    t: int
    mean: tuple[float, ...]
    second: tuple[float, ...]
    displacement: tuple[float, ...] | None = None
    spread: tuple[float, ...] | None = None
    variance: tuple[float, ...] | None = None


def marginal_moments(
    marginals: Sequence[np.ndarray], values: Sequence[np.ndarray], t: int
) -> MomentRecord:
    """First and second moments of ``values[j]`` under ``marginals[j]``."""
    means, seconds = [], []
    for weights, v in zip(marginals, values, strict=True):
        means.append(float(np.dot(weights, v)))
        seconds.append(float(np.dot(weights, v * v)))
    return MomentRecord(_check_int(t, "t"), tuple(means), tuple(seconds))


def measure_moments(state: RotorState, t: int = 0) -> MomentRecord:
    lat = state.lattice
    values = [lat.momenta(j).astype(float) for j in range(lat.rotor_count)]
    return marginal_moments(state.momentum_marginals(), values, t)


def observe(
    engine, state, steps: int, measure, purity=None
) -> tuple[list[MomentRecord], list[float]]:
    """Step ``engine`` from ``state`` and observe every state it yields.

    ``engine`` is a RotorEngine or a TopEngine: anything whose
    ``trajectory(state, steps)`` yields (t, state) for t = 0..steps.  A
    yielded state is valid until the next step (``RotorEngine.trajectory``
    says why), so ``measure(state, t)``, which gives each step's moments,
    and ``purity(state)``, when given, its bipartite purity, must not keep
    it.  Each record is kept with its displacement D, squared displacement
    sigma^2 and variance filled against the first, which must be the t=0
    record (ValidationError otherwise).  sigma^2 uses <p^2>_t - 2<p>_t <p>_0 + <p^2>_0, which
    equals the Heisenberg squared displacement exactly when the initial
    state is a momentum eigenstate (the only case the closed-form laws
    address) and stays non-negative for any initial state.  Returns the
    records and the purities (empty without ``purity``).  A
    TruncationError or ResourceCapError from the trajectory passes
    through unchanged, naming its step.
    """
    records, purities = [], []
    for t, current in engine.trajectory(state, steps):
        rec = measure(current, t)
        if not records and rec.t != 0:
            raise ValidationError("the first record must be the t=0 reference")
        ref = records[0] if records else rec
        pairs = list(zip(rec.mean, rec.second, ref.mean, ref.second))
        disp = tuple(m - m0 for m, _, m0, _ in pairs)
        spread = tuple(s - 2.0 * m * m0 + s0 for m, s, m0, s0 in pairs)
        var = tuple(s - d * d for s, d in zip(spread, disp))
        records.append(
            MomentRecord(rec.t, rec.mean, rec.second, disp, spread, var)
        )
        if purity is not None:
            purities.append(purity(current))
    return records, purities


class RotorEngine:
    """Propagators for one (potential, plan) pair on a momentum lattice.

    trajectory() widens a rotor's window whenever its edge mass passes
    GROW_TRIGGER, so the tail tolerance comes into play only where the
    element cap stops the growth.  The first step writes a new working
    state, so it holds three window-size arrays (the caller's state, the
    working state and the kick table); every later step runs in place and
    holds two (the state and the table), and a grow the old state, the
    new table and the new state.  The caller's state is never written.
    """

    def __init__(
        self,
        potential: PotentialSpec,
        plan: ResonancePlan,
        lattice: RotorLattice,
        tail_tol: float = DEFAULT_TAIL_TOL,
        tail_budget: float = DEFAULT_TAIL_BUDGET,
    ) -> None:
        if potential.rotor_count != plan.rotor_count:
            raise ValidationError("potential and plan disagree on rotor count")
        if lattice.rotor_count != potential.rotor_count:
            raise ValidationError("lattice and potential disagree on rotor count")
        self.potential = potential
        self.plan = plan
        self.tail_tol = _check_real(tail_tol, "tail_tol", positive=True)
        self.tail_budget = _check_real(
            tail_budget, "tail_budget", positive=True
        )
        self.grow_events = 0
        self._pads = [
            GROW_MARGIN + math.ceil(potential.kick_bandwidth(j))
            for j in range(potential.rotor_count)
        ]
        self._configure(lattice)

    def _configure(self, lattice: RotorLattice) -> None:
        self.lattice = lattice
        self._kick_phase = None  # the old table goes before the new one
        self._kick_phase = self._kick_table(self.potential)
        self._free_phase = [
            self._free_axis_phase(j, 1) for j in range(lattice.rotor_count)
        ]

    def _kick_table(self, potential: PotentialSpec) -> np.ndarray:
        """exp(-i V) on the lattice's angle grid, written as cos V and
        -sin V into the two halves of one complex array with no complex
        temporary; the tests pin it to np.exp(-1j * V) bit for bit."""
        lat = self.lattice
        v = potential.evaluate(
            [lat.axis_view(j, lat.angles(j)) for j in range(lat.rotor_count)]
        )
        table = np.empty(v.shape, dtype=complex)
        np.cos(v, out=table.real)
        np.negative(np.sin(v, out=table.imag), out=table.imag)
        return table

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

    def _apply_kick_array(
        self, a: np.ndarray, phase: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        # The momentum-offset twist cancels around a diagonal angle factor,
        # so the plain ifftn/fftn pair is exact here.  ifftn writes into
        # ``out``, or one new array (without ``out`` numpy allocates afresh
        # on every axis pass), and the phase and the forward transform act
        # on it in place.  ``out`` may be ``a`` itself: each axis pass,
        # last axis first, then reads and writes one buffer, to the bits
        # of the out-of-place pair.
        b = np.fft.ifftn(a, out=np.empty_like(a) if out is None else out)
        b *= phase
        return np.fft.fftn(b, out=b)

    def kick(
        self, state: RotorState, out: np.ndarray | None = None
    ) -> RotorState:
        """``state`` after one kick, written into ``out`` when given (an
        in-place step passes ``state.amplitudes``)."""
        self._check_state(state)
        return RotorState(
            state.lattice,
            self._apply_kick_array(state.amplitudes, self._kick_phase, out),
            _owned=True,
        )

    def free_rotation(
        self, state: RotorState, out: np.ndarray | None = None
    ) -> RotorState:
        """``state`` after one free rotation, written into ``out`` when
        given; ``step`` passes the kick's private output, so it rotates in
        place."""
        self._check_state(state)
        phases = self._free_phase
        a = np.multiply(
            state.amplitudes, self.lattice.axis_view(0, phases[0]), out=out
        )
        for j in range(1, len(phases)):
            a *= self.lattice.axis_view(j, phases[j])  # in place, as in kick
        return RotorState(state.lattice, a, _owned=True)

    def step(
        self, state: RotorState, out: np.ndarray | None = None
    ) -> RotorState:
        """One period: kick, then free rotation in place on the kick's
        output.  The kick writes into ``out`` when given, else into one new
        array, so a step holds the state, the next state and the table, or
        with ``out=state.amplitudes`` only the state and the table."""
        kicked = self.kick(state, out=out)
        return self.free_rotation(kicked, out=kicked.amplitudes)

    def evolve(self, state: RotorState, steps: int) -> RotorState:
        for _, state in self.trajectory(state, steps):
            pass
        return state

    def trajectory(
        self, state: RotorState, steps: int
    ) -> Iterator[tuple[int, RotorState]]:
        """Yield (t, state) for t = 0..steps using the generic propagator.

        Raises TruncationError past ``tail_budget`` and ResourceCapError
        where the element cap stops a needed growth, each naming the step.
        The caller's state is never written: the first step writes a new
        array, and every later step, redo included, runs in place on that
        working state.  After t = 0 the working state itself is yielded,
        its buffer read-only (a write raises ValueError) until the walk
        resumes: a yielded state is valid until the next step, and a
        caller that keeps one copies it.  The last state of a finished or
        closed walk is writeable and belongs to the caller.
        """
        _check_step(steps)
        self._check_state(state)
        trigger = min(GROW_TRIGGER, self.tail_tol)
        cumulative_tail = 0.0
        yield 0, state
        for t in range(1, steps + 1):
            # the first step writes a new array, so the caller's is not
            state = self.step(state, out=None if t == 1 else state.amplitudes)
            edges = state.edge_mass()
            # A step whose edges fill has already aliased across the window
            # boundary, so growing takes it back and redoes it on the wider
            # window rather than keep the tainted result.
            while True:
                rotors = [j for j, e in enumerate(edges) if e > trigger]
                if not rotors:
                    break
                wider = self._wider_lattice(rotors)
                if wider is None:
                    if max(edges) > self.tail_tol:
                        raise ResourceCapError(
                            f"rotors {rotors} must grow past the element cap "
                            f"{self.lattice.element_cap} at step {t} (tail "
                            f"mass {max(edges):.3e})"
                        )
                    break  # the cap stops growth inside the tail tolerance
                self._undo(state.amplitudes)
                state = self._embed_wider(state, wider)
                state = self.step(state, out=state.amplitudes)
                edges = state.edge_mass()
            cumulative_tail += max(edges)
            if cumulative_tail > self.tail_budget:
                raise TruncationError(
                    f"cumulative tail mass {cumulative_tail:.3e} exceeds "
                    f"budget {self.tail_budget:.1e} at step {t}"
                )
            state.amplitudes.setflags(write=False)
            try:
                yield t, state
            finally:
                state.amplitudes.setflags(write=True)

    def _undo(self, a: np.ndarray) -> None:
        """Take one step on this lattice back in ``a``'s own buffer: the
        step is unitary on its window, even with its edges filled, so
        dividing out the free phases and then the kick leaves the pre-step
        state to roundoff (the tests pin it within 1e-15 per amplitude)."""
        for j, phase in enumerate(self._free_phase):
            a /= self.lattice.axis_view(j, phase)
        np.fft.ifftn(a, out=a)
        a /= self._kick_phase
        np.fft.fftn(a, out=a)

    def _wider_lattice(self, rotors: Sequence[int]) -> RotorLattice | None:
        """The lattice with the windows of ``rotors`` grown.

        Each grows by GROWTH_FACTOR, but at least by its minimum pad on
        both sides, onto a 7-smooth length.  Where that passes the element
        cap, each grows by as much of its minimum pad as the cap allows,
        so geometric overshoot alone never stops a run.  None when no
        window can grow at all.
        """
        shape = self.lattice.shape
        cap = self.lattice.element_cap
        padded = {j: shape[j] + 2 * self._pads[j] for j in rotors}
        lengths = [
            _smooth_length(max(math.ceil(GROWTH_FACTOR * m), padded[j]))
            if j in padded
            else m
            for j, m in enumerate(shape)
        ]
        if math.prod(lengths) <= cap:
            return self.lattice.resized(lengths)
        lengths = list(shape)
        for j in rotors:
            others = math.prod(lengths) // lengths[j]
            lengths[j] = max(shape[j], min(padded[j], cap // others))
        if lengths == list(shape):
            return None
        return self.lattice.resized(lengths)

    def _embed_wider(
        self, state: RotorState, lattice: RotorLattice
    ) -> RotorState:
        """``state`` zero-padded onto ``lattice``, which becomes the
        engine's lattice.  The new kick table is built first, so the grow
        holds at most the old state, the new table and the new state."""
        slices = tuple(
            slice(old[0] - new[0], old[0] - new[0] + m)
            for old, new, m in zip(
                self.lattice.windows, lattice.windows, self.lattice.shape
            )
        )
        self._configure(lattice)
        amps = np.zeros(lattice.shape, dtype=complex)
        amps[slices] = state.amplitudes
        self.grow_events += 1
        return RotorState(lattice, amps, _owned=True)

    def dressed_evolve(self, state: RotorState, steps: int) -> RotorState:
        """Closed-form t-step evolution at any exact resonance, via the
        dressed commuting factors; requires the translation-symmetry
        condition, which orders 1 and 2 meet for every potential."""
        if not self.plan.is_exact:
            raise ValidationError("closed-form evolution needs zero detuning")
        if not satisfies_resonance_symmetry(self.potential, self.plan):
            raise ValidationError(
                "potential violates the resonance translation symmetry; "
                "the dressed factors do not commute"
            )
        # U^t = [momentum phases of t free rotations] x [one kick by the
        # accumulated potential]; the half-turn dressing phases cancel
        # between the two commuting factors.
        _check_step(steps)
        self._check_state(state)
        acc = accumulated_potential(
            self.potential, self.plan.shift_set, steps
        )
        a = self._apply_kick_array(state.amplitudes, self._kick_table(acc))
        for j in range(self.lattice.rotor_count):
            a *= self.lattice.axis_view(j, self._free_axis_phase(j, steps))
        out = RotorState(state.lattice, a, _owned=True)
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
