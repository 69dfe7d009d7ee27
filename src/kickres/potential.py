"""Trigonometric kick potentials on a ring lattice and their symmetry algebra.

A potential is a finite cosine series

    V(theta) = sum_k  c_k * cos(m_k . theta + phi_k),

with integer mode vectors ``m_k`` over ``N`` rotors.  At the lowest kick
resonances a subset of rotors acquires a half-turn shift ``theta_j -> theta_j
+ pi`` every second kick; each term is then either even or odd under that
shift depending on the parity of ``sum_{j in S} m_j``.  Everything in this
module is exact integer/float bookkeeping on the term list - no grids, no
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi


class SymmetryClass(Enum):
    """Behaviour of a sub-potential under the half-turn shift."""

    ZERO = "zero"
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class FourierTerm:
    """One cosine term ``c * cos(m . theta + phi)``.

    Terms are canonicalized at construction: since cosine is even,
    ``(m, phi)`` and ``(-m, -phi)`` describe the same function, so the sign
    is flipped until the first nonzero mode is positive, and ``phi`` is
    wrapped into ``[0, 2pi)``.  Constant terms (all modes zero) are rejected;
    they would only add a global phase.
    """

    coefficient: float
    modes: tuple[int, ...]
    phase: float = 0.0

    def __post_init__(self) -> None:
        modes = tuple(_check_int(m, "modes") for m in self.modes)
        if not modes:
            raise ValidationError("a term needs at least one rotor")
        if all(m == 0 for m in modes):
            raise ValidationError("constant terms (all modes zero) are not allowed")
        coefficient = float(self.coefficient)
        phase = float(self.phase)
        if not math.isfinite(coefficient) or not math.isfinite(phase):
            raise ValidationError("term coefficient and phase must be finite")
        first = next(m for m in modes if m != 0)
        if first < 0:
            modes = tuple(-m for m in modes)
            phase = -phase
        phase %= TWO_PI
        if phase == TWO_PI:
            # a negative phase within half an ulp of 0 rounds up to 2pi
            phase = 0.0
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "phase", phase)


def cosine_term(coefficient: float, modes: Sequence[int]) -> FourierTerm:
    return FourierTerm(coefficient, tuple(modes), 0.0)


def sine_term(coefficient: float, modes: Sequence[int]) -> FourierTerm:
    """``c * sin(m . theta)`` expressed as a cosine term (phi = -pi/2)."""
    return FourierTerm(coefficient, tuple(modes), -0.5 * math.pi)


def term_text(term: FourierTerm) -> str:
    """Canonical rendering ``c*cos(m1*theta1 + ... + phi)`` for reports.

    Canonicalization guarantees the first nonzero mode is positive, so the
    argument never starts with a minus sign.  The phase is printed only when
    nonzero, already wrapped into ``[0, 2pi)``.
    """
    parts: list[str] = []
    for j, m in enumerate(term.modes):
        if m == 0:
            continue
        name = f"theta{j + 1}"
        factor = name if abs(m) == 1 else f"{abs(m)}*{name}"
        if not parts:
            parts.append(factor)
        else:
            parts.append((" + " if m > 0 else " - ") + factor)
    arg = "".join(parts)
    if term.phase != 0.0:
        arg += f" + {term.phase:.12g}"
    return f"{term.coefficient:.12g}*cos({arg})"


@dataclass(frozen=True)
class PotentialSpec:
    """A cosine series over ``rotor_count`` rotors.

    Duplicate terms (same canonical ``(modes, phase)``) are merged by
    coefficient addition and exact zeros are dropped, so an empty ``terms``
    tuple really means the zero potential.  The term order is normalized,
    which makes equal potentials compare equal.
    """

    rotor_count: int
    terms: tuple[FourierTerm, ...] = ()

    def __post_init__(self) -> None:
        n = _check_int(self.rotor_count, "rotor_count")
        if n < 1:
            raise ValidationError("rotor_count must be >= 1")
        merged: dict[tuple[tuple[int, ...], float], float] = {}
        for term in self.terms:
            if len(term.modes) != n:
                raise ValidationError(
                    f"term has {len(term.modes)} modes, expected {n}"
                )
            key = (term.modes, term.phase)
            merged[key] = merged.get(key, 0.0) + term.coefficient
        kept = tuple(
            sorted(
                (
                    FourierTerm(c, m, p)
                    for (m, p), c in merged.items()
                    if c != 0.0
                ),
                key=lambda t: (t.modes, t.phase),
            )
        )
        object.__setattr__(self, "rotor_count", n)
        object.__setattr__(self, "terms", kept)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def kick_bandwidth(self, rotor: int) -> float:
        """sum_k |c_k * m_{k,rotor}| - bounds the per-kick momentum spread."""
        _check_rotor(self, rotor)
        return float(
            sum(abs(t.coefficient * t.modes[rotor]) for t in self.terms)
        )

    def evaluate(self, thetas: Sequence[np.ndarray]) -> np.ndarray:
        """V at the given angles.

        ``thetas`` is a length-``rotor_count`` sequence of mutually
        broadcastable arrays (grid axes or sample columns).
        """
        arrays = [np.asarray(th, dtype=float) for th in thetas]
        if len(arrays) != self.rotor_count:
            raise ValidationError("need one angle array per rotor")
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        out = np.zeros(shape)
        for term in self.terms:
            arg = term.phase
            for m, th in zip(term.modes, arrays):
                if m:
                    arg = arg + m * th
            out += term.coefficient * np.cos(arg)
        return out


def _check_rotor(spec: PotentialSpec, rotor: int) -> None:
    if not 0 <= _check_int(rotor, "rotor") < spec.rotor_count:
        raise ValidationError(
            f"rotor index {rotor} out of range for {spec.rotor_count} rotors"
        )


def term_parity(term: FourierTerm, shift_set: Iterable[int]) -> int:
    """Parity (0 or 1) of ``sum_{j in shift_set} m_j``.

    Even terms are invariant under the half-turn shift on ``shift_set``,
    odd terms change sign.  Pure integer arithmetic.
    """
    modes = term.modes
    return sum(modes[_check_int(j, "shift_set")] for j in shift_set) % 2


def decompose(
    spec: PotentialSpec, shift_set: Iterable[int]
) -> tuple[PotentialSpec, PotentialSpec]:
    """Split into (even, odd) parts under the half-turn shift.

    The two parts partition the term list exactly, so ``even + odd``
    reconstructs the input.
    """
    shift = frozenset(shift_set)
    even = tuple(t for t in spec.terms if term_parity(t, shift) == 0)
    odd = tuple(t for t in spec.terms if term_parity(t, shift) == 1)
    return (
        PotentialSpec(spec.rotor_count, even),
        PotentialSpec(spec.rotor_count, odd),
    )


def _parity_class(parities: Iterable[int]) -> SymmetryClass:
    """Class of a series whose terms have these shift parities."""
    parities = set(parities)
    if not parities:
        return SymmetryClass.ZERO
    if parities == {0}:
        return SymmetryClass.SYMMETRIC
    if parities == {1}:
        return SymmetryClass.ANTISYMMETRIC
    return SymmetryClass.ASYMMETRIC


def classify(spec: PotentialSpec, shift_set: Iterable[int]) -> SymmetryClass:
    """Symmetry class of the whole series under the half-turn shift."""
    return _parity_class(term_parity(t, shift_set) for t in spec.terms)


def effective_potential(spec: PotentialSpec, rotor: int) -> PotentialSpec:
    """Terms that actually move the given rotor (``m_rotor != 0``)."""
    _check_rotor(spec, rotor)
    return PotentialSpec(
        spec.rotor_count,
        tuple(t for t in spec.terms if t.modes[rotor] != 0),
    )


def split_interaction(
    spec: PotentialSpec, part_a: Iterable[int]
) -> tuple[PotentialSpec, PotentialSpec, PotentialSpec]:
    """Route terms into (V_A, V_B, V_I) for the bipartition ``part_a``.

    A term goes to V_A if its support lies inside ``part_a``, to V_B if it
    lies in the complement, and to the interaction V_I otherwise.  The three
    parts partition the term list.
    """
    a = frozenset(_check_int(j, "part_a") for j in part_a)
    full = frozenset(range(spec.rotor_count))
    if not a or not a < full:
        raise ValidationError(
            "part_a must be a nonempty proper subset of the rotor indices"
        )
    va, vb, vi = [], [], []
    for term in spec.terms:
        support = {j for j, m in enumerate(term.modes) if m != 0}
        if support <= a:
            va.append(term)
        elif support.isdisjoint(a):
            vb.append(term)
        else:
            vi.append(term)
    n = spec.rotor_count
    return (
        PotentialSpec(n, tuple(va)),
        PotentialSpec(n, tuple(vb)),
        PotentialSpec(n, tuple(vi)),
    )


def _check_int(value, name: str) -> int:
    """``int(value)``, or ValidationError naming the argument unless
    ``value`` is an integer (a Python or numpy integer, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be integers, got {value!r}")
    return int(value)


def _check_step(steps, name: str = "steps") -> int:
    """``int(steps)``, or ValidationError naming the argument unless
    ``steps`` is a step count: an integer >= 0, not a bool."""
    steps = _check_int(steps, name)
    if steps < 0:
        raise ValidationError(f"{name} must be >= 0")
    return steps


def accumulated_potential(
    spec: PotentialSpec, shift_set: Iterable[int], steps: int
) -> PotentialSpec:
    """Angle-diagonal exponent built up by ``steps`` resonant kicks.

    Even terms accumulate coherently (coefficient ``steps * c``); odd terms
    cancel pairwise and survive only once at odd step counts.  ``steps = 0``
    gives the zero potential (identity map).
    """
    _check_step(steps)
    shift = frozenset(shift_set)
    terms = []
    for t in spec.terms:
        if term_parity(t, shift) == 0:
            if steps:
                terms.append(FourierTerm(steps * t.coefficient, t.modes, t.phase))
        elif steps % 2 == 1:
            terms.append(t)
    return PotentialSpec(spec.rotor_count, tuple(terms))


@dataclass(frozen=True)
class ResonancePlan:
    """Per-rotor kicking periods ``4 pi r_j / s_j (+ detuning)``, held exactly.

    The rational part never touches floating point: phases built from it are
    reduced with integer modular arithmetic, so a plan is "exact" whenever
    all detunings vanish.  The derived ``shift_set`` collects the rotors
    with even resonance order; those are the ones that acquire the half-turn
    angle shift in the factorized evolution.
    """

    rationals: tuple[tuple[int, int], ...]
    detunings: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        rationals = []
        for pair in self.rationals:
            r, s = (_check_int(x, "rationals") for x in pair)
            if r < 1 or s < 1:
                raise ValidationError(
                    f"resonance ratio ({r}, {s}) must have positive numerator "
                    "and denominator"
                )
            g = math.gcd(r, s)
            rationals.append((r // g, s // g))
        detunings = tuple(float(d) for d in self.detunings)
        if not detunings:
            detunings = (0.0,) * len(rationals)
        if len(detunings) != len(rationals):
            raise ValidationError("need one detuning per rotor")
        if not all(math.isfinite(d) for d in detunings):
            raise ValidationError("detunings must be finite")
        object.__setattr__(self, "rationals", tuple(rationals))
        object.__setattr__(self, "detunings", detunings)

    @property
    def rotor_count(self) -> int:
        return len(self.rationals)

    @property
    def shift_set(self) -> frozenset[int]:
        """Rotors with even resonance order (half-turn shift carriers)."""
        return frozenset(j for j, (_, s) in enumerate(self.rationals) if s % 2 == 0)

    @property
    def is_exact(self) -> bool:
        return all(d == 0.0 for d in self.detunings)


def satisfies_resonance_symmetry(spec: PotentialSpec, plan: ResonancePlan) -> bool:
    """Whether every term is invariant under the per-rotor resonance shifts.

    For resonance order ``s_j`` the required angle period is ``4 pi / s_j``
    on even-order rotors and ``2 pi / s_j`` otherwise, which for a cosine
    term means ``m_j`` divisible by ``s_j / 2`` resp. ``s_j``.  Orders 1 and
    2 impose nothing.  Only defined at exact resonance.
    """
    if spec.rotor_count != plan.rotor_count:
        raise ValidationError("potential and plan disagree on rotor count")
    if not plan.is_exact:
        raise ValidationError(
            "the resonance symmetry condition is defined at zero detuning"
        )
    for term in spec.terms:
        for m, (_, s) in zip(term.modes, plan.rationals):
            divisor = s // 2 if s % 2 == 0 else s
            if divisor > 1 and m % divisor != 0:
                return False
    return True
