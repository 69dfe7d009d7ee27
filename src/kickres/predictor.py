"""Closed-form predictions for resonantly kicked coupled rotors.

This module carries the analytic side of the package: per-rotor kick
statistics and the resulting exact moment laws, the four-block epsilon
statistics behind the linear-entropy closed forms, the regime
classification table with its selection rule, and the detuning
robustness diagnostics (relative kinetic-energy deviation, agreement
time, and the power-law fit of agreement time versus detuning).

Averages over the initial state enter through a product angular density.
Because every averaged quantity here is a trigonometric polynomial of
the angles, all first and second moments are evaluated exactly via the
characteristic sequence chi_j(n) = <exp(i n theta_j)> of each factor;
Monte-Carlo sampling is used only for the non-polynomial entropy
averages (and as a cross-check), with reported standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from .entanglement import BipartitionSpec
from .errors import ValidationError
from .potential import (
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    SymmetryClass,
    classify,
    decompose,
    effective_potential,
    satisfies_resonance_symmetry,
    split_interaction,
)
from .rotor_engine import MomentRecord

TWO_PI = 2.0 * math.pi

MIN_SAMPLE_COUNT = 10_000

# Table-style regime names
REGIME_QUADRATIC = "quadratic"
REGIME_OSCILLATION = "period-2 oscillation"
REGIME_HYBRID = "hybrid"
REGIME_FROZEN = "frozen"
REGIME_QUADRATIC_SAT = "quadratic growth then saturation"
REGIME_HYBRID_SAT = "hybrid then saturation"
REGIME_NONE = "none"

_ROTOR_REGIMES = {
    SymmetryClass.SYMMETRIC: REGIME_QUADRATIC,
    SymmetryClass.ANTISYMMETRIC: REGIME_OSCILLATION,
    SymmetryClass.ASYMMETRIC: REGIME_HYBRID,
    SymmetryClass.ZERO: REGIME_FROZEN,
}

_INTERACTION_REGIMES = {
    SymmetryClass.SYMMETRIC: REGIME_QUADRATIC_SAT,
    SymmetryClass.ANTISYMMETRIC: REGIME_OSCILLATION,
    SymmetryClass.ASYMMETRIC: REGIME_HYBRID_SAT,
    SymmetryClass.ZERO: REGIME_NONE,
}


# --------------------------------------------------------------------
# initial angular density


@dataclass(frozen=True)
class ProductAngleDensity:
    """Product of per-rotor angular probability densities.

    Each factor is either None (uniform on the circle, the angular
    density of any momentum eigenstate) or a normalized 1-D complex
    amplitude vector over consecutive momentum quanta, whose angular
    density has Fourier coefficients equal to the amplitude
    autocorrelation.
    """

    rotor_count: int
    factors: tuple

    def __post_init__(self) -> None:
        if self.rotor_count < 1:
            raise ValidationError("rotor_count must be >= 1")
        if len(self.factors) != self.rotor_count:
            raise ValidationError(
                "one factor (or None) required per rotor"
            )
        cleaned = []
        for factor in self.factors:
            if factor is None:
                cleaned.append(None)
                continue
            arr = np.asarray(factor, dtype=complex).ravel()
            if arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ValidationError("factor amplitudes must be finite")
            norm = np.linalg.norm(arr)
            if abs(norm - 1.0) > 1e-9:
                raise ValidationError(
                    "factor amplitudes must be normalized"
                )
            arr = arr / norm
            arr.flags.writeable = False
            cleaned.append(arr)
        object.__setattr__(self, "factors", tuple(cleaned))

    @classmethod
    def uniform(cls, rotor_count: int) -> "ProductAngleDensity":
        return cls(rotor_count, (None,) * rotor_count)

    @classmethod
    def from_factors(cls, factors: Sequence) -> "ProductAngleDensity":
        return cls(len(factors), tuple(factors))

    def char(self, rotor: int, n: int) -> complex:
        """chi_j(n) = <exp(i n theta_j)> for one rotor."""
        factor = self.factors[rotor]
        n = int(n)
        if factor is None:
            return 1.0 + 0.0j if n == 0 else 0.0j
        size = factor.size
        if abs(n) >= size:
            return 0.0j
        if n >= 0:
            return complex(np.vdot(factor[n:], factor[: size - n]))
        return complex(np.conj(np.vdot(factor[-n:], factor[: size + n])))

    def char_vector(self, modes: Sequence[int]) -> complex:
        out = 1.0 + 0.0j
        for j, n in enumerate(modes):
            if out == 0.0j:
                return 0.0j
            out *= self.char(j, n)
        return out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` independent angle vectors, one column per rotor."""
        out = np.empty((count, self.rotor_count))
        for j, factor in enumerate(self.factors):
            if factor is None:
                out[:, j] = rng.uniform(0.0, TWO_PI, size=count)
                continue
            grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
            quanta = np.arange(factor.size)
            wave = np.exp(1j * np.outer(grid, quanta)) @ factor
            density = np.abs(wave) ** 2
            cdf = np.cumsum(density)
            cdf /= cdf[-1]
            out[:, j] = np.interp(
                rng.uniform(size=count), cdf, grid
            )
        return out


# --------------------------------------------------------------------
# exact trigonometric averages


def _sin_mean(density: ProductAngleDensity, term: FourierTerm) -> float:
    # <sin(m . theta + phase)>
    value = np.exp(1j * term.phase) * density.char_vector(term.modes)
    return float(np.imag(value))


def _sin_pair_mean(
    density: ProductAngleDensity, one: FourierTerm, two: FourierTerm
) -> float:
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


def _impulse_mean(
    density: ProductAngleDensity, spec: PotentialSpec, rotor: int
) -> float:
    # <-dV/dtheta_rotor> = sum_t c_t m_{t,rotor} <sin(...)>
    total = 0.0
    for term in spec.terms:
        weight = term.coefficient * term.modes[rotor]
        if weight != 0.0:
            total += weight * _sin_mean(density, term)
    return total


def _impulse_second(
    density: ProductAngleDensity,
    left: PotentialSpec,
    right: PotentialSpec,
    rotor: int,
) -> float:
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


# --------------------------------------------------------------------
# wavepacket parameters and moment laws


@dataclass(frozen=True)
class WavepacketParams:
    """Per-rotor kick statistics driving the exact moment laws."""

    alpha_plus: tuple
    alpha_minus: tuple
    lambda_plus: tuple
    lambda_minus: tuple
    kappa: tuple
    symmetry: tuple

    def __post_init__(self) -> None:
        n = len(self.alpha_plus)
        fields = (
            self.alpha_minus,
            self.lambda_plus,
            self.lambda_minus,
            self.kappa,
            self.symmetry,
        )
        if any(len(f) != n for f in fields):
            raise ValidationError("per-rotor fields must share length")
        for j in range(n):
            lp, lm = self.lambda_plus[j], self.lambda_minus[j]
            ap, am = self.alpha_plus[j], self.alpha_minus[j]
            if lp < ap**2 - 1e-12 or lm < am**2 - 1e-12:
                raise ValidationError(
                    "squared impulse below squared mean impulse"
                )
            if self.kappa[j] ** 2 > lp * lm + 1e-12:
                raise ValidationError(
                    "cross impulse violates the Cauchy-Schwarz bound"
                )

    @property
    def rotor_count(self) -> int:
        return len(self.alpha_plus)


def wavepacket_params(
    potential: PotentialSpec,
    shift_set: frozenset,
    initial: ProductAngleDensity | None = None,
) -> WavepacketParams:
    """Kick statistics of every rotor under the half-period shift split.

    For each rotor the potential terms involving it are split into the
    parts that are even and odd under shifting the rotors in
    `shift_set` by pi, and the mean impulse, squared impulse, and cross
    term are averaged over the initial angular density.  All averages
    are trigonometric moments and are evaluated exactly.
    """
    if initial is None:
        initial = ProductAngleDensity.uniform(potential.rotor_count)
    if initial.rotor_count != potential.rotor_count:
        raise ValidationError("density rotor count mismatch")
    a_plus, a_minus, l_plus, l_minus, cross, classes = (
        [],
        [],
        [],
        [],
        [],
        [],
    )
    for j in range(potential.rotor_count):
        eff = effective_potential(potential, j)
        even, odd = decompose(eff, shift_set)
        a_plus.append(_impulse_mean(initial, even, j))
        a_minus.append(_impulse_mean(initial, odd, j))
        l_plus.append(_impulse_second(initial, even, even, j))
        l_minus.append(_impulse_second(initial, odd, odd, j))
        cross.append(_impulse_second(initial, even, odd, j))
        classes.append(classify(eff, shift_set))
    return WavepacketParams(
        alpha_plus=tuple(a_plus),
        alpha_minus=tuple(a_minus),
        lambda_plus=tuple(l_plus),
        lambda_minus=tuple(l_minus),
        kappa=tuple(cross),
        symmetry=tuple(classes),
    )


def predict_moments(params: WavepacketParams, t: int):
    """Exact displacement and squared spread of every rotor at step t.

    Even steps: D = t * alpha_plus, sigma^2 = t^2 * lambda_plus.
    Odd steps add the odd-part offsets: D gains alpha_minus and
    sigma^2 gains 2 t kappa + lambda_minus.
    """
    if t < 0:
        raise ValidationError("t must be >= 0")
    displacement = []
    spread = []
    for j in range(params.rotor_count):
        d = t * params.alpha_plus[j]
        s = t * t * params.lambda_plus[j]
        if t % 2 == 1:
            d += params.alpha_minus[j]
            s += 2 * t * params.kappa[j] + params.lambda_minus[j]
        displacement.append(d)
        spread.append(s)
    return tuple(displacement), tuple(spread)


# --------------------------------------------------------------------
# four-block epsilon statistics

# block assignments entering the four-point combination: sign and which
# copy (0 unprimed, 1 primed) the A-side and B-side angles come from;
# the doubly-unprimed and doubly-primed evaluations carry plus signs
_FOUR_BLOCKS = ((0, 0, 1.0), (1, 1, 1.0), (1, 0, -1.0), (0, 1, -1.0))


def _four_block_atoms(
    spec: PotentialSpec, part: BipartitionSpec
) -> list:
    """Expand a potential into signed cosines over doubled coordinates.

    Coordinates are indexed (rotor, copy) with copy 0 the unprimed and
    copy 1 the primed block; each atom is (coefficient, doubled modes,
    phase).
    """
    in_a = set(part.part_a)
    atoms = []
    for a_copy, b_copy, sign in _FOUR_BLOCKS:
        for term in spec.terms:
            doubled = np.zeros((spec.rotor_count, 2), dtype=int)
            for j, m in enumerate(term.modes):
                copy = a_copy if j in in_a else b_copy
                doubled[j, copy] = m
            atoms.append((sign * term.coefficient, doubled, term.phase))
    return atoms


def _doubled_char(
    density: ProductAngleDensity, doubled: np.ndarray
) -> complex:
    out = 1.0 + 0.0j
    for j in range(doubled.shape[0]):
        out *= density.char(j, doubled[j, 0])
        if out == 0.0j:
            return 0.0j
        out *= density.char(j, doubled[j, 1])
        if out == 0.0j:
            return 0.0j
    return out


def _four_block_product_mean(
    density: ProductAngleDensity, atoms_x: list, atoms_y: list
) -> float:
    """Exact <eps_x eps_y> over independent unprimed/primed blocks."""
    total = 0.0
    for cx, mx, fx in atoms_x:
        for cy, my, fy in atoms_y:
            diff = np.exp(1j * (fx - fy)) * _doubled_char(
                density, mx - my
            )
            summed = np.exp(1j * (fx + fy)) * _doubled_char(
                density, mx + my
            )
            total += 0.5 * cx * cy * float(np.real(diff) + np.real(summed))
    return total


@dataclass(frozen=True)
class EpsilonMoments:
    """Second moments of the four-block quasienergy differences.

    The second moments and the norm are exact trigonometric averages;
    s_odd and the first moments are Monte-Carlo estimates whose
    standard errors are reported in std_errors.
    """

    eps_plus_sq: float
    eps_minus_sq: float
    eps_cross: float
    norm: float
    s_odd: float
    eps_plus_mean: float
    eps_minus_mean: float
    std_errors: Mapping[str, float]
    sample_count: int

    def __post_init__(self) -> None:
        if self.eps_plus_sq < -1e-12 or self.eps_minus_sq < -1e-12:
            raise ValidationError("second moments must be nonnegative")
        total = self.eps_plus_sq + 2 * self.eps_cross + self.eps_minus_sq
        if abs(self.norm**2 - total) > 1e-9 * max(1.0, abs(total)):
            raise ValidationError(
                "norm inconsistent with the moment decomposition"
            )

    @property
    def eps_sq(self) -> float:
        return self.eps_plus_sq + 2 * self.eps_cross + self.eps_minus_sq


def _sample_epsilon_blocks(
    v_plus: PotentialSpec,
    v_minus: PotentialSpec,
    initial: ProductAngleDensity,
    part: BipartitionSpec,
    sample_count: int,
    seed,
):
    """Draw the four blocks and return per-sample eps_plus, eps_minus."""
    rng = np.random.default_rng(seed)
    n = initial.rotor_count
    plain = initial.sample(rng, sample_count)
    primed = initial.sample(rng, sample_count)
    in_a = np.array(
        [j in set(part.part_a) for j in range(n)], dtype=bool
    )

    def assemble(a_copy: int, b_copy: int) -> list:
        columns = []
        for j in range(n):
            copy = a_copy if in_a[j] else b_copy
            source = plain if copy == 0 else primed
            columns.append(source[:, j])
        return columns

    def four_block(spec: PotentialSpec) -> np.ndarray:
        if spec.is_zero:
            return np.zeros(sample_count)
        total = np.zeros(sample_count)
        for a_copy, b_copy, sign in _FOUR_BLOCKS:
            total += sign * spec.evaluate(assemble(a_copy, b_copy))
        return total

    return four_block(v_plus), four_block(v_minus)


def _check_interaction_inputs(
    v_i: PotentialSpec,
    initial: ProductAngleDensity,
    part: BipartitionSpec,
    sample_count: int,
) -> None:
    if v_i.is_zero:
        raise ValidationError("the interaction potential is empty")
    if part.rotor_count != v_i.rotor_count:
        raise ValidationError("bipartition rotor count mismatch")
    if initial.rotor_count != v_i.rotor_count:
        raise ValidationError("density rotor count mismatch")
    if sample_count < MIN_SAMPLE_COUNT:
        raise ValidationError(
            f"sample_count must be >= {MIN_SAMPLE_COUNT}"
        )


def epsilon_moments(
    v_i: PotentialSpec,
    shift_set: frozenset,
    initial: ProductAngleDensity,
    part: BipartitionSpec,
    sample_count: int = 200_000,
    seed=12345,
) -> EpsilonMoments:
    """Moments of the four-block differences of the interaction parts.

    eps_plus and eps_minus evaluate the even/odd interaction parts at
    (A,B) + (A',B') - (A',B) - (A,B'), with all four blocks drawn
    independently from the initial angular density.  Second moments are
    computed exactly; Monte-Carlo estimates supply s_odd = 1 - <cos eps>
    and standard errors for every reported field.
    """
    _check_interaction_inputs(v_i, initial, part, sample_count)
    v_plus, v_minus = decompose(v_i, shift_set)

    atoms_plus = _four_block_atoms(v_plus, part)
    atoms_minus = _four_block_atoms(v_minus, part)
    plus_sq = _four_block_product_mean(initial, atoms_plus, atoms_plus)
    minus_sq = _four_block_product_mean(initial, atoms_minus, atoms_minus)
    cross = _four_block_product_mean(initial, atoms_plus, atoms_minus)
    eps_sq = plus_sq + 2 * cross + minus_sq

    eps_plus, eps_minus = _sample_epsilon_blocks(
        v_plus, v_minus, initial, part, sample_count, seed
    )
    cos_eps = np.cos(eps_plus + eps_minus)
    root = math.sqrt(sample_count)
    errors = {
        "eps_plus_sq": float(np.std(eps_plus**2)) / root,
        "eps_minus_sq": float(np.std(eps_minus**2)) / root,
        "eps_cross": float(np.std(eps_plus * eps_minus)) / root,
        "s_odd": float(np.std(cos_eps)) / root,
        "eps_plus_mean": float(np.std(eps_plus)) / root,
        "eps_minus_mean": float(np.std(eps_minus)) / root,
    }
    return EpsilonMoments(
        eps_plus_sq=plus_sq,
        eps_minus_sq=minus_sq,
        eps_cross=cross,
        norm=math.sqrt(max(eps_sq, 0.0)),
        s_odd=float(1.0 - np.mean(cos_eps)),
        eps_plus_mean=float(np.mean(eps_plus)),
        eps_minus_mean=float(np.mean(eps_minus)),
        std_errors=errors,
        sample_count=sample_count,
    )


@dataclass(frozen=True)
class SlinEstimate:
    """Monte-Carlo linear-entropy value with its standard error."""

    t: int
    value: float
    std_error: float
    sample_count: int


def slin_exact(
    v_i: PotentialSpec,
    shift_set: frozenset,
    initial: ProductAngleDensity,
    part: BipartitionSpec,
    t: int,
    sample_count: int = 200_000,
    seed=12345,
) -> SlinEstimate:
    """Closed-form linear entropy at step t, Monte-Carlo averaged.

    Even steps: 1 - <cos(t eps_plus)>.  Odd steps:
    1 - <cos(t eps_plus) cos(eps_minus)> + <sin(t eps_plus) sin(eps_minus)>,
    i.e. 1 - <cos(t eps_plus + eps_minus)>.
    """
    _check_interaction_inputs(v_i, initial, part, sample_count)
    if t < 0:
        raise ValidationError("t must be >= 0")
    v_plus, v_minus = decompose(v_i, shift_set)
    eps_plus, eps_minus = _sample_epsilon_blocks(
        v_plus, v_minus, initial, part, sample_count, seed
    )
    if t % 2 == 0:
        samples = np.cos(t * eps_plus)
    else:
        samples = np.cos(t * eps_plus + eps_minus)
    value = float(1.0 - np.mean(samples))
    error = float(np.std(samples)) / math.sqrt(sample_count)
    return SlinEstimate(
        t=t, value=value, std_error=error, sample_count=sample_count
    )


def crossover_time(moments: EpsilonMoments) -> float:
    """Entanglement saturation crossover t* = 1 / ||eps||."""
    if moments.norm <= 0.0:
        raise ValidationError(
            "crossover time undefined for zero coupling strength"
        )
    return 1.0 / moments.norm


# --------------------------------------------------------------------
# regime classification


@dataclass(frozen=True)
class RegimeReport:
    """Symmetry classes and predicted regimes for one bipartition."""

    rotor_classes: tuple
    rotor_regimes: tuple
    interaction_class: SymmetryClass
    interaction_regime: str
    selection_rule_ok: tuple
    consistent: bool


def classify_regimes(
    potential: PotentialSpec,
    plan: ResonancePlan,
    part: BipartitionSpec,
) -> RegimeReport:
    """Map symmetry classes to the predicted dynamical regimes.

    The plan must be at the two lowest resonance orders or satisfy the
    higher-order factorization condition; classification then uses the
    even-order shift set.  Selection-rule flags record the compatibility
    between the interaction class and the classes of the rotors it
    couples (a purely even interaction cannot make a participating
    rotor's effective potential purely odd, and vice versa).
    """
    if potential.rotor_count != part.rotor_count:
        raise ValidationError("bipartition rotor count mismatch")
    exact = ResonancePlan(plan.rationals)
    if not exact.lowest_orders_only and not satisfies_resonance_symmetry(
        potential, exact
    ):
        raise ValidationError(
            "higher-order plan violates the factorization symmetry "
            "condition; classification is undefined"
        )
    shift = exact.shift_set
    rotor_classes = []
    rotor_regimes = []
    for j in range(potential.rotor_count):
        cls = classify(effective_potential(potential, j), shift)
        rotor_classes.append(cls)
        rotor_regimes.append(_ROTOR_REGIMES[cls])
    _, _, v_i = split_interaction(potential, part.part_a)
    interaction_class = classify(v_i, shift)
    interaction_regime = _INTERACTION_REGIMES[interaction_class]

    flags = []
    for j in range(potential.rotor_count):
        couples = any(term.modes[j] != 0 for term in v_i.terms)
        ok = True
        if couples:
            if interaction_class is SymmetryClass.SYMMETRIC:
                ok = rotor_classes[j] is not SymmetryClass.ANTISYMMETRIC
            elif interaction_class is SymmetryClass.ANTISYMMETRIC:
                ok = rotor_classes[j] is not SymmetryClass.SYMMETRIC
        flags.append(ok)
    return RegimeReport(
        rotor_classes=tuple(rotor_classes),
        rotor_regimes=tuple(rotor_regimes),
        interaction_class=interaction_class,
        interaction_regime=interaction_regime,
        selection_rule_ok=tuple(flags),
        consistent=all(flags),
    )


# --------------------------------------------------------------------
# detuning robustness


def deviation_series(
    detuned: Sequence[MomentRecord], ideal: Sequence[MomentRecord]
) -> tuple:
    """Relative kinetic-energy deviation of the first rotor per step.

    Delta_1(t) = |<p_1^2>_ideal - <p_1^2>_detuned| / <p_1^2>_ideal,
    evaluated at t >= 1 over two step-aligned moment series.
    """
    if len(detuned) != len(ideal):
        raise ValidationError("series lengths differ")
    out = []
    for rec_d, rec_i in zip(detuned, ideal):
        if rec_d.t != rec_i.t:
            raise ValidationError("series are not aligned on t")
        if rec_i.t == 0:
            continue
        reference = rec_i.second[0]
        if reference <= 0.0:
            raise ValidationError(
                f"ideal <p_1^2> must be positive at t={rec_i.t}"
            )
        out.append(
            (rec_i.t, abs(reference - rec_d.second[0]) / reference)
        )
    return tuple(out)


def agreement_time(
    deltas: Sequence, threshold: float = 0.01
) -> float:
    """First step at which the relative deviation reaches the threshold.

    Returns math.inf when the deviation never reaches it (e.g. zero
    detuning).
    """
    if threshold <= 0.0:
        raise ValidationError("threshold must be positive")
    for t, delta in deltas:
        if delta >= threshold:
            return float(t)
    return math.inf


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares log-log fit of agreement time versus detuning."""

    slope: float
    intercept: float
    stderr: float
    ci95: float
    points: int


def scaling_fit(pairs: Sequence) -> ScalingFit:
    """Fit log10(t_D) against log10(delta_tau) by least squares."""
    if len(pairs) < 3:
        raise ValidationError(
            "at least 3 (detuning, agreement time) pairs are required"
        )
    xs, ys = [], []
    for detuning, t_d in pairs:
        if detuning <= 0.0:
            raise ValidationError("detunings must be positive")
        if not math.isfinite(t_d) or t_d <= 0.0:
            raise ValidationError(
                "agreement times must be finite and positive to fit"
            )
        xs.append(math.log10(detuning))
        ys.append(math.log10(t_d))
    fit = _scipy_stats.linregress(xs, ys)
    spread = _scipy_stats.t.ppf(0.975, len(xs) - 2)
    return ScalingFit(
        slope=float(fit.slope),
        intercept=float(fit.intercept),
        stderr=float(fit.stderr),
        ci95=float(spread * fit.stderr),
        points=len(xs),
    )


@dataclass(frozen=True)
class RobustnessResult:
    """Bundle of detuning diagnostics for a scan."""

    threshold: float
    detunings: tuple
    delta_series: tuple
    agreement_times: tuple
    fit: ScalingFit | None

    @classmethod
    def assemble(
        cls,
        threshold: float,
        detunings: Sequence[float],
        delta_series: Sequence,
    ) -> "RobustnessResult":
        if len(detunings) != len(delta_series):
            raise ValidationError(
                "one delta series required per detuning"
            )
        times = tuple(
            agreement_time(series, threshold) for series in delta_series
        )
        finite = [
            (d, t)
            for d, t in zip(detunings, times)
            if math.isfinite(t)
        ]
        fit = scaling_fit(finite) if len(finite) >= 3 else None
        return cls(
            threshold=threshold,
            detunings=tuple(float(d) for d in detunings),
            delta_series=tuple(tuple(s) for s in delta_series),
            agreement_times=times,
            fit=fit,
        )
