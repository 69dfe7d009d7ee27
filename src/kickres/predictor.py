"""Closed-form predictions for resonantly kicked coupled rotors and tops.

This module carries the analytic side of the package: per-rotor kick
statistics and the resulting exact moment laws, which also carry the
linearized J_z laws of kicked tops near the equator (top_params), the
four-block epsilon statistics behind the linear-entropy closed forms,
the regime classification table with its selection rule, and the
detuning robustness diagnostics (relative kinetic-energy deviation,
agreement time, and the power-law fit of agreement time versus detuning).

Averages over the initial state enter through a product angular density.
Both families of averages are moments of cosine series: the kicks
-dV/dtheta_j of the even and odd potential parts, and the four-block
difference eps, written as one series over doubled (unprimed, primed)
angles.  One kernel, _cos_mean and _cos_product_mean, takes every first
and second moment exactly from the characteristic sequence
chi_j(n) = <exp(i n theta_j)> of each factor.  Monte-Carlo sampling is
used only for the non-polynomial entropy averages (and as a
cross-check), with reported standard errors; the draw evaluates the same
four-block series, one block of SAMPLE_BLOCK samples at a time, and is
reduced to running means as it is made, so its memory does not depend on
the sample count.  A top's statistics are instead inner products of the
applied vectors D_+-psi over its product initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .entanglement import BipartitionSpec
from .errors import ValidationError
from .potential import (
    TWO_PI,
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    SymmetryClass,
    _check_complex,
    _check_int,
    _check_real,
    _check_rotor,
    _check_seq,
    _parity_class,
    classify,
    decompose,
    effective_potential,
    satisfies_resonance_symmetry,
    split_interaction,
)
from .rotor_engine import MomentRecord
from .top_engine import TopSpec, build_spin_ops

MIN_SAMPLE_COUNT = 10_000
SAMPLE_BLOCK = 16_384  # draws per block of the Monte-Carlo pass
DEFAULT_SAMPLES = 200_000
MAX_SAMPLE_ROWS = 10**10  # samples x S_lin rows one predict run may reduce
DEFAULT_SEED = 12345
DEFAULT_THRESHOLD = 0.01  # relative deviation that ends agreement_time

# Table-style regime names
_ROTOR_REGIMES = {
    SymmetryClass.SYMMETRIC: "quadratic",
    SymmetryClass.ANTISYMMETRIC: "period-2 oscillation",
    SymmetryClass.ASYMMETRIC: "hybrid",
    SymmetryClass.ZERO: "frozen",
}

_INTERACTION_REGIMES = {
    SymmetryClass.SYMMETRIC: "quadratic growth then saturation",
    SymmetryClass.ANTISYMMETRIC: "period-2 oscillation",
    SymmetryClass.ASYMMETRIC: "hybrid then saturation",
    SymmetryClass.ZERO: "none",
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
        _check_int(self.rotor_count, "rotor_count", 1)
        factors = _check_seq(self.factors, "factors", self.rotor_count, None)
        cleaned = []
        for factor in factors:
            if factor is None:
                cleaned.append(None)
                continue
            arr = np.array(_check_seq(factor, "factors", check=_check_complex))
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
        count = _check_int(rotor_count, "rotor_count")
        return cls(count, (None,) * count)

    @classmethod
    def from_factors(cls, factors: Sequence) -> "ProductAngleDensity":
        factors = _check_seq(factors, "factors", check=None)
        return cls(len(factors), factors)

    def char(self, rotor: int, n: int) -> complex:
        """chi_j(n) = <exp(i n theta_j)> for one rotor."""
        factor = self.factors[_check_rotor(self, rotor)]
        n = _check_int(n, "n")
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
        for j, n in enumerate(_check_seq(modes, "modes", self.rotor_count)):
            if out == 0.0j:
                return 0.0j
            out *= self.char(j, n)
        return out

    @cached_property
    def _inverse_cdfs(self) -> tuple:
        """(cdf, edges) per non-uniform factor for inverse-transform
        sampling on a 4096-cell angle grid; None for a uniform one."""
        out = []
        for factor in self.factors:
            if factor is None:
                out.append(None)
                continue
            grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
            quanta = np.arange(factor.size)
            wave = np.exp(1j * np.outer(grid, quanta)) @ factor
            cdf = np.concatenate(([0.0], np.cumsum(np.abs(wave) ** 2)))
            cdf /= cdf[-1]
            # the density is constant over the cell centred on each angle
            edges = np.append(grid, TWO_PI) - 0.5 * grid[1]
            out.append((cdf, edges))
        return tuple(out)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` independent angle vectors, one row each, from one
        rng.random((count, rotor_count)) call, so consecutive calls on
        one stream continue its rows."""
        out = rng.random((_check_int(count, "count"), self.rotor_count))
        for j, inverse in enumerate(self._inverse_cdfs):
            if inverse is None:
                out[:, j] *= TWO_PI
            else:
                out[:, j] = np.interp(out[:, j], *inverse)
        return out


# --------------------------------------------------------------------
# exact trigonometric averages


def _cos_mean(density: ProductAngleDensity, spec: PotentialSpec) -> float:
    """Exact <sum_k c_k cos(m_k . theta + phi_k)> over the density."""
    total = 0.0
    for term in spec.terms:
        value = np.exp(1j * term.phase) * density.char_vector(term.modes)
        total += term.coefficient * float(np.real(value))
    return total


def _cos_product_mean(
    density: ProductAngleDensity, left: PotentialSpec, right: PotentialSpec
) -> float:
    """Exact <left(theta) right(theta)> over the density.

    Each pair of terms uses cos a cos b = [cos(a - b) + cos(a + b)] / 2.
    """
    total = 0.0
    for one in left.terms:
        for two in right.terms:
            halves = 0.0
            for sign in (-1, 1):
                modes = [a + sign * b for a, b in zip(one.modes, two.modes)]
                value = np.exp(1j * (one.phase + sign * two.phase))
                halves += float(np.real(value * density.char_vector(modes)))
            total += 0.5 * one.coefficient * two.coefficient * halves
    return total


# --------------------------------------------------------------------
# wavepacket parameters and moment laws


@dataclass(frozen=True)
class WavepacketParams:
    """Per-body kick statistics driving the exact moment laws."""

    alpha_plus: tuple
    alpha_minus: tuple
    lambda_plus: tuple
    lambda_minus: tuple
    kappa: tuple
    symmetry: tuple

    def __post_init__(self) -> None:
        n = len(_check_seq(self.symmetry, "symmetry", check=SymmetryClass))
        for name in ("alpha_plus", "alpha_minus", "lambda_plus",
                     "lambda_minus", "kappa"):
            _check_seq(getattr(self, name), name, n, _check_real)
        # roundoff allowances scale with the squares: a top's lambda at
        # j = 50 is of order 10^3
        for j in range(n):
            lp, lm = self.lambda_plus[j], self.lambda_minus[j]
            ap, am = self.alpha_plus[j], self.alpha_minus[j]
            if lp < ap**2 - 1e-12 * max(1.0, lp) or (
                lm < am**2 - 1e-12 * max(1.0, lm)
            ):
                raise ValidationError(
                    "squared impulse below squared mean impulse"
                )
            bound = lp * lm
            if self.kappa[j] ** 2 > bound + 1e-12 * max(1.0, bound):
                raise ValidationError(
                    "cross impulse violates the Cauchy-Schwarz bound"
                )

    @property
    def rotor_count(self) -> int:
        return len(self.alpha_plus)


def _impulse(spec: PotentialSpec, rotor: int) -> PotentialSpec:
    """The kick -dV/dtheta_rotor as a cosine series.

    c cos(m . theta + phi) contributes c m_rotor cos(m . theta + phi - pi/2);
    terms without the rotor get coefficient 0 and drop out.
    """
    return PotentialSpec(
        spec.rotor_count,
        tuple(
            FourierTerm(
                t.coefficient * t.modes[rotor],
                t.modes,
                t.phase - 0.5 * math.pi,
            )
            for t in spec.terms
        ),
    )


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
    rows = []
    for j in range(potential.rotor_count):
        eff = effective_potential(potential, j)
        even, odd = (_impulse(part, j) for part in decompose(eff, shift_set))
        rows.append((
            _cos_mean(initial, even),
            _cos_mean(initial, odd),
            _cos_product_mean(initial, even, even),
            _cos_product_mean(initial, odd, odd),
            _cos_product_mean(initial, even, odd),
            classify(eff, shift_set),
        ))
    return WavepacketParams(*(tuple(column) for column in zip(*rows)))


def predict_moments(params: WavepacketParams, t: int):
    """Exact displacement and squared spread of every rotor at step t.

    Even steps: D = t * alpha_plus, sigma^2 = t^2 * lambda_plus.
    Odd steps add the odd-part offsets: D gains alpha_minus and
    sigma^2 gains 2 t kappa + lambda_minus.
    """
    _check_int(t, "t", 0)
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
# kicked tops

# equator gate: linearizing the moment laws needs the initial state far
# from the poles
EQUATOR_MEAN_FRACTION = 0.05
EQUATOR_SECOND_FRACTION = 0.05


def _moment(left, right) -> float:
    """Re sum_ab s_a s_b prod_m <u_a,m, u_b,m> over two lists of
    (scale s, per-top vectors u_m) product terms."""
    total = 0.0 + 0.0j
    for sa, us in left:
        for sb, vs in right:
            term = sa * sb
            for u, v in zip(us, vs):
                term *= np.vdot(u, v)
            total += term
    return float(total.real)


def _check_equator(factors: Sequence[np.ndarray], j: int) -> None:
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
    initial_factors: Sequence[np.ndarray],
) -> WavepacketParams:
    """Displacement-operator statistics of every top near the equator.

    The field terms acting on each top are split by their parity under
    the pi-rotation of the secondary tops; the displacement operators are
    D_+- = -+i [J_nz, H_nf+-] and the returned statistics are their first
    and second moments in the initial product state, with kappa the
    symmetrized cross moment.  D_- has the opposite sign to the rotor's
    because the twist acts first, so predict_moments gives a top's odd
    steps t alpha_+ - alpha_- and t^2 lambda_+ - 2 t kappa + lambda_- in
    the moments of -i [J_nz, H_nf-].  The symmetry column names the
    parity blocks acting on each top, as classify does for a rotor.
    """
    factors = spec.unit_factors(initial_factors, "initial_factors")
    _check_equator(factors, spec.j_tot)

    # per-top operators A_m are Hermitian, so D+-psi is a sum of scaled
    # product vectors A_m f_m and kappa = Re<D+psi, D-psi> is symmetrized
    j_x, j_z = build_spin_ops(spec.j_tot)
    plain = [(1.0, factors)]
    rows = []
    for top in range(spec.top_count):
        blocks = {0: [], 1: []}
        for term in spec.field_terms:
            if term.powers[top] == 0:
                continue
            scale = term.weight(spec.j_tot)
            parity = spec.field_parity(term)
            vectors = []
            for n, (k, factor) in enumerate(zip(term.powers, factors)):
                op = np.linalg.matrix_power(j_x, k)
                if n == top:
                    op = -1j * (j_z @ op - op @ j_z)
                vectors.append(op @ factor)
            blocks[parity].append((-scale if parity else scale, vectors))
        plus, minus = blocks[0], blocks[1]
        rows.append((
            _moment(plain, plus),
            _moment(plain, minus),
            _moment(plus, plus),
            _moment(minus, minus),
            _moment(plus, minus),
            _parity_class(p for p in blocks if blocks[p]),
        ))
    return WavepacketParams(*(tuple(column) for column in zip(*rows)))


def saturation_time(spec: TopSpec, lambda_plus: float) -> float:
    """Step count at which ballistic spreading reaches the poles."""
    lambda_plus = _check_real(lambda_plus, "lambda_plus")
    if lambda_plus <= 0.0:
        raise ValidationError(
            "saturation time undefined without quadratic growth"
        )
    return spec.j_tot / math.sqrt(lambda_plus)


# --------------------------------------------------------------------
# four-block epsilon statistics

# block assignments entering the four-point combination: sign and which
# copy (0 unprimed, 1 primed) the A-side and B-side angles come from;
# the doubly-unprimed and doubly-primed evaluations carry plus signs
_FOUR_BLOCKS = ((0, 0, 1.0), (1, 1, 1.0), (1, 0, -1.0), (0, 1, -1.0))


def _four_block(spec: PotentialSpec, part: BipartitionSpec) -> PotentialSpec:
    """eps = V(A,B) + V(A',B') - V(A',B) - V(A,B') as one cosine series.

    The series runs over 2N doubled angles: rotor j's unprimed angle is
    angle 2j and its primed angle is angle 2j + 1, so each term's first
    nonzero mode stays first and positive.
    """
    in_a = set(part.part_a)
    terms = []
    for a_copy, b_copy, sign in _FOUR_BLOCKS:
        for term in spec.terms:
            modes = [0] * (2 * spec.rotor_count)
            for j, m in enumerate(term.modes):
                modes[2 * j + (a_copy if j in in_a else b_copy)] = m
            terms.append(
                FourierTerm(sign * term.coefficient, modes, term.phase)
            )
    return PotentialSpec(2 * spec.rotor_count, tuple(terms))


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
    _check_int(sample_count, "sample_count", MIN_SAMPLE_COUNT)


def _row_key(v_plus: PotentialSpec, v_minus: PotentialSpec, t: int):
    """(k, p) with cos(t eps_plus + [t odd] eps_minus) = cos(k eps_plus +
    p eps_minus): row t depends on t only through this key."""
    return (0 if v_plus.is_zero else t, 0 if v_minus.is_zero else t % 2)


def _eps_blocks(v_plus, v_minus, initial, part, sample_count, seed):
    """Yield (eps_plus, eps_minus) over consecutive blocks of at most
    SAMPLE_BLOCK draws, in order.

    The unprimed copy (A, B) and the primed copy (A', B') each read the
    rows of their own child stream, SeedSequence(seed).spawn(2), so each
    block continues where the last one stopped and the per-sample values
    do not depend on SAMPLE_BLOCK.
    """
    series = [_four_block(v, part) for v in (v_plus, v_minus)]
    children = np.random.SeedSequence(seed).spawn(2)
    rngs = [np.random.default_rng(child) for child in children]
    for start in range(0, sample_count, SAMPLE_BLOCK):
        rows = min(SAMPLE_BLOCK, sample_count - start)
        copies = [initial.sample(rng, rows) for rng in rngs]
        # the doubled angles of _four_block, one column each
        columns = [
            block[:, j]
            for j in range(initial.rotor_count)
            for block in copies
        ]
        yield tuple(
            np.zeros(rows) if s.is_zero else s.evaluate(columns)
            for s in series
        )


def _mean_and_m2(x: np.ndarray) -> tuple:
    """(mean, sum of squared deviations) of x; the deviations are formed
    in x itself."""
    mean = np.mean(x)
    np.subtract(x, mean, out=x)
    np.multiply(x, x, out=x)
    return mean, np.sum(x)


# the draw's first moments besides the S_lin rows, in the order the pass
# reduces them: the products first, eps_plus and eps_minus (which the
# reduction overwrites) last
_EPS_STATS = (
    "eps_plus_sq", "eps_minus_sq", "eps_cross", "eps_plus", "eps_minus"
)


@dataclass(frozen=True, eq=False)
class EpsilonSample:
    """One Monte-Carlo draw of the four-block differences, reduced.

    eps_plus and eps_minus are the even and odd interaction parts v_plus,
    v_minus evaluated at (A,B) + (A',B') - (A',B) - (A,B') for each draw
    of the four blocks.  The draw itself is not kept: `stats` maps each
    of eps_plus_sq, eps_minus_sq, eps_cross (eps_plus * eps_minus),
    eps_plus and eps_minus to its sample (mean, spread), and `rows` maps
    each reduced S_lin row key (k, p) to the (mean, spread) of
    cos(k eps_plus + p eps_minus).  Both are read-only, so every consumer
    of one sample sees the same numbers.
    """

    v_plus: PotentialSpec
    v_minus: PotentialSpec
    initial: ProductAngleDensity
    part: BipartitionSpec
    sample_count: int
    stats: Mapping[str, tuple]
    rows: Mapping[tuple, tuple]


def epsilon_sample(
    v_i: PotentialSpec,
    shift_set: frozenset,
    initial: ProductAngleDensity,
    part: BipartitionSpec,
    sample_count: int = DEFAULT_SAMPLES,
    seed=DEFAULT_SEED,
    times: Iterable[int] = (),
) -> EpsilonSample:
    """Split the interaction by parity and reduce its four-block draw in
    one pass.

    The four angle blocks A, B, A', B' are drawn independently from the
    initial angular density, SAMPLE_BLOCK draws at a time, so memory does
    not grow with sample_count; each block updates the five _EPS_STATS and one row per
    distinct key of the steps in `times` and of t = 1 (whose row gives
    s_odd).  epsilon_moments and slin_exact finish from the result.

    Rows of one key parity p form a chain of stride s (2 if v_minus is
    nonzero, else 1).  In each block, a key whose predecessor k - s is
    not reduced takes a fresh cos; the next key rotates that row's
    exp(i(k eps_plus + p eps_minus)) by exp(i s eps_plus), one complex
    multiply per sample (Numerical Recipes, 3rd ed., 5.4).  So the t = 0
    and t = 1 rows and an eps_plus == 0 curve take no rotation, and a
    rotated row carries roundoff that grows along the chain (at most
    7e-16 on the mean at t <= 200, 4e-14 at t = 10^4, over the tests'
    random couplings).
    """
    _check_interaction_inputs(v_i, initial, part, sample_count)
    times = _check_seq(times, "times", minimum=0)
    v_plus, v_minus = decompose(v_i, shift_set)
    stride = 1 if v_minus.is_zero else 2
    keys = sorted(
        {_row_key(v_plus, v_minus, t) for t in times + (1,)},
        key=lambda key: (key[1], key[0]),
    )
    wanted = set(keys)
    # draws so far, and the running mean and summed squared deviations
    # of each row and each _EPS_STATS quantity
    count, mean, m2 = 0, 0.0, 0.0
    for eps_plus, eps_minus in _eps_blocks(
        v_plus, v_minus, initial, part, sample_count, seed
    ):
        block = []
        row = np.empty(eps_plus.size)
        z = w = None
        for k, p in keys:
            if (k - stride, p) in wanted:
                np.multiply(z, w, out=z)
                np.copyto(row, z.real)
            else:
                np.multiply(eps_plus, k, out=row)
                if p:
                    np.add(row, eps_minus, out=row)
                if (k + stride, p) in wanted:
                    if z is None:
                        z = np.empty(eps_plus.size, dtype=complex)
                        w = np.empty(eps_plus.size, dtype=complex)
                        np.multiply(eps_plus, stride, out=w.real)
                        np.sin(w.real, out=w.imag)
                        np.cos(w.real, out=w.real)
                    np.sin(row, out=z.imag)
                    np.cos(row, out=row)
                    np.copyto(z.real, row)
                else:
                    np.cos(row, out=row)
            block.append(_mean_and_m2(row))
        for x in (
            eps_plus * eps_plus,
            eps_minus * eps_minus,
            eps_plus * eps_minus,
            eps_plus,
            eps_minus,
        ):
            block.append(_mean_and_m2(x))
        # the pairwise update of Chan, Golub & LeVeque (1983): the cross
        # term carries the spread between the two parts' means
        block_mean, block_m2 = np.array(block).T
        total = count + eps_plus.size
        delta = block_mean - mean
        mean = mean + delta * (eps_plus.size / total)
        m2 = m2 + block_m2 + delta * delta * (count * eps_plus.size / total)
        count = total
    reduced = [
        (float(m), float(s)) for m, s in zip(mean, np.sqrt(m2 / count))
    ]
    return EpsilonSample(
        v_plus=v_plus,
        v_minus=v_minus,
        initial=initial,
        part=part,
        sample_count=sample_count,
        stats=MappingProxyType(dict(zip(_EPS_STATS, reduced[len(keys):]))),
        rows=MappingProxyType(dict(zip(keys, reduced))),
    )


def epsilon_moments(sample: EpsilonSample) -> EpsilonMoments:
    """Moments of the four-block differences of the interaction parts.

    Second moments are computed exactly from the parity parts; the draw
    in `sample` supplies s_odd = 1 - <cos(eps_plus + eps_minus)>, the
    first moments and standard errors for every reported field.
    """
    # the doubled angles of _four_block: each rotor's factor twice
    doubled = ProductAngleDensity.from_factors(
        [factor for factor in sample.initial.factors for _ in range(2)]
    )
    series_plus = _four_block(sample.v_plus, sample.part)
    series_minus = _four_block(sample.v_minus, sample.part)
    plus_sq = _cos_product_mean(doubled, series_plus, series_plus)
    minus_sq = _cos_product_mean(doubled, series_minus, series_minus)
    cross = _cos_product_mean(doubled, series_plus, series_minus)
    eps_sq = plus_sq + 2 * cross + minus_sq

    stats = sample.stats
    cos_mean, cos_spread = sample.rows[
        _row_key(sample.v_plus, sample.v_minus, 1)
    ]
    root = math.sqrt(sample.sample_count)
    errors = {
        "eps_plus_sq": stats["eps_plus_sq"][1] / root,
        "eps_minus_sq": stats["eps_minus_sq"][1] / root,
        "eps_cross": stats["eps_cross"][1] / root,
        "s_odd": cos_spread / root,
        "eps_plus_mean": stats["eps_plus"][1] / root,
        "eps_minus_mean": stats["eps_minus"][1] / root,
    }
    return EpsilonMoments(
        eps_plus_sq=plus_sq,
        eps_minus_sq=minus_sq,
        eps_cross=cross,
        norm=math.sqrt(max(eps_sq, 0.0)),
        s_odd=1.0 - cos_mean,
        eps_plus_mean=stats["eps_plus"][0],
        eps_minus_mean=stats["eps_minus"][0],
        std_errors=errors,
        sample_count=sample.sample_count,
    )


@dataclass(frozen=True)
class SlinEstimate:
    """Monte-Carlo linear-entropy value with its standard error."""

    t: int
    value: float
    std_error: float
    sample_count: int


def slin_exact(
    sample: EpsilonSample, times: Iterable[int]
) -> tuple[SlinEstimate, ...]:
    """Closed-form linear entropy at each step in `times`, by Monte Carlo.

    Even steps: 1 - <cos(t eps_plus)>.  Odd steps:
    1 - <cos(t eps_plus) cos(eps_minus)> + <sin(t eps_plus) sin(eps_minus)>,
    i.e. 1 - <cos(t eps_plus + eps_minus)>.  Every t averages over the one
    draw in `sample`, so the curve carries common random numbers and its
    t = 1 value is epsilon_moments(sample).s_odd.  Each t must share its
    row key with t = 1 or with a step that epsilon_sample was given; on
    an antisymmetric coupling every even step shares t = 0's row and every
    odd step t = 1's.
    Returns one SlinEstimate per entry of `times`, in order.
    """
    times = _check_seq(times, "times", minimum=0)
    root = math.sqrt(sample.sample_count)
    out = []
    for t in times:
        key = _row_key(sample.v_plus, sample.v_minus, t)
        if key not in sample.rows:
            raise ValidationError(
                f"step {t} was not reduced by the Monte-Carlo pass; "
                "pass it in epsilon_sample's times"
            )
        mean, spread = sample.rows[key]
        out.append(
            SlinEstimate(
                t=t,
                value=1.0 - mean,
                std_error=spread / root,
                sample_count=sample.sample_count,
            )
        )
    return tuple(out)


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

    The plan must satisfy the factorization symmetry condition, as every
    plan at the two lowest resonance orders does; classification then
    uses the even-order shift set.  Selection-rule flags record the
    compatibility between the interaction class and the classes of the
    rotors it couples (a purely even interaction cannot make a
    participating rotor's effective potential purely odd, and vice versa).
    """
    if potential.rotor_count != part.rotor_count:
        raise ValidationError("bipartition rotor count mismatch")
    exact = ResonancePlan(plan.rationals)
    if not satisfies_resonance_symmetry(potential, exact):
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
    detuned = _check_seq(detuned, "detuned", check=MomentRecord)
    ideal = _check_seq(ideal, "ideal", len(detuned), MomentRecord)
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
    deltas: Sequence, threshold: float = DEFAULT_THRESHOLD
) -> float:
    """First step at which the relative deviation reaches the threshold.

    Returns math.inf when the deviation never reaches it (e.g. zero
    detuning).
    """
    threshold = _check_real(threshold, "threshold", positive=True)
    for pair in _check_seq(deltas, "deltas", check=None):
        t, delta = _check_seq(pair, "deltas", 2, _check_real)
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


def _t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t with an integer ``df`` >= 1, for p > 1/2.

    With theta = arctan(t / sqrt(df)), the two-sided probability
    A(t|df) = P(|T| <= t) is a finite series in cos(theta) (Abramowitz &
    Stegun 26.7.3 for odd df, 26.7.4 for even df).  A rises monotonically
    on 0 < theta < pi/2, so bisection in theta solves A = 2p - 1 to the
    last bit.
    """
    target = 2.0 * p - 1.0

    def two_sided(theta: float) -> float:
        c2 = math.cos(theta) ** 2
        if df % 2:
            term = total = math.cos(theta) if df > 1 else 0.0
            first = 3
        else:
            term = total = 1.0
            first = 2
        for k in range(first, df - 1, 2):
            term *= c2 * (k - 1) / k
            total += term
        series = math.sin(theta) * total
        return 2.0 / math.pi * (theta + series) if df % 2 else series

    lo, hi = 0.0, 0.5 * math.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if two_sided(mid) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(df) * math.tan(mid)


def scaling_fit(pairs: Sequence) -> ScalingFit:
    """Fit log10(t_D) against log10(delta_tau) by least squares."""
    pairs = _check_seq(pairs, "pairs", check=None)
    if len(pairs) < 3:
        raise ValidationError(
            "at least 3 (detuning, agreement time) pairs are required"
        )
    xs, ys = [], []
    for pair in pairs:
        detuning, t_d = _check_seq(pair, "pairs", 2, None)
        detuning = _check_real(detuning, "detunings", positive=True)
        t_d = _check_real(t_d, "agreement_times", positive=True)
        xs.append(math.log10(detuning))
        ys.append(math.log10(t_d))
    if min(xs) == max(xs):
        raise ValidationError("detunings must not all be equal to fit")
    x, y = np.array(xs), np.array(ys)
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    residual = dy - slope * dx
    stderr = math.sqrt(float(residual @ residual) / (len(xs) - 2) / sxx)
    return ScalingFit(
        slope=slope,
        intercept=float(y.mean() - slope * x.mean()),
        stderr=stderr,
        ci95=_t_quantile(0.975, len(xs) - 2) * stderr,
        points=len(xs),
    )


@dataclass(frozen=True)
class RobustnessResult:
    """Bundle of detuning diagnostics for a scan."""

    detunings: tuple
    agreement_times: tuple
    fit: ScalingFit | None

    @classmethod
    def assemble(
        cls,
        threshold: float,
        detunings: Sequence[float],
        delta_series: Sequence,
    ) -> "RobustnessResult":
        threshold = _check_real(threshold, "threshold", positive=True)
        detunings = _check_seq(detunings, "detunings", check=_check_real)
        delta_series = _check_seq(delta_series, "delta_series", len(detunings), None)
        times = tuple(
            agreement_time(series, threshold) for series in delta_series
        )
        finite = [
            (d, t)
            for d, t in zip(detunings, times)
            if math.isfinite(t)
        ]
        fit = scaling_fit(finite) if len(finite) >= 3 else None
        return cls(detunings=detunings, agreement_times=times, fit=fit)
