"""The library's integer, real-number and sequence contract.

Every public constructor and function that takes a count, an index, a
mode, a momentum or a power rejects a non-integer there with a
ValidationError naming the argument, and takes a numpy integer as it takes
an int.  One table drives them all.  Before the library checked, int()
truncated many of these values (RotorLattice.for_run(pot, [0.6, 2.9], 3)
centred its windows on 0 and 2) and others failed later with a bare
TypeError (BipartitionSpec(2.5, (0,)) at part_b).

Every real-valued argument takes a finite int or float, numpy ones too,
and rejects a bool, a non-number and NaN or +-inf (and a value <= 0 where
it must be positive) with a ValidationError naming it; a second table
drives them.  Before, float() took the string "2" and True, and NaN went
through: agreement_time(deltas, nan) returned inf and saturation_time
(spec, nan) nan.

Every argument that is a sequence (of integers, reals, pairs or per-body
items) takes a list, a tuple, a range or a numpy array, and rejects a
non-sequence and a wrong entry count with a ValidationError naming it; a
third table drives them.  Before, each site had its own loop:
FourierTerm(1.0, 5) raised a bare TypeError, ResonancePlan(((1, 2, 3),))
a ValueError from the unpack and PotentialSpec(2, (5,)) an AttributeError.
"""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kickres
from kickres import (
    BipartitionSpec,
    FieldTerm,
    FourierTerm,
    PotentialSpec,
    ProductAngleDensity,
    ResonancePlan,
    ResourceCapError,
    RobustnessResult,
    RotorEngine,
    RotorLattice,
    RotorState,
    TopEngine,
    TopSpec,
    TopState,
    SymmetryClass,
    ValidationError,
    WavepacketParams,
    agreement_time,
    classify,
    cosine_term,
    decompose,
    deviation_series,
    epsilon_sample,
    epsilon_second_moment,
    measure_moments,
    observe,
    predict_moments,
    saturation_time,
    scaling_fit,
    sine_term,
    slin_exact,
    split_interaction,
    term_parity,
    top_params,
    wavepacket_params,
)
from kickres.potential import accumulated_potential

# 2.0 too: int() took an integral float, so TopSpec(2.0, ...) had 2 tops
BAD = (2.5, 2.0, True, "1", None)

POT = PotentialSpec(
    2, (cosine_term(1.0, (1, 0)), cosine_term(0.5, (1, -1)))
)
PLAN = ResonancePlan(((1, 2), (1, 2)))
LATTICE = RotorLattice(((-8, 8), (-8, 8)))
STATE = RotorState.momentum_eigenstate(LATTICE, [0, 0])
TOP = TopSpec(2, 2, PLAN, (FieldTerm(0.1, (1, 1)),))
TOP_ENGINE = TopEngine(TOP)
TOP_STATE = TopState.jz_product(TOP, [0, 0])
DENSITY = ProductAngleDensity.uniform(2)
PART = BipartitionSpec(2, (0,))
V_I = split_interaction(POT, (0,))[2]
SHIFT = PLAN.shift_set
SAMPLE = epsilon_sample(V_I, SHIFT, DENSITY, PART, 10_000, 1)
PARAMS = wavepacket_params(POT, SHIFT)


def engine():
    # a fresh one per call: a run may widen its engine's windows
    return RotorEngine(POT, PLAN, LATTICE)


# id: (the argument's name, a call with the value in its place, a valid
# value of that argument)
CASES = {
    "FourierTerm modes": ("modes", lambda v: FourierTerm(1.0, (v, 0)), 1),
    "cosine_term modes": ("modes", lambda v: cosine_term(1.0, (v, 0)), 1),
    "sine_term modes": ("modes", lambda v: sine_term(1.0, (v, 0)), 1),
    "PotentialSpec rotor_count": (
        "rotor_count", lambda v: PotentialSpec(v, ()), 2
    ),
    "kick_bandwidth rotor": ("rotor", POT.kick_bandwidth, 1),
    "ResonancePlan rationals": (
        "rationals", lambda v: ResonancePlan(((v, 2), (1, 2))), 1
    ),
    "term_parity shift_set": (
        "shift_set", lambda v: term_parity(POT.terms[0], [v]), 0
    ),
    "decompose shift_set": ("shift_set", lambda v: decompose(POT, [v]), 0),
    "classify shift_set": ("shift_set", lambda v: classify(POT, [v]), 0),
    "split_interaction part_a": (
        "part_a", lambda v: split_interaction(POT, [v]), 0
    ),
    "RotorLattice windows": (
        "windows", lambda v: RotorLattice(((v, 8), (-8, 8))), -8
    ),
    "RotorLattice element_cap": (
        "element_cap",
        lambda v: RotorLattice(LATTICE.windows, element_cap=v),
        10**6,
    ),
    "for_run initial_momenta": (
        "initial_momenta", lambda v: RotorLattice.for_run(POT, [v, 0], 3), 1
    ),
    "for_run steps": (
        "steps", lambda v: RotorLattice.for_run(POT, [0, 0], v), 3
    ),
    "for_run margin": (
        "margin", lambda v: RotorLattice.for_run(POT, [0, 0], 3, margin=v), 8
    ),
    "for_run element_cap": (
        "element_cap",
        lambda v: RotorLattice.for_run(POT, [0, 0], 3, element_cap=v),
        10**6,
    ),
    "start_window steps": (
        "steps", lambda v: RotorLattice.start_window(POT, [0, 0], v), 3
    ),
    "momenta rotor": ("rotor", LATTICE.momenta, 1),
    "angles rotor": ("rotor", LATTICE.angles, 1),
    "axis_view rotor": (
        "rotor", lambda v: LATTICE.axis_view(v, np.zeros(17)), 1
    ),
    "resized lengths": ("lengths", lambda v: LATTICE.resized([v, 17]), 20),
    "momentum_eigenstate momenta": (
        "momenta",
        lambda v: RotorState.momentum_eigenstate(LATTICE, [v, 0]),
        1,
    ),
    "RotorEngine.evolve steps": (
        "steps", lambda v: engine().evolve(STATE, v), 2
    ),
    "RotorEngine.trajectory steps": (
        "steps", lambda v: list(engine().trajectory(STATE, v)), 2
    ),
    "dressed_evolve steps": (
        "steps", lambda v: engine().dressed_evolve(STATE, v), 2
    ),
    "observe steps": (
        "steps", lambda v: observe(engine(), STATE, v, measure_moments), 2
    ),
    "measure_moments t": ("t", lambda v: measure_moments(STATE, v), 2),
    "BipartitionSpec rotor_count": (
        "rotor_count", lambda v: BipartitionSpec(v, (0,)), 2
    ),
    "BipartitionSpec part_a": (
        "part_a", lambda v: BipartitionSpec(2, (v,)), 0
    ),
    "FieldTerm powers": ("powers", lambda v: FieldTerm(0.1, (v, 1)), 1),
    "TopSpec top_count": (
        "top_count", lambda v: TopSpec(v, 2, PLAN, TOP.field_terms), 2
    ),
    "TopSpec j_tot": ("j_tot", lambda v: TopSpec(2, v, PLAN, ()), 2),
    "TopSpec element_cap": (
        "element_cap",
        lambda v: TopSpec(2, 2, PLAN, (), element_cap=v),
        10**6,
    ),
    "jz_product m_values": (
        "m_values", lambda v: TopState.jz_product(TOP, [v, 0]), 1
    ),
    "TopEngine.evolve steps": (
        "steps", lambda v: TOP_ENGINE.evolve(TOP_STATE, v), 2
    ),
    "measure_jz_moments t": (
        "t", lambda v: TOP_ENGINE.measure_jz_moments(TOP_STATE, v), 2
    ),
    "measure_jx_moments t": (
        "t", lambda v: TOP_ENGINE.measure_jx_moments(TOP_STATE, v), 2
    ),
    "ProductAngleDensity rotor_count": (
        "rotor_count", lambda v: ProductAngleDensity(v, (None, None)), 2
    ),
    "uniform rotor_count": ("rotor_count", ProductAngleDensity.uniform, 2),
    "char rotor": ("rotor", lambda v: DENSITY.char(v, 1), 1),
    "char n": ("n", lambda v: DENSITY.char(0, v), 1),
    "char_vector modes": ("modes", lambda v: DENSITY.char_vector([0, v]), 1),
    "sample count": (
        "count", lambda v: DENSITY.sample(np.random.default_rng(0), v), 3
    ),
    "predict_moments t": ("t", lambda v: predict_moments(PARAMS, v), 3),
    "epsilon_sample sample_count": (
        "sample_count",
        lambda v: epsilon_sample(V_I, SHIFT, DENSITY, PART, v, 1),
        10_000,
    ),
    "epsilon_sample times": (
        "times",
        lambda v: epsilon_sample(V_I, SHIFT, DENSITY, PART, 10_000, 1, [v]),
        3,
    ),
    "slin_exact times": ("times", lambda v: slin_exact(SAMPLE, [v]), 1),
}


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("case", CASES)
def test_non_integer_is_rejected_by_name(case, bad):
    name, call, _ = CASES[case]
    with pytest.raises(ValidationError, match=f"^{name} must be integers, "):
        call(bad)


@pytest.mark.parametrize("case", CASES)
def test_numpy_integer_is_accepted(case):
    _, call, good = CASES[case]
    call(np.int64(good))


# The rotor-index cases also range-check: -1 used to read the last
# rotor's windows and density, and rotor_count raised a bare IndexError.
ROTOR_INDEX_CASES = (
    "momenta rotor", "angles rotor", "axis_view rotor", "char rotor"
)


@pytest.mark.parametrize("index", (-1, 2))
@pytest.mark.parametrize("case", ROTOR_INDEX_CASES)
def test_rotor_index_out_of_range_is_rejected(case, index):
    _, call, _ = CASES[case]
    with pytest.raises(
        ValidationError, match=f"^rotor index {index} out of range for 2 "
    ):
        call(index)


DELTAS = ((1, 0.5), (2, 2.0))

# id "<owner> <argument>": (the argument's name, a call with the value in
# its place, whether it must be > 0).  1 is a valid value of every row.
REAL_CASES = {
    "FourierTerm coefficient": (
        "coefficient", lambda v: FourierTerm(v, (1, 0)).coefficient, False
    ),
    "FourierTerm phase": (
        "phase", lambda v: FourierTerm(1.0, (1, 0), v).phase, False
    ),
    "cosine_term coefficient": (
        "coefficient", lambda v: cosine_term(v, (1, 0)).coefficient, False
    ),
    "sine_term coefficient": (
        "coefficient", lambda v: sine_term(v, (1, 0)).coefficient, False
    ),
    "ResonancePlan detunings": (
        "detunings",
        lambda v: ResonancePlan(PLAN.rationals, (v, 0.0)).detunings[0],
        False,
    ),
    "RotorState.coherent_product width": (
        "width",
        lambda v: RotorState.coherent_product(LATTICE, ((0, 0), (0, 0)), v),
        True,
    ),
    "RotorState.coherent_product centers (theta0)": (
        "centers",
        lambda v: RotorState.coherent_product(LATTICE, ((v, 0), (0, 0)), 1),
        False,
    ),
    "RotorState.coherent_product centers (p0)": (
        "centers",
        lambda v: RotorState.coherent_product(LATTICE, ((0, v), (0, 0)), 1),
        False,
    ),
    "RotorEngine tail_tol": (
        "tail_tol",
        lambda v: RotorEngine(POT, PLAN, LATTICE, tail_tol=v).tail_tol,
        True,
    ),
    "RotorEngine tail_budget": (
        "tail_budget",
        lambda v: RotorEngine(POT, PLAN, LATTICE, tail_budget=v).tail_budget,
        True,
    ),
    "FieldTerm coefficient": (
        "coefficient", lambda v: FieldTerm(v, (1, 1)).coefficient, False
    ),
    "agreement_time threshold": (
        "threshold", lambda v: agreement_time(DELTAS, v), True
    ),
    "RobustnessResult.assemble threshold": (
        "threshold",
        lambda v: RobustnessResult.assemble(v, [1e-3], [DELTAS]),
        True,
    ),
    # an empty scan calls agreement_time on no series at all
    "RobustnessResult.assemble threshold (empty scan)": (
        "threshold", lambda v: RobustnessResult.assemble(v, [], []), True
    ),
    "RobustnessResult.assemble detunings": (
        "detunings",
        lambda v: RobustnessResult.assemble(1.0, [v], [DELTAS]).detunings[0],
        False,
    ),
    "scaling_fit detunings": (
        "detunings",
        lambda v: scaling_fit([(v, 10.0), (1e-4, 20.0), (1e-5, 40.0)]),
        True,
    ),
    "scaling_fit agreement_times": (
        "agreement_times",
        lambda v: scaling_fit([(1e-3, v), (1e-4, 20.0), (1e-5, 40.0)]),
        True,
    ),
    "saturation_time lambda_plus": (
        "lambda_plus", lambda v: saturation_time(TOP, v), False
    ),
    "WavepacketParams lambda_plus": (
        "lambda_plus",
        lambda v: WavepacketParams(
            (0.0,), (0.0,), (v,), (0.0,), (0.0,), (PARAMS.symmetry[0],)
        ),
        False,
    ),
}
# the rows whose call returns the float the site stored
STORED = (
    "FourierTerm coefficient",
    "FourierTerm phase",
    "cosine_term coefficient",
    "sine_term coefficient",
    "ResonancePlan detunings",
    "RotorEngine tail_tol",
    "RotorEngine tail_budget",
    "FieldTerm coefficient",
    "RobustnessResult.assemble detunings",
)
NOT_REAL = (True, "1", None, 1j)
NOT_FINITE = (math.nan, math.inf, -math.inf, 2**1024)
NOT_POSITIVE = (0.0, -1.0)


def _bad_reals():
    for case, (_, _, positive) in REAL_CASES.items():
        for bad in NOT_REAL:
            yield pytest.param(
                case, bad, "a real number, not ", id=f"{case}-{bad!r}"
            )
        for bad in NOT_FINITE + (NOT_POSITIVE if positive else ()):
            label = "2**1024" if bad == 2**1024 else repr(bad)
            yield pytest.param(case, bad, "finite", id=f"{case}-{label}")


@pytest.mark.parametrize("case, bad, says", _bad_reals())
def test_bad_real_is_rejected_by_name(case, bad, says):
    name, call, _ = REAL_CASES[case]
    with pytest.raises(ValidationError, match=f"^{name} must be {says}"):
        call(bad)


@pytest.mark.parametrize("kind", (np.float64, np.float32, int))
@pytest.mark.parametrize("case", REAL_CASES)
def test_numpy_and_int_reals_are_accepted(case, kind):
    got = REAL_CASES[case][1](kind(1))
    if case in STORED:
        assert type(got) is float and got == 1.0


# Records the library computes and returns; their floats are results.
RESULT_RECORDS = ("EpsilonMoments", "ScalingFit", "SlinEstimate")


def _public_parameters():
    """(public name, "<owner> <argument>", annotation) of every argument
    and dataclass field of the public API."""
    for name in kickres.__all__:
        obj = getattr(kickres, name)
        if not callable(obj) or (
            inspect.isclass(obj) and issubclass(obj, Exception)
        ):
            continue
        owners = [(name, obj)]
        if inspect.isclass(obj):
            owners += [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and inspect.isfunction(getattr(member, "__func__", member))
            ]
        for owner, target in owners:
            if dataclasses.is_dataclass(target):
                params = [(f.name, f.type) for f in dataclasses.fields(target)]
            else:
                params = [
                    (p.name, p.annotation)
                    for p in inspect.signature(target).parameters.values()
                ]
            for param, annotation in params:
                yield name, f"{owner} {param}", annotation


def _real_parameters():
    """Every scalar float-annotated argument of the public API, as
    "<owner> <argument>" ids."""
    for name, param, annotation in _public_parameters():
        if annotation in ("float", float) and name not in RESULT_RECORDS:
            yield param


def test_every_real_parameter_has_a_row():
    found = set(_real_parameters())
    # the walk reaches methods and classmethods, not only constructors
    assert "RotorState.coherent_product width" in found
    assert sorted(found - set(REAL_CASES)) == []


ANY_VALUE = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(-(2**1100), 2**1100),  # most beyond the float range
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.complex_numbers(),
)


@given(case=st.sampled_from(sorted(REAL_CASES)), value=ANY_VALUE)
@settings(max_examples=150, deadline=None)
def test_any_value_is_a_finite_real_or_a_validation_error(case, value):
    _, call, positive = REAL_CASES[case]
    try:
        got = call(value)
    except ValidationError:
        return
    assert type(value) in (int, float)
    assert math.isfinite(float(value)) and (value > 0 or not positive)
    if case in STORED:
        assert type(got) is float and math.isfinite(got)


ONE_ROTOR = WavepacketParams(
    (0.0,), (0.0,), (1.0,), (0.0,), (0.0,), (SymmetryClass.SYMMETRIC,)
)
SERIES = tuple(observe(engine(), STATE, 2, measure_moments)[0])
PAIRS = ((1e-3, 10.0), (1e-4, 20.0), (1e-5, 40.0))
# the J_z = 0 state of each top, on the equator
FACTORS = (np.eye(5)[2], np.eye(5)[2])


def _wavepacket_row(field):
    return (
        field,
        lambda v: dataclasses.replace(ONE_ROTOR, **{field: v}),
        range(1),
        None if field == "symmetry" else 1,
        False,
    )


# id "<owner> <argument>": (the argument's name, a call with the value in
# its place, a valid value, the entry count the call needs or None, and
# whether the entries must be integers).  A "(pair)" row puts the value
# in one pair of the argument.  A valid value given as a range is passed
# as a list, a tuple, the range and a numpy integer array.
SEQ_CASES = {
    "FourierTerm modes": (
        "modes", lambda v: FourierTerm(1.0, v), range(1, 3), None, True
    ),
    "cosine_term modes": (
        "modes", lambda v: cosine_term(1.0, v), range(1, 3), None, True
    ),
    "sine_term modes": (
        "modes", lambda v: sine_term(1.0, v), range(1, 3), None, True
    ),
    "PotentialSpec terms": (
        "terms", lambda v: PotentialSpec(2, v), POT.terms, None, False
    ),
    "term_parity shift_set": (
        "shift_set",
        lambda v: term_parity(POT.terms[0], v),
        range(2),
        None,
        True,
    ),
    "decompose shift_set": (
        "shift_set", lambda v: decompose(POT, v), range(2), None, True
    ),
    "classify shift_set": (
        "shift_set", lambda v: classify(POT, v), range(2), None, True
    ),
    "accumulated_potential shift_set": (
        "shift_set",
        lambda v: accumulated_potential(POT, v, 3),
        range(2),
        None,
        True,
    ),
    "split_interaction part_a": (
        "part_a", lambda v: split_interaction(POT, v), range(1), None, True
    ),
    "ResonancePlan rationals": (
        "rationals", ResonancePlan, PLAN.rationals, None, False
    ),
    "ResonancePlan rationals (pair)": (
        "rationals",
        lambda v: ResonancePlan((v, (1, 2))),
        range(1, 3),
        2,
        True,
    ),
    "ResonancePlan detunings": (
        "detunings",
        lambda v: ResonancePlan(PLAN.rationals, v),
        range(2),
        2,
        False,
    ),
    "RotorLattice windows": (
        "windows", RotorLattice, LATTICE.windows, None, False
    ),
    "RotorLattice windows (pair)": (
        "windows",
        lambda v: RotorLattice((v, (-8, 8))),
        range(-8, 9, 16),
        2,
        True,
    ),
    "RotorLattice.for_run initial_momenta": (
        "initial_momenta",
        lambda v: RotorLattice.for_run(POT, v, 3),
        range(2),
        2,
        True,
    ),
    "RotorLattice.resized lengths": (
        "lengths", LATTICE.resized, range(17, 19), 2, True
    ),
    "RotorState.momentum_eigenstate momenta": (
        "momenta",
        lambda v: RotorState.momentum_eigenstate(LATTICE, v),
        range(2),
        2,
        True,
    ),
    "RotorState.coherent_product centers": (
        "centers",
        lambda v: RotorState.coherent_product(LATTICE, v, 1),
        ((0, 0), (0, 0)),
        2,
        False,
    ),
    "RotorState.coherent_product centers (pair)": (
        "centers",
        lambda v: RotorState.coherent_product(LATTICE, (v, (0, 0)), 1),
        range(2),
        2,
        False,
    ),
    "BipartitionSpec part_a": (
        "part_a", lambda v: BipartitionSpec(2, v), range(1), None, True
    ),
    "epsilon_second_moment phi_a": (
        "phi_a",
        lambda v: epsilon_second_moment(v, [1.0], np.zeros((1, 1))),
        range(1, 2),
        None,
        False,
    ),
    "epsilon_second_moment chi_b": (
        "chi_b",
        lambda v: epsilon_second_moment([1.0], v, np.zeros((1, 1))),
        range(1, 2),
        None,
        False,
    ),
    "FieldTerm powers": (
        "powers", lambda v: FieldTerm(0.1, v), range(1, 3), None, True
    ),
    "TopSpec field_terms": (
        "field_terms",
        lambda v: TopSpec(2, 2, PLAN, v),
        TOP.field_terms,
        None,
        False,
    ),
    "TopSpec.unit_factors factors": (
        "factors", TOP.unit_factors, FACTORS, 2, False
    ),
    "TopState.jz_product m_values": (
        "m_values", lambda v: TopState.jz_product(TOP, v), range(2), 2, True
    ),
    "TopState.from_factors factors": (
        "factors", lambda v: TopState.from_factors(TOP, v), FACTORS, 2, False
    ),
    "top_params initial_factors": (
        "initial_factors", lambda v: top_params(TOP, v), FACTORS, 2, False
    ),
    "ProductAngleDensity factors": (
        "factors",
        lambda v: ProductAngleDensity(2, v),
        (None, None),
        2,
        False,
    ),
    "ProductAngleDensity.from_factors factors": (
        "factors",
        ProductAngleDensity.from_factors,
        (None, None),
        None,
        False,
    ),
    "ProductAngleDensity.char_vector modes": (
        "modes", DENSITY.char_vector, range(2), 2, True
    ),
    "epsilon_sample times": (
        "times",
        lambda v: epsilon_sample(V_I, SHIFT, DENSITY, PART, 10_000, 1, v),
        range(1, 3),
        None,
        True,
    ),
    "slin_exact times": (
        "times", lambda v: slin_exact(SAMPLE, v), range(1, 2), None, True
    ),
    "deviation_series detuned": (
        "detuned", lambda v: deviation_series(v, SERIES), SERIES, None, False
    ),
    "deviation_series ideal": (
        "ideal",
        lambda v: deviation_series(SERIES, v),
        SERIES,
        len(SERIES),
        False,
    ),
    "agreement_time deltas": (
        "deltas", agreement_time, DELTAS, None, False
    ),
    "agreement_time deltas (pair)": (
        "deltas", lambda v: agreement_time((v,)), range(1, 3), 2, False
    ),
    "scaling_fit pairs": ("pairs", scaling_fit, PAIRS, None, False),
    "scaling_fit pairs (pair)": (
        "pairs",
        lambda v: scaling_fit((v,) + PAIRS[1:]),
        range(1, 3),
        2,
        False,
    ),
    "RobustnessResult.assemble detunings": (
        "detunings",
        lambda v: RobustnessResult.assemble(1.0, v, [DELTAS]),
        range(1),
        None,
        False,
    ),
    "RobustnessResult.assemble delta_series": (
        "delta_series",
        lambda v: RobustnessResult.assemble(1.0, [1e-3], v),
        (DELTAS,),
        1,
        False,
    ),
    **{
        f"WavepacketParams {field}": _wavepacket_row(field)
        for field in (
            "alpha_plus",
            "alpha_minus",
            "lambda_plus",
            "lambda_minus",
            "kappa",
        )
    },
    "WavepacketParams symmetry": (
        "symmetry",
        lambda v: dataclasses.replace(ONE_ROTOR, symmetry=v),
        ONE_ROTOR.symmetry,
        None,
        False,
    ),
}


def _bad_sequences():
    for case, (name, _, good, count, integers) in SEQ_CASES.items():
        for bad in (None, 5, 0.1):
            yield pytest.param(
                case, bad, f"{name} must be a sequence, not ",
                id=f"{case}-{bad!r}",
            )
        if count is not None:
            good = tuple(good)
            for bad in (good[:-1], good + good[:1]):
                yield pytest.param(
                    case, bad, f"{name} needs {count} entries, got {len(bad)}",
                    id=f"{case}-{len(bad)} entries",
                )
        if integers:
            yield pytest.param(
                case, [[1], [0]], f"{name} must be integers, got [1]",
                id=f"{case}-nested",
            )


@pytest.mark.parametrize("case, bad, says", _bad_sequences())
def test_bad_sequence_is_rejected_by_name(case, bad, says):
    call = SEQ_CASES[case][1]
    with pytest.raises(ValidationError, match=f"^{re.escape(says)}"):
        call(bad)


def _sequence_forms(good):
    yield list(good)
    yield tuple(good)
    if isinstance(good, range):
        yield good
        yield np.array(good)


@pytest.mark.parametrize("case", SEQ_CASES)
def test_list_tuple_range_and_numpy_sequences_are_accepted(case):
    call, good = SEQ_CASES[case][1:3]
    for value in _sequence_forms(good):
        call(value)


def test_a_one_pass_iterator_is_read_once():
    # classify handed shift_set to term_parity once per term, so the first
    # term used up a generator and the second saw an empty shift set
    assert classify(POT, iter([0])) is classify(POT, [0])


@pytest.mark.parametrize("index", (-1, 2))
def test_shift_set_index_out_of_range_is_rejected(index):
    # -1 read the last rotor's mode, and 2 raised a bare IndexError
    with pytest.raises(
        ValidationError, match=rf"^shift_set \({index},\) out of range for 2 "
    ):
        term_parity(POT.terms[0], [index])


# Records the library computes and returns: their tuples are results.
SEQ_RESULT_RECORDS = (
    "EpsilonMoments",
    "MomentRecord",
    "RegimeReport",
    "RobustnessResult",
    "ScalingFit",
    "SlinEstimate",
)
# evaluate runs once per Monte-Carlo block and kick table, on the angle
# arrays the library itself builds; it keeps its own length check
HOT_PATHS = ("PotentialSpec.evaluate thetas",)


def _sequence_parameters():
    """Every Sequence-, Iterable- or tuple-annotated argument of the
    public API, as "<owner> <argument>" ids."""
    for _, param, annotation in _public_parameters():
        owner = param.split()[0]
        head = str(annotation).split("[")[0]
        if head in ("Sequence", "Iterable", "tuple") and not (
            owner in SEQ_RESULT_RECORDS or param in HOT_PATHS
        ):
            yield param


def test_every_sequence_parameter_has_a_row():
    found = set(_sequence_parameters())
    # the walk reaches methods and dataclass fields too
    assert "RotorState.coherent_product centers" in found
    assert "ResonancePlan rationals" in found
    assert "RobustnessResult.assemble delta_series" in found
    assert sorted(found - set(SEQ_CASES)) == []


SCALAR = st.one_of(
    st.none(), st.integers(), st.floats(), st.text(max_size=3)
)
FLAT = st.one_of(
    SCALAR,
    st.lists(SCALAR, max_size=4),
    st.lists(SCALAR, max_size=4).map(tuple),
)
ANY_NESTING = st.one_of(
    FLAT, st.lists(FLAT, max_size=4), st.lists(FLAT, max_size=4).map(tuple)
)


@given(case=st.sampled_from(sorted(SEQ_CASES)), value=ANY_NESTING)
@settings(max_examples=150, deadline=None)
def test_any_value_is_accepted_or_a_validation_error(case, value):
    # ResourceCapError: a well-formed lattice beyond the element cap
    try:
        SEQ_CASES[case][1](value)
    except (ValidationError, ResourceCapError):
        pass
