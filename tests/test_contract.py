"""The library's integer and real-number contract.

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
"""

import dataclasses
import inspect
import math

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
    RobustnessResult,
    RotorEngine,
    RotorLattice,
    RotorState,
    TopEngine,
    TopSpec,
    TopState,
    ValidationError,
    WavepacketParams,
    agreement_time,
    classify,
    cosine_term,
    decompose,
    epsilon_sample,
    measure_moments,
    observe,
    predict_moments,
    saturation_time,
    scaling_fit,
    sine_term,
    slin_exact,
    split_interaction,
    term_parity,
    wavepacket_params,
)

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


def _real_parameters():
    """Every scalar float-annotated argument of the public API, as
    "<owner> <argument>" ids."""
    for name in kickres.__all__:
        obj = getattr(kickres, name)
        if not callable(obj) or name in RESULT_RECORDS or (
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
                if annotation in ("float", float):
                    yield f"{owner} {param}"


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
