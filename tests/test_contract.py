"""The library's integer contract.

Every public constructor and function that takes a count, an index, a
mode, a momentum or a power rejects a non-integer there with a
ValidationError naming the argument, and takes a numpy integer as it takes
an int.  One table drives them all.  Before the library checked, int()
truncated many of these values (RotorLattice.for_run(pot, [0.6, 2.9], 3)
centred its windows on 0 and 2) and others failed later with a bare
TypeError (BipartitionSpec(2.5, (0,)) at part_b).
"""

import numpy as np
import pytest

from kickres import (
    BipartitionSpec,
    FieldTerm,
    FourierTerm,
    PotentialSpec,
    ProductAngleDensity,
    ResonancePlan,
    RotorEngine,
    RotorLattice,
    RotorState,
    TopEngine,
    TopSpec,
    TopState,
    ValidationError,
    classify,
    cosine_term,
    decompose,
    epsilon_sample,
    measure_moments,
    observe,
    predict_moments,
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
