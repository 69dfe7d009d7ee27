"""Resonant dynamics of coupled kicked rotors and kicked tops.

The package splits into a simulation side (split-operator rotor and
collective-spin engines) and an analytic side (factorized resonant
evolution, wavepacket moment laws, linear-entropy closed forms, detuning
robustness diagnostics).  The two sides are deliberately independent so
each can check the other.
"""

from .errors import (
    KickresError,
    ResourceCapError,
    TruncationError,
    ValidationError,
)
from .potential import (
    FourierTerm,
    PotentialSpec,
    ResonancePlan,
    SymmetryClass,
    classify,
    cosine_term,
    decompose,
    satisfies_resonance_symmetry,
    sine_term,
    split_interaction,
    term_parity,
    term_text,
)
from .rotor_engine import (
    MomentRecord,
    RotorEngine,
    RotorLattice,
    RotorState,
    measure_moments,
    observe,
)
from .entanglement import (
    BipartitionSpec,
    epsilon_second_moment,
    schmidt_purity,
)
from .top_engine import (
    FieldTerm,
    TopEngine,
    TopSpec,
    TopState,
    top_purity,
)
from .predictor import (
    EpsilonMoments,
    EpsilonSample,
    ProductAngleDensity,
    RegimeReport,
    RobustnessResult,
    ScalingFit,
    SlinEstimate,
    WavepacketParams,
    agreement_time,
    classify_regimes,
    crossover_time,
    deviation_series,
    epsilon_moments,
    epsilon_sample,
    predict_moments,
    saturation_time,
    scaling_fit,
    slin_exact,
    top_params,
    wavepacket_params,
)

__version__ = "0.1.0"

__all__ = [
    "KickresError",
    "ValidationError",
    "TruncationError",
    "ResourceCapError",
    "FourierTerm",
    "PotentialSpec",
    "ResonancePlan",
    "SymmetryClass",
    "classify",
    "cosine_term",
    "decompose",
    "satisfies_resonance_symmetry",
    "sine_term",
    "split_interaction",
    "term_parity",
    "term_text",
    "RotorLattice",
    "RotorState",
    "RotorEngine",
    "MomentRecord",
    "measure_moments",
    "observe",
    "BipartitionSpec",
    "epsilon_second_moment",
    "schmidt_purity",
    "FieldTerm",
    "TopEngine",
    "TopSpec",
    "TopState",
    "top_purity",
    "EpsilonMoments",
    "EpsilonSample",
    "ProductAngleDensity",
    "RegimeReport",
    "RobustnessResult",
    "ScalingFit",
    "SlinEstimate",
    "WavepacketParams",
    "agreement_time",
    "classify_regimes",
    "crossover_time",
    "deviation_series",
    "epsilon_moments",
    "epsilon_sample",
    "predict_moments",
    "saturation_time",
    "scaling_fit",
    "slin_exact",
    "top_params",
    "wavepacket_params",
    "__version__",
]
