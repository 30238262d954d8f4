"""tpmcert: device-independent certification of quantum memories from
two-point-measurement statistics."""

from .certify import (
    CertReport,
    S_K,
    acde,
    bootstrap_errors,
    certify_behavior,
    chsh_decomposition,
    fidelity_lower_bound,
    gamma_functional,
    pearl_delta,
)
from .process import (
    Behavior,
    BinaryPovm,
    DoTable,
    FinalMeasurement,
    InitialState,
    MpInstrument,
    ProcessOperator,
    Repreparations,
    Unitary,
    born_rule,
    build_process,
    do_probabilities,
    validate_process,
)
from .proclib import (
    NoiseParams,
    classical_crossing_time,
    decay_prediction,
    partial_swap,
    partial_swap_gamma_curve,
    upsilon,
)

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "BinaryPovm",
    "CertReport",
    "DoTable",
    "FinalMeasurement",
    "InitialState",
    "MpInstrument",
    "NoiseParams",
    "ProcessOperator",
    "Repreparations",
    "S_K",
    "Unitary",
    "acde",
    "bootstrap_errors",
    "born_rule",
    "build_process",
    "certify_behavior",
    "chsh_decomposition",
    "classical_crossing_time",
    "decay_prediction",
    "do_probabilities",
    "fidelity_lower_bound",
    "gamma_functional",
    "partial_swap",
    "partial_swap_gamma_curve",
    "pearl_delta",
    "upsilon",
    "validate_process",
]
