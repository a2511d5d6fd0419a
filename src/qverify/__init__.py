"""Reconstruct and verify layered interruptible quantum circuits.

The package simulates a black-box layered device, reconstructs its hidden
circuit from shot-based pseudo-measurement tomography, and reproduces the
desk-scale verification experiments: certified per-layer decoding against the
pair-window configuration classes, purity-based entangler detection, and the
sampling / noise sweeps.
"""

from .core import (
    DensityMatrix,
    PauliBasis,
    StateVec,
    exact_pauli_distribution,
    purity,
)
from .gates import Gate, GateSet, builtin_gate, qft_gate_set, standard_gate_set
from .circuits import (
    Layer,
    LayeredCircuit,
    choi_state,
    compose_unitary,
    emit_circuit,
    identity_circuit,
    layer_unitary,
    parse_circuit,
    random_circuit,
    same_circuit,
)
from .resolution import (
    ConfigElement,
    enumerate_config_classes,
    gate_set_resolution,
)
from .device import (
    Device,
    DeviceProfile,
    NoiseConfig,
    TimeLedger,
    device_time_for_learning,
)
from .tomography import (
    RdmEstimate,
    RecordSet,
    project_to_physical,
    required_samples,
)
from .reconstruction import (
    ReconstructionReport,
    learn_multi,
    match_two_qubit,
    minimize_residual,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "PauliBasis",
    "StateVec",
    "exact_pauli_distribution",
    "purity",
    "Gate",
    "GateSet",
    "builtin_gate",
    "qft_gate_set",
    "standard_gate_set",
    "Layer",
    "LayeredCircuit",
    "choi_state",
    "compose_unitary",
    "emit_circuit",
    "identity_circuit",
    "layer_unitary",
    "parse_circuit",
    "random_circuit",
    "same_circuit",
    "ConfigElement",
    "enumerate_config_classes",
    "gate_set_resolution",
    "Device",
    "DeviceProfile",
    "NoiseConfig",
    "TimeLedger",
    "device_time_for_learning",
    "RdmEstimate",
    "RecordSet",
    "project_to_physical",
    "required_samples",
    "ReconstructionReport",
    "learn_multi",
    "match_two_qubit",
    "minimize_residual",
]
