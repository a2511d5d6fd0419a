"""Two-qubit benchmark circuits used by the demos and the verification suite.

The shipped files under ``data/`` are the only definition of these circuits.
The three ``demo_d*.json`` instances are fixed draws from the {H, X, Y, Z,
CNOT} set at depths one to three; ``qft2.json`` is the textbook two-qubit
Fourier transform with its controlled phase and swap expanded into basic
gates. Each experiment round is a group of strict layers: local gates, then
the entangling slot.
"""

from __future__ import annotations

from importlib import resources

from .circuits import LayeredCircuit, parse_circuit
from .gates import GateSet, qft_gate_set, standard_gate_set


def _shipped(name: str) -> LayeredCircuit:
    path = resources.files(__package__).joinpath(f"data/{name}.json")
    return parse_circuit(path.read_text(encoding="utf-8"))


def demo_circuit(depth: int) -> LayeredCircuit:
    """Fixed random-style benchmark circuit with ``depth`` experiment rounds."""
    if depth not in (1, 2, 3):
        raise ValueError(f"demo circuits exist for depths 1-3, not {depth}")
    return _shipped(f"demo_d{depth}")


def qft2_circuit() -> LayeredCircuit:
    """Two-qubit Fourier transform in five experiment rounds."""
    return _shipped("qft2")


def benchmark_suite() -> list[tuple[str, LayeredCircuit, GateSet]]:
    """The four circuits the verifier is demonstrated on, with their gate sets."""
    std = standard_gate_set()
    return [
        ("demo-d1", demo_circuit(1), std),
        ("demo-d2", demo_circuit(2), std),
        ("demo-d3", demo_circuit(3), std),
        ("qft2", qft2_circuit(), qft_gate_set()),
    ]
