"""Named gates and finite gate sets.

Two-qubit gates are directed: a gate's matrix acts with its first wire on the
first qubit of the block it is applied to. An orientation-reversed instance
(control and target exchanged) is a distinct member of a gate set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BUILTIN_MATRICES, is_unitary, trace_distance_array
from .errors import ArityMismatch, EmptyGateSet, NonUnitary, UnknownGateName

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class Gate:
    name: str
    arity: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if self.arity not in (1, 2):
            raise ArityMismatch(f"arity must be 1 or 2, got {self.arity}")
        if m.shape != (1 << self.arity, 1 << self.arity):
            raise ArityMismatch(
                f"gate {self.name}: matrix shape {m.shape} does not match arity {self.arity}"
            )
        if not is_unitary(m):
            raise NonUnitary(f"gate {self.name} is not unitary within 1e-9")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def dagger(self) -> "Gate":
        return Gate(self.name + "†", self.arity, self.matrix.conj().T)

    def reversed(self) -> "Gate":
        """Orientation-reversed instance of a two-qubit gate."""
        if self.arity != 2:
            raise ArityMismatch("only two-qubit gates have an orientation")
        return Gate(self.name + "_rev", 2, _SWAP @ self.matrix @ _SWAP)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gate)
            and self.arity == other.arity
            and np.allclose(self.matrix, other.matrix, atol=1e-12)
        )

    def __hash__(self):
        return hash((self.arity, self.name))


def builtin_gate(name: str) -> Gate:
    if name not in BUILTIN_MATRICES:
        raise UnknownGateName(f"unknown gate {name!r}")
    m = BUILTIN_MATRICES[name]
    return Gate(name, 1 if m.shape == (2, 2) else 2, m)


@dataclass(frozen=True)
class GateSet:
    """Finite universal set: single-qubit gates plus directed two-qubit gates."""

    singles: tuple[Gate, ...]
    doubles: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        singles = tuple(self.singles)
        doubles = tuple(self.doubles)
        if not singles and not doubles:
            raise EmptyGateSet("gate set has no gates")
        if any(g.arity != 1 for g in singles):
            raise ArityMismatch("singles must have arity 1")
        if any(g.arity != 2 for g in doubles):
            raise ArityMismatch("doubles must have arity 2")
        names = [g.name for g in singles + doubles]
        if len(set(names)) != len(names):
            raise ArityMismatch(f"duplicate gate names in set: {names}")
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "doubles", doubles)

    def single(self, name: str) -> Gate:
        for g in self.singles:
            if g.name == name:
                return g
        raise UnknownGateName(f"gate {name!r} not in set")


def standard_gate_set() -> GateSet:
    """{I, H, X, Y, Z} plus both CNOT orientations."""
    cnot = builtin_gate("CNOT")
    return GateSet(
        singles=tuple(builtin_gate(n) for n in ("I", "H", "X", "Y", "Z")),
        doubles=(cnot, cnot.reversed()),
    )


def qft_gate_set() -> GateSet:
    """Single-qubit phases used by the two-qubit Fourier-transform demo."""
    cnot = builtin_gate("CNOT")
    return GateSet(
        singles=(
            builtin_gate("I"),
            builtin_gate("H"),
            builtin_gate("Rz(pi/4)").dagger(),
            builtin_gate("Rz(pi/2)"),
            builtin_gate("T"),
        ),
        doubles=(cnot, cnot.reversed()),
    )


def gates_equivalent(a: Gate, b: Gate) -> bool:
    """Same physical operation: identical Choi states (phase-blind)."""
    if a.arity != b.arity:
        return False
    return choi_distance(a.matrix, b.matrix) < 1e-9


def choi_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance between the Choi states of two equal-size unitaries.

    Computed from the eigenvalues of the Choi-state difference, which resolves
    distances all the way down to machine precision (the closed form
    sqrt(1 - overlap^2) loses half the available digits near zero).
    """
    d = a.shape[0]
    va = a.reshape(-1) / np.sqrt(d)
    vb = b.reshape(-1) / np.sqrt(d)
    return trace_distance_array(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
