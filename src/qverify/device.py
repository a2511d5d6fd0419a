"""Black-box simulation of a layered interruptible quantum device.

A :class:`Device` hides its circuit behind a query interface of two methods.
:meth:`Device.execute_settings` runs shot settings (state preparation gates
and a measurement basis, each with a shot count) through an inverse-prefix
circuit and the hidden circuit interrupted at layer k, and returns outcomes;
:meth:`Device.ideal_choi_state` is the infinite-shot oracle of the same query.
Executed time grows by one unit ``t`` per layer actually run, so a shot with a
j-layer prefix interrupted at layer k costs (j + k) * t.

Each call builds the circuit unitary once and prepares, evolves, rotates and
samples every setting's shots together (inverse CDF on one uniform draw).

Depolarizing noise is simulated with stochastic pure-state trajectories: after
each gate of the hidden circuit, every touched qubit independently suffers a
uniformly random non-identity Pauli with the configured probability. Prefix
and preparation gates are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np

from .circuits import Layer, LayeredCircuit, choi_state, compose_unitary, layer_unitary
from .core import (
    AXES,
    AXIS_ROTATIONS,
    PauliBasis,
    StateVec,
    apply_unitary_array,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)
from .errors import InvalidRequest
from .gates import BUILTIN_MATRICES
from .rng import ensure_rng

_PREP_GATES = ("X", "H", "S")
_NOISE_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

# Every single-qubit preparation the device accepts (each of X, H, S at most
# once, in that order) and the state it makes from |0>, row by row.
PREP_SEQUENCES = tuple(names for r in range(4) for names in combinations(_PREP_GATES, r))
PREP_VECTORS = np.array(
    [reduce(lambda v, g: BUILTIN_MATRICES[g] @ v, names, np.eye(2, dtype=complex)[0])
     for names in PREP_SEQUENCES]
)
PREP_VECTORS.flags.writeable = False
_PREP_CODE = {names: code for code, names in enumerate(PREP_SEQUENCES)}
_READOUT = np.array([AXIS_ROTATIONS[axis] for axis in AXES])


def _check_prep(prep: tuple[tuple[str, ...], ...]) -> None:
    for names in prep:
        if names not in _PREP_CODE:
            for g in names:
                if g not in _PREP_GATES:
                    raise InvalidRequest(f"prep gate {g!r} not in {{X, H, S}}")
            raise InvalidRequest(f"prep gates {names} not in X, H, S order")


@dataclass(frozen=True)
class NoiseConfig:
    """depolarizing_p: per-gate, per-qubit Pauli error probability."""

    depolarizing_p: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.depolarizing_p < 1.0):
            raise InvalidRequest(f"depolarizing_p={self.depolarizing_p} outside [0, 1)")


@dataclass
class TimeLedger:
    """Accumulated device time in exact units of t."""

    t: Fraction = Fraction(1)
    layer_count: int = 0
    per_shot_layers: dict[int, int] = field(default_factory=dict)

    @property
    def total_time(self) -> Fraction:
        return self.layer_count * self.t

    def add_shots(self, layers: int, count: int) -> None:
        self.layer_count += layers * count
        self.per_shot_layers[layers] = self.per_shot_layers.get(layers, 0) + count

    def __add__(self, other: "TimeLedger") -> "TimeLedger":
        if self.t != other.t:
            raise InvalidRequest("cannot merge ledgers with different t")
        hist = dict(self.per_shot_layers)
        for k, v in other.per_shot_layers.items():
            hist[k] = hist.get(k, 0) + v
        return TimeLedger(self.t, self.layer_count + other.layer_count, hist)

    def render(self) -> str:
        if self.t == 1:
            return f"{self.layer_count}t"
        return f"{self.layer_count}*({self.t})t"


@dataclass(frozen=True)
class DeviceProfile:
    n: int
    d: int
    t: Fraction
    hidden_circuit: LayeredCircuit

    def __post_init__(self):
        if self.hidden_circuit.n != self.n or self.hidden_circuit.depth != self.d:
            raise InvalidRequest("hidden circuit does not match the profile shape")
        if self.t <= 0:
            raise InvalidRequest("t must be positive")


def device_time_for_learning(d: int, t: Fraction | int, N: int) -> Fraction:
    """Total device time for N shots at every interruption point 1..d."""
    return N * d * d * Fraction(t)


class Device:
    """Query handle for a hidden layered circuit.

    Public surface: ``n``, ``d``, ``t``, ``ledger`` and the two queries
    :meth:`execute_settings` (shots) and :meth:`ideal_choi_state` (the
    infinite-shot oracle used by exact-mode verification). The circuit itself
    is not reachable through this surface.
    """

    def __init__(self, profile: DeviceProfile, noise: NoiseConfig | None = None):
        self._hidden = profile.hidden_circuit
        self._noise = noise or NoiseConfig()
        self.n = profile.n
        self.d = profile.d
        self.t = Fraction(profile.t)
        self.ledger = TimeLedger(t=self.t)

    # -- request validation -----------------------------------------------------

    def _check_circuit(self, inverse_prefix: LayeredCircuit, k: int, undo: Layer | None) -> None:
        if inverse_prefix.n != self.n:
            raise InvalidRequest("inverse prefix acts on the wrong qubit count")
        if not (0 <= k <= self.d):
            raise InvalidRequest(f"interrupt_at={k} outside [0, {self.d}]")
        if undo is not None and undo.qubits() != set(range(self.n)):
            raise InvalidRequest(f"undo layer covers {sorted(undo.qubits())}, not 0..{self.n - 1}")

    def _setting_codes(self, settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated (settings, n) prep and readout-axis codes, and shot counts."""
        n = self.n
        preps, bases, counts = zip(*settings) if settings else ((), (), ())
        # a prep or basis shared by several settings is looked up once
        prep_rows = {names: [_PREP_CODE.get(q) for q in names] for names in set(preps)}
        axes_rows = {b.axes: [AXES.index(a) for a in b.axes] for b in bases}
        for names, row in prep_rows.items():
            if len(row) != n:
                raise InvalidRequest(f"prep covers {len(row)} of {n} qubits")
            if None in row:
                _check_prep(names)
        if any(len(row) != n for row in axes_rows.values()):
            raise InvalidRequest("basis does not cover every qubit")
        counts = np.array(counts, dtype=np.int64)
        if (counts < 0).any():
            raise InvalidRequest(f"negative shot count {counts.min()}")
        prep = np.array([prep_rows[names] for names in preps], dtype=np.intp)
        axes = np.array([axes_rows[b.axes] for b in bases], dtype=np.intp)
        return prep.reshape(-1, n), axes.reshape(-1, n), counts

    def _unitary(self, inverse_prefix: LayeredCircuit, k: int, undo: Layer | None = None):
        """The noiseless circuit ``[undo] . hidden[:k] . inverse_prefix``."""
        u = compose_unitary(self._hidden, k) @ compose_unitary(inverse_prefix)
        return u if undo is None else layer_unitary(undo, self.n) @ u

    # -- execution -------------------------------------------------------------

    def execute_settings(
        self,
        inverse_prefix: LayeredCircuit,
        k: int,
        settings: list[tuple[tuple, PauliBasis, int]],
        rng,
        undo: Layer | None = None,
    ) -> list[np.ndarray]:
        """Run (prep, basis, shots) settings sharing prefix, ``k`` and undo, in one batch.

        Every setting is validated before any unitary, draw or ledger entry.
        Returns per setting, in order, an int array of outcome indices (qubit 0
        is the most significant bit; a 0 bit means +1). Draw order: one integer
        from ``rng`` seeds the trajectory-noise stream, then ``rng.random(total)``
        is read setting by setting (the stream of one ``rng.random(count)`` per
        setting). Noise never draws from ``rng``, so a seed's measurement draws
        are the same at every noise strength.
        """
        self._check_circuit(inverse_prefix, k, undo)
        prep, axes, counts = self._setting_codes(settings)
        rng = ensure_rng(rng)
        noise_rng = np.random.default_rng(int(rng.integers(2**63)))
        u01 = rng.random(int(counts.sum()))
        starts = (np.cumsum(counts) - counts).tolist()
        psi = _product_states(prep)
        if self._noise.depolarizing_p == 0.0:
            states = self._unitary(inverse_prefix, k, undo) @ psi
            columns = np.repeat(np.arange(len(counts)), counts)
        else:
            psi = compose_unitary(inverse_prefix) @ psi
            undo_u = None if undo is None else layer_unitary(undo, self.n)
            states = np.repeat(psi, counts, axis=1)
            for a, c in zip(starts, counts.tolist()):
                states[:, a : a + c] = self._trajectories(
                    states[:, a : a + c], k, undo_u, noise_rng
                )
            axes = np.repeat(axes, counts, axis=0)
            columns = np.arange(len(u01))
        draws = _sample(_rotate_to_z(states, axes), columns, u01)
        self.ledger.add_shots(inverse_prefix.depth + k + (undo is not None), len(u01))
        return [draws[a : a + c] for a, c in zip(starts, counts.tolist())]

    def _trajectories(self, cols, k, undo_u, rng) -> np.ndarray:
        """Noisy runs of the hidden layers on column states, one column per shot."""
        n, p = self.n, self._noise.depolarizing_p
        for layer in self._hidden.layers[:k]:
            for block, gate in zip(layer.blocks, layer.gates):
                cols = apply_unitary_array(cols, gate.matrix, block, n)
                for q in block:
                    hit = rng.random(cols.shape[1]) < p
                    which = rng.integers(0, 3, size=cols.shape[1])
                    for pauli_idx in range(3):
                        mask = hit & (which == pauli_idx)
                        if mask.any():
                            cols[:, mask] = apply_unitary_array(
                                cols[:, mask], _NOISE_PAULIS[pauli_idx], (q,), n
                            )
        return cols if undo_u is None else undo_u @ cols

    # -- infinite-shot oracle ----------------------------------------------------

    def ideal_choi_state(self, inverse_prefix: LayeredCircuit, k: int) -> StateVec:
        """Choi state of prefix-then-first-k-layers, noiselessly (2n qubits)."""
        self._check_circuit(inverse_prefix, k, None)
        return choi_state(self._unitary(inverse_prefix, k), self.n)


def _product_states(prep: np.ndarray) -> np.ndarray:
    """One product-state column per row of prep codes, qubits in ``np.kron`` order."""
    settings, n = prep.shape
    vecs = PREP_VECTORS.T[:, prep.T]
    psi = np.ones((1, settings), dtype=complex)
    for q in range(n):
        psi = (psi[:, None, :] * vecs[None, :, q, :]).reshape(2 << q, settings)
    return psi


def _rotate_to_z(states: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Rotate column j of ``states`` so that qubit q's axis ``axes[j, q]`` becomes Z."""
    dim, m = states.shape
    for q in range(axes.shape[1]):
        rot = _READOUT[axes[:, q]].transpose(1, 2, 0)
        v = states.reshape(1 << q, 2, dim >> (q + 1), m)
        out = np.empty_like(v)
        for a in (0, 1):
            np.multiply(rot[a, 0], v[:, 0], out=out[:, a])
            out[:, a] += rot[a, 1] * v[:, 1]
        states = out.reshape(dim, m)
    return states


def _sample(states: np.ndarray, columns: np.ndarray, u01: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome index of each shot; shot i reads column ``columns[i]``."""
    probs = np.abs(states) ** 2
    cdf = np.cumsum(probs / probs.sum(axis=0), axis=0)
    draws = np.zeros(len(u01), dtype=np.int64)
    for edge in cdf[:-1]:  # a draw past every other edge is the last outcome
        draws += edge[columns] <= u01
    return draws
