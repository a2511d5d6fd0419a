"""Black-box simulation of a layered interruptible quantum device.

A :class:`Device` hides its circuit behind a query interface of two methods.
:meth:`Device.execute_settings` runs shot settings through an inverse-prefix
circuit and the hidden circuit interrupted at layer k, and returns outcomes;
:meth:`Device.ideal_choi_state` is the infinite-shot oracle of the same query.
Executed time grows by one unit ``t`` per layer actually run, so a shot with a
j-layer prefix interrupted at layer k costs (j + k) * t.

Settings arrive as one structured table (see :func:`settings_table`): per row,
a preparation code 0-7 into :data:`PREP_SEQUENCES` and a readout-axis code
0-2 (X, Y, Z) for every qubit, and a shot count. Each call builds the circuit
unitary once, then prepares, evolves, rotates and samples the settings in
chunks of whole settings, at most :data:`CHUNK_SETTINGS` rows and, unless one
setting alone has more, :data:`CHUNK_SHOTS` shots (inverse CDF on one uniform
draw per shot). Chunking does not change which uniform draw a shot reads.
Nothing carries over from one call to the next but the ledger.

Depolarizing noise is simulated with stochastic pure-state trajectories: after
each gate of the hidden circuit, every touched qubit independently suffers a
uniformly random non-identity Pauli with the configured probability. Prefix
and preparation gates are exact. Each call draws its noise once, as a
sparse list of the (shot, gate, qubit) sites that are hit. A shot with no hit
reads its setting's noiseless column, the one a noiseless device gives it;
only a hit shot runs the hidden gates one by one as a trajectory.

Host memory per chunk: a chunk holds one 2^n-amplitude column per setting, at
most 2^n x CHUNK_SETTINGS whatever the number of settings, plus, with noise,
one column per shot of the chunk that drew a hit. Per shot, a chunk holds its
uniform draw and column number (8 bytes each), its outcome in the smallest
unsigned type and, one CDF edge at a time, a float and a bool to compare; each
chunk draws only its own uniforms. Across the call, the one per-shot array is
the outcome array it returns, in the smallest unsigned type that holds 2^n - 1
(uint8 up to n = 8). The noise list holds 5 bytes per hit (an int32 site and
an int8 Pauli code; 9 bytes once a call has 2^31 sites or more), about
p x sites x shots of them, and nothing per site that is not hit. The settings
table is read and checked in its own integer types, never copied; per setting
the call adds only the running shot total, in the smallest unsigned type that
holds the shot count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np

from .circuits import LayeredCircuit, choi_state, compose_unitary
from .core import AXES, AXIS_ROTATIONS, BUILTIN_MATRICES, PAULIS, StateVec, apply_unitary_array
from .errors import InvalidRequest

_PREP_GATES = ("X", "H", "S")
# indexed by Pauli code: 1-3 for X, Y, Z (0, the identity, is never drawn)
_NOISE_PAULIS = np.array([PAULIS[name] for name in "IXYZ"])

# Every single-qubit preparation the device accepts (each of X, H, S at most
# once, in that order) and the state it makes from |0>, row by row.
PREP_SEQUENCES = tuple(names for r in range(4) for names in combinations(_PREP_GATES, r))
PREP_VECTORS = np.array(
    [reduce(lambda v, g: BUILTIN_MATRICES[g] @ v, names, np.eye(2, dtype=complex)[0])
     for names in PREP_SEQUENCES]
)
PREP_VECTORS.flags.writeable = False
_READOUT = np.array([AXIS_ROTATIONS[axis] for axis in AXES])

# Settings prepared, evolved and sampled together: a chunk ends after
# CHUNK_SETTINGS settings or CHUNK_SHOTS shots, whichever comes first, but
# always holds at least one whole setting. Bounds the host arrays of one
# noiseless chunk at 2^n x CHUNK_SETTINGS amplitudes plus a few bytes per shot;
# a noisy chunk holds one more column per shot that drew a hit.
CHUNK_SETTINGS = 4096
CHUNK_SHOTS = 1 << 14

SETTING_FIELDS = ("prep", "axes", "shots")


def settings_table(prep, axes, shots) -> np.ndarray:
    """Settings table for :meth:`Device.execute_settings`, one row per setting.

    ``prep`` and ``axes`` are (settings, n) integer arrays of preparation codes
    (rows of :data:`PREP_SEQUENCES`) and readout-axis codes (0=X, 1=Y, 2=Z);
    ``shots`` holds each setting's shot count. Every field keeps the dtype of
    its input, so the device validates the codes as given, never a cast.
    """
    columns = list(zip(SETTING_FIELDS, map(np.asarray, (prep, axes, shots))))
    table = np.empty(
        len(columns[2][1]), dtype=[(name, col.dtype, col.shape[1:]) for name, col in columns]
    )
    for name, col in columns:
        table[name] = col
    return table


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

    def _check_circuit(self, inverse_prefix: LayeredCircuit, k: int) -> None:
        if inverse_prefix.n != self.n:
            raise InvalidRequest("inverse prefix acts on the wrong qubit count")
        if not (0 <= k <= self.d):
            raise InvalidRequest(f"interrupt_at={k} outside [0, {self.d}]")

    def _setting_codes(self, settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated (settings, n) prep and readout-axis codes, and shot counts.

        Each is a view of its table field, checked in the field's own dtype.
        """
        dtype = getattr(settings, "dtype", None)
        if getattr(dtype, "names", None) != SETTING_FIELDS or settings.ndim != 1:
            raise InvalidRequest(f"settings must be a 1-D table with fields {SETTING_FIELDS}")
        for name, shape in zip(SETTING_FIELDS, ((self.n,), (self.n,), ())):
            if dtype[name].base.kind not in "iu" or dtype[name].shape != shape:
                raise InvalidRequest(f"{name} must hold integers shaped {shape}, not {dtype[name]}")
        prep, axes, counts = (settings[name] for name in SETTING_FIELDS)
        for name, codes, radix in (("prep", prep, len(PREP_SEQUENCES)), ("axes", axes, len(AXES))):
            if codes.size and (codes.min() < 0 or codes.max() >= radix):
                raise InvalidRequest(f"{name} code outside 0..{radix - 1}")
        if counts.size and counts.min() < 0:
            raise InvalidRequest(f"negative shot count {counts.min()}")
        return prep, axes, counts

    def _unitaries(self, inverse_prefix: LayeredCircuit, k: int):
        """``(u, prefix_u)``: the noiseless ``hidden[:k] . inverse_prefix`` and its prefix.

        A hit shot runs ``prefix_u`` before its trajectory through ``hidden[:k]``.
        """
        prefix_u = compose_unitary(inverse_prefix)
        return compose_unitary(self._hidden, k) @ prefix_u, prefix_u

    # -- execution -------------------------------------------------------------

    def execute_settings(
        self,
        inverse_prefix: LayeredCircuit,
        k: int,
        settings: np.ndarray,
        rng,
    ) -> np.ndarray:
        """Run a :func:`settings_table` of settings behind one prefix, interrupted at ``k``.

        Every setting is validated before any unitary, draw or ledger entry:
        the table's fields, its row width n, the code ranges and ``shots >= 0``,
        each in the field's own integer type. Returns one flat array of outcome
        indices in ``np.min_scalar_type(2**n - 1)`` (uint8 up to n = 8), grouped
        by setting in row order (qubit 0 is the most significant bit; a 0 bit
        means +1).
        Draw order: one integer from ``rng`` seeds the noise stream, then the
        stream of one ``rng.random(total)`` is read setting by setting (the
        stream of one ``rng.random(count)`` per setting); settings are sampled
        in chunks of whole settings, each drawing its own slice of that stream
        as one ``rng.random(shots in the chunk)``. Noise never draws from
        ``rng``, so a seed's measurement draws are the same at every noise
        strength.
        The noise stream is drawn once per call, before the first chunk. The
        call's sites are the (gate, touched qubit) pairs of ``hidden[:k]`` in
        layer, block and qubit order, S of them per shot, numbered over the
        call's shots in row order, shot-major: site s of shot i is i * S + s.
        :func:`_hit_sites` draws which of them are hit and with which Pauli,
        and each chunk takes its slice of that list, so chunk bounds change no
        draw. A chunk evolves one column per setting through :meth:`_unitaries`
        and runs one trajectory column per shot that drew a hit. Each shot
        adds ``inverse_prefix.depth + k`` layers to the ledger.
        """
        self._check_circuit(inverse_prefix, k)
        prep, axes, counts = self._setting_codes(settings)
        rng = np.random.default_rng(rng)
        noise_rng = np.random.default_rng(int(rng.integers(2**63)))
        total = int(counts.sum())
        draws = np.empty(total, dtype=np.min_scalar_type((1 << self.n) - 1))
        u, prefix_u = self._unitaries(inverse_prefix, k)
        width = sum(len(block) for layer in self._hidden.layers[:k] for block in layer.blocks)
        hits, paulis = _hit_sites(noise_rng, total * width, self._noise.depolarizing_p)
        ends = np.cumsum(counts, dtype=np.min_scalar_type(total))
        a = lo = 0
        while a < len(counts):
            # at most CHUNK_SETTINGS settings and CHUNK_SHOTS shots, but never
            # less than one whole setting
            b = max(a + 1, int(np.searchsorted(ends, lo + CHUNK_SHOTS, side="right")))
            b = min(b, a + CHUNK_SETTINGS)
            hi = int(ends[b - 1])
            states = u @ product_states(prep[a:b])
            # np.repeat refuses uint64 counts, so the chunk's counts go to intp
            columns = np.repeat(np.arange(b - a), counts[a:b].astype(np.intp))
            chunk_axes = axes[a:b]
            i, j = np.searchsorted(hits, (lo * width, hi * width))
            if i < j:  # the chunk's hit shots run as trajectories
                states, columns, owners = self._trajectories(
                    states, columns, prep[a:b], hits[i:j] - lo * width, paulis[i:j], k, prefix_u
                )
                chunk_axes = chunk_axes[owners]
            draws[lo:hi] = _sample(rotate_to_z(states, chunk_axes), columns, rng.random(hi - lo))
            a, lo = b, hi
        self.ledger.add_shots(inverse_prefix.depth + k, len(draws))
        return draws

    def _trajectories(self, states, columns, prep, sites, paulis, k, prefix_u):
        """Add a trajectory column for each shot of a chunk that drew a hit.

        ``states`` holds the noiseless column of each of the chunk's settings,
        ``columns`` names each shot's setting and ``prep`` holds the settings'
        prep codes. The chunk's hits are at ``sites``, numbered as in
        :meth:`execute_settings` from the chunk's first shot, with Pauli codes
        ``paulis`` (1-3 for X, Y, Z). A hit shot's column starts as
        ``prefix_u`` times its product state; each gate of ``hidden[:k]`` is
        applied to every such column, each of the gate's sites' Paulis right
        after it to the hit columns.

        Returns ``(states, columns, owners)``: the settings' columns followed
        by the trajectory columns, the column each shot reads, and the setting
        each column belongs to.
        """
        gates = [
            (block, gate)
            for layer in self._hidden.layers[:k]
            for block, gate in zip(layer.blocks, layer.gates)
        ]
        shot, site = np.divmod(sites, sum(len(block) for block, _ in gates))
        hit_shots, hit_column = np.unique(shot, return_inverse=True)
        owners = np.concatenate((np.arange(states.shape[1]), columns[hit_shots]))
        columns[hit_shots] = np.arange(states.shape[1], len(owners))
        cols = prefix_u @ product_states(prep[owners[states.shape[1] :]])
        s = 0
        for block, gate in gates:
            cols = apply_unitary_array(cols, gate.matrix, block, self.n)
            for q in block:
                at = site == s
                if at.any():
                    hit = hit_column[at]
                    cols[:, hit] = _apply_per_column(cols[:, hit], _NOISE_PAULIS[paulis[at]], q)
                s += 1
        return np.hstack((states, cols)), columns, owners

    # -- infinite-shot oracle ----------------------------------------------------

    def ideal_choi_state(self, inverse_prefix: LayeredCircuit, k: int) -> StateVec:
        """Choi state of prefix-then-first-k-layers, noiselessly (2n qubits)."""
        self._check_circuit(inverse_prefix, k)
        return choi_state(self._unitaries(inverse_prefix, k)[0], self.n)


def _hit_sites(rng, grid: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The sites of ``0..grid-1`` that depolarizing noise hits, and each hit's Pauli.

    Every site is hit independently with probability p and every hit picks X,
    Y or Z uniformly. The hit sites are the running sums, minus one, of
    ``rng.geometric(p)`` gaps, drawn in blocks of ``int(m + 4 * sqrt(m)) + 16``
    gaps (m = grid * p) until a site lands at ``grid`` or beyond; then
    ``rng.integers(1, 4, size=hits, dtype=np.int8)`` picks each hit's Pauli
    code (1-3 for X, Y, Z). Returns the sorted sites, int32 when the grid is
    below 2^31 and int64 otherwise, and their int8 codes; nothing is drawn
    when p or the grid is 0.
    """
    dtype = np.int32 if grid < 2**31 else np.int64
    if p == 0.0 or grid == 0:
        return np.empty(0, dtype), np.empty(0, np.int8)
    mean = grid * p
    block = int(mean + 4 * math.sqrt(mean)) + 16
    parts, last = [], -1
    while last < grid:
        gaps = rng.geometric(p, size=block)
        np.cumsum(gaps, out=gaps)
        gaps += last
        last = int(gaps[-1])
        # cut at the grid before the cast, so no site wraps
        parts.append(gaps[: np.searchsorted(gaps, grid)].astype(dtype))
    sites = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return sites, rng.integers(1, 4, size=len(sites), dtype=np.int8)


def product_states(prep: np.ndarray) -> np.ndarray:
    """One product-state column per row of prep codes, qubits in ``np.kron`` order."""
    settings, n = prep.shape
    vecs = PREP_VECTORS.T[:, prep.T]
    psi = np.ones((1, settings), dtype=complex)
    for q in range(n):
        psi = (psi[:, None, :] * vecs[None, :, q, :]).reshape(2 << q, settings)
    return psi


def _apply_per_column(states: np.ndarray, mats: np.ndarray, q: int) -> np.ndarray:
    """Apply the 2x2 matrix ``mats[j]`` to qubit q of column j of ``states``."""
    dim, m = states.shape
    rot = mats.transpose(1, 2, 0)
    v = states.reshape(1 << q, 2, dim >> (q + 1), m)
    out = np.empty_like(v)
    for a in (0, 1):
        np.multiply(rot[a, 0], v[:, 0], out=out[:, a])
        out[:, a] += rot[a, 1] * v[:, 1]
    return out.reshape(dim, m)


def rotate_to_z(states: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Rotate column j of ``states`` so that qubit q's axis ``axes[j, q]`` becomes Z."""
    for q in range(axes.shape[1]):
        states = _apply_per_column(states, _READOUT[axes[:, q]], q)
    return states


def _sample(states: np.ndarray, columns: np.ndarray, u01: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome index of each shot; shot i reads column ``columns[i]``."""
    probs = np.abs(states) ** 2
    cdf = np.cumsum(probs / probs.sum(axis=0), axis=0)
    draws = np.zeros(len(u01), dtype=np.min_scalar_type(len(cdf) - 1))
    for edge in cdf[:-1]:  # a draw past every other edge is the last outcome
        draws += edge[columns] <= u01
    return draws
