"""Layered circuit model, Choi-state construction, and circuit file I/O.

A layer is a partition of the qubit line into blocks of size one or two with a
gate of matching arity on each block. Circuit files are JSON::

    {
      "n": 2,
      "gate_set": {"singles": [{"name": ..., "matrix": [[re, im], ...]}, ...],
                   "doubles": [...]},
      "layers": [[{"gate": "H", "qubits": [0]}, {"gate": "H", "qubits": [1]}],
                 [{"gate": "CNOT", "qubits": [0, 1]}]],
      "groups": [[0, 1]]
    }

Matrices are row-major lists of [re, im] pairs. Gate names not defined in the
file's ``gate_set`` are resolved from the built-in table. ``groups`` is an
optional annotation tying consecutive strict layers into one reported round; a
file may carry ``slices`` instead of ``layers``, in which case each slice (a
run of single-qubit gates followed by optional two-qubit gates on the same
qubits) is split into strict layers on parse and the grouping recorded.
Optional top-level ``t`` and ``noise`` keys configure the simulated device;
:func:`parse_circuit_file` returns them with the circuit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import StateVec, apply_unitary_array
from .errors import (
    ArityMismatch,
    CircuitSyntaxError,
    EmptyGateSet,
    IndexOutOfRange,
    InvalidPartition,
    NonUnitary,
    UnknownGateName,
)
from .gates import BUILTIN_MATRICES, Gate, GateSet, builtin_gate, choi_distance


@dataclass(frozen=True)
class Layer:
    """One strict layer: disjoint blocks covering all qubits."""

    blocks: tuple[tuple[int, ...], ...]
    gates: tuple[Gate, ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(q) for q in b) for b in self.blocks)
        gates = tuple(self.gates)
        if len(blocks) != len(gates):
            raise InvalidPartition("one gate per block required")
        for b, g in zip(blocks, gates):
            if len(b) != g.arity:
                raise ArityMismatch(f"gate {g.name} (arity {g.arity}) on block {b}")
            if len(set(b)) != len(b):
                raise InvalidPartition(f"repeated qubit in block {b}")
        flat = [q for b in blocks for q in b]
        if len(set(flat)) != len(flat):
            raise InvalidPartition(f"blocks overlap: {blocks}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "gates", gates)

    def qubits(self) -> set[int]:
        return {q for b in self.blocks for q in b}

    def validate_for(self, n: int) -> None:
        qs = self.qubits()
        if any(q < 0 or q >= n for q in qs):
            raise IndexOutOfRange(f"layer touches qubits outside [0, {n})")
        if qs != set(range(n)):
            raise InvalidPartition(
                f"layer covers {sorted(qs)} but the line has {n} qubits"
            )

    def dagger(self) -> "Layer":
        return Layer(self.blocks, tuple(g.dagger() for g in self.gates))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layer):
            return NotImplemented
        mine = {b: g for b, g in zip(self.blocks, self.gates)}
        theirs = {b: g for b, g in zip(other.blocks, other.gates)}
        return mine == theirs

    def __hash__(self):
        return hash(self.blocks)


@dataclass(frozen=True)
class LayeredCircuit:
    """n qubits and an ordered list of strict layers (layer 0 acts first)."""

    n: int
    layers: tuple[Layer, ...]
    groups: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        layers = tuple(self.layers)
        for layer in layers:
            layer.validate_for(self.n)
        groups = tuple(tuple(g) for g in self.groups)
        if groups:
            flat = [i for g in groups for i in g]
            if sorted(flat) != list(range(len(layers))):
                raise InvalidPartition("groups must partition the layer indices")
        else:
            groups = tuple((i,) for i in range(len(layers)))
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "groups", groups)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def inverse(self) -> "LayeredCircuit":
        """Layers reversed and daggered: the exact inverse circuit."""
        inv = tuple(layer.dagger() for layer in reversed(self.layers))
        return LayeredCircuit(self.n, inv)


def identity_circuit(n: int) -> LayeredCircuit:
    return LayeredCircuit(n, ())


# -- unitaries ------------------------------------------------------------------


def layer_unitary(layer: Layer, n: int) -> np.ndarray:
    """Tensor-product unitary of one layer embedded on n qubits."""
    layer.validate_for(n)
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for block, gate in zip(layer.blocks, layer.gates):
        u = apply_unitary_array(u, gate.matrix, block, n)
    return u


def compose_unitary(circuit: LayeredCircuit, upto: int | None = None) -> np.ndarray:
    """Product of the first ``upto`` layers (layer 0 applied first)."""
    if upto is None:
        upto = circuit.depth
    if upto < 0 or upto > circuit.depth:
        raise IndexOutOfRange(f"upto={upto} outside [0, {circuit.depth}]")
    dim = 1 << circuit.n
    u = np.eye(dim, dtype=complex)
    for layer in circuit.layers[:upto]:
        u = layer_unitary(layer, circuit.n) @ u
    return u


def choi_state(u: np.ndarray, n: int) -> StateVec:
    """(u x I) on n Bell pairs, wire i paired with i+n: the entries of u / 2^(n/2)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (1 << n, 1 << n):
        raise NonUnitary(f"matrix shape {u.shape} does not act on {n} qubits")
    return StateVec(2 * n, u.reshape(-1) * 2 ** (-n / 2))


# -- file I/O -------------------------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _matrix_from_json(data, where: str) -> np.ndarray:
    try:
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError) as exc:
        raise CircuitSyntaxError(f"bad matrix entries: {exc}", where)
    dim = int(round(np.sqrt(flat.shape[0])))
    if dim * dim != flat.shape[0] or dim not in (2, 4):
        raise CircuitSyntaxError(f"matrix has {flat.shape[0]} entries", where)
    return flat.reshape(dim, dim)


def _shaped(value, kind: type, where: str):
    """``value`` if it is a JSON object (dict) or array (list), else CircuitSyntaxError."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise CircuitSyntaxError(f"expected {expected}, got {json.dumps(value)[:60]}", where)
    return value


def _integer(value, where: str) -> int:
    """An integer or a string of one; a fractional number is refused, not truncated."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (number != value and not isinstance(value, str)):
        raise CircuitSyntaxError(f"expected an integer, got {json.dumps(value)[:60]}", where)
    return number


def _gate_lookup(spec_sets, where: str) -> dict[str, Gate]:
    _shaped(spec_sets, dict, where)
    table: dict[str, Gate] = {}
    for kind, arity in (("singles", 1), ("doubles", 2)):
        for idx, entry in enumerate(_shaped(spec_sets.get(kind, []), list, f"{where}.{kind}")):
            loc = f"{where}.{kind}[{idx}]"
            name = _shaped(entry, dict, loc).get("name")
            if not isinstance(name, str):
                raise CircuitSyntaxError("gate entry without a name", loc)
            if name in table:
                raise CircuitSyntaxError(f"duplicate gate name {name!r}", loc)
            if "matrix" in entry:
                m = _matrix_from_json(entry["matrix"], loc)
                gate = Gate(name, arity, m)
            else:
                gate = builtin_gate(name)
                if gate.arity != arity:
                    raise ArityMismatch(f"{name} listed under {kind}")
            table[name] = gate
    return table


def parse_gate_set(text: str) -> GateSet:
    """Parse a gate-set file: an object with ``singles`` and ``doubles`` arrays."""
    table = _gate_lookup(_load_json(text), "gate_set")
    singles = tuple(g for g in table.values() if g.arity == 1)
    doubles = tuple(g for g in table.values() if g.arity == 2)
    return GateSet(singles=singles, doubles=doubles)


def _resolve_gate(name: str, table: dict[str, Gate]) -> Gate:
    if name in table:
        return table[name]
    if name in BUILTIN_MATRICES:
        return builtin_gate(name)
    raise UnknownGateName(f"gate {name!r} is neither in the file nor built in")


def _entry_to_block(entry, table: dict[str, Gate], n: int, where: str):
    if not isinstance(entry, dict) or not isinstance(entry.get("gate"), str):
        raise CircuitSyntaxError("expected {'gate': ..., 'qubits': [...]}", where)
    gate = _resolve_gate(entry["gate"], table)
    qubits = tuple(_integer(q, where) for q in _shaped(entry.get("qubits"), list, where))
    if any(q < 0 or q >= n for q in qubits):
        raise IndexOutOfRange(f"{where}: qubits {qubits} out of range for n={n}")
    if len(qubits) != gate.arity:
        raise ArityMismatch(f"{where}: gate {gate.name} on {len(qubits)} qubits")
    return qubits, gate


def _padded_layer(blocks, gates, n: int, table: dict[str, Gate], where: str) -> Layer:
    """The layer of ``blocks`` and ``gates``, with the identity on every idle qubit."""
    covered = {q for b in blocks for q in b}
    missing = [q for q in range(n) if q not in covered]
    if missing:
        try:
            ident = _resolve_gate("I", table)
        except UnknownGateName:
            raise InvalidPartition(
                f"{where}: qubits {missing} idle but the gate set has no identity"
            )
        blocks = list(blocks) + [(q,) for q in missing]
        gates = list(gates) + [ident] * len(missing)
    return Layer(tuple(blocks), tuple(gates))


def _parse_strict_layer(entries, table, n, where) -> Layer:
    blocks, gates = [], []
    for idx, entry in enumerate(_shaped(entries, list, where)):
        b, g = _entry_to_block(entry, table, n, f"{where}[{idx}]")
        blocks.append(b)
        gates.append(g)
    flat = [q for b in blocks for q in b]
    if len(set(flat)) != len(flat):
        raise InvalidPartition(f"{where}: blocks overlap")
    return _padded_layer(blocks, gates, n, table, where)


def normalize_slice(apps, table, n, where) -> list[Layer]:
    """Split one experiment round into strict layers.

    Single-qubit gates (in program order, possibly several per qubit) come
    first and are packed greedily into full rounds; the two-qubit gates follow
    as one round. A slice without two-qubit gates still emits an identity
    round in their place, keeping every round's two-qubit slot explicit.
    """
    if not _shaped(apps, list, where):
        raise CircuitSyntaxError("empty slice", where)
    single_rounds: list[dict[int, Gate]] = []
    double_blocks: list[tuple[tuple[int, ...], Gate]] = []
    for idx, entry in enumerate(apps):
        b, g = _entry_to_block(entry, table, n, f"{where}[{idx}]")
        if g.arity == 1:
            if double_blocks:
                raise InvalidPartition(
                    f"{where}: single-qubit gate after a two-qubit gate in one slice"
                )
            if not single_rounds or b[0] in single_rounds[-1]:
                single_rounds.append({})
            single_rounds[-1][b[0]] = g
        else:
            double_blocks.append((b, g))
    layers = [
        _padded_layer([(q,) for q in rnd], list(rnd.values()), n, table, where)
        for rnd in single_rounds
    ]
    used: set[int] = set()
    for b, _ in double_blocks:
        if used & set(b):
            raise InvalidPartition(f"{where}: two-qubit gates overlap")
        used |= set(b)
    blocks, gates = [b for b, _ in double_blocks], [g for _, g in double_blocks]
    layers.append(_padded_layer(blocks, gates, n, table, where))
    return layers


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitSyntaxError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from None


def parse_circuit_file(text: str) -> tuple[LayeredCircuit, Fraction, float]:
    """Parse circuit JSON plus its optional device keys.

    Returns the circuit (slices normalized into strict layers), the file's
    ``t`` (default 1) and its ``noise.depolarizing_p`` (default 0). A value of
    the wrong JSON shape raises CircuitSyntaxError.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict) or "n" not in doc:
        raise CircuitSyntaxError("top level must be an object with 'n'")
    n = _integer(doc["n"], "n")
    if n < 1:
        raise CircuitSyntaxError(f"n={n} must be positive")
    table = _gate_lookup(doc.get("gate_set", {}), "gate_set")
    layers: list[Layer] = []
    groups: list[tuple[int, ...]] = []
    if "slices" in doc:
        for s_idx, apps in enumerate(_shaped(doc["slices"], list, "slices")):
            start = len(layers)
            layers.extend(normalize_slice(apps, table, n, f"slices[{s_idx}]"))
            groups.append(tuple(range(start, len(layers))))
    elif "layers" in doc:
        for l_idx, entries in enumerate(_shaped(doc["layers"], list, "layers")):
            layers.append(_parse_strict_layer(entries, table, n, f"layers[{l_idx}]"))
        # no groups: LayeredCircuit puts each layer in its own
        groups = [
            tuple(_integer(i, "groups") for i in _shaped(g, list, "groups"))
            for g in _shaped(doc.get("groups", []), list, "groups")
        ]
    else:
        raise CircuitSyntaxError("circuit needs 'layers' or 'slices'")
    try:
        t = Fraction(str(doc.get("t", 1)))
    except (ValueError, ZeroDivisionError):
        raise CircuitSyntaxError(f"expected a number, got {doc['t']!r}", "t") from None
    p = _shaped(doc.get("noise", {}), dict, "noise").get("depolarizing_p", 0.0)
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise CircuitSyntaxError(f"expected a number, got {p!r}", "noise") from None
    return LayeredCircuit(n, tuple(layers), tuple(groups)), t, p


def parse_circuit(text: str) -> LayeredCircuit:
    """Parse circuit JSON; slices are normalized into strict layers."""
    return parse_circuit_file(text)[0]


def emit_circuit(circuit: LayeredCircuit) -> str:
    """Serialize in normalized form (strict layers plus groups)."""
    named: dict[str, Gate] = {}
    for layer in circuit.layers:
        for gate in layer.gates:
            builtin = gate.name in BUILTIN_MATRICES and np.allclose(
                gate.matrix, BUILTIN_MATRICES[gate.name], atol=1e-12
            )
            if not builtin:
                named[gate.name] = gate
    gate_set = {"singles": [], "doubles": []}
    for gate in named.values():
        kind = "singles" if gate.arity == 1 else "doubles"
        gate_set[kind].append(
            {"name": gate.name, "matrix": _matrix_to_json(gate.matrix)}
        )
    doc = {
        "n": circuit.n,
        "gate_set": gate_set,
        "layers": [
            [
                {"gate": g.name, "qubits": list(b)}
                for b, g in zip(layer.blocks, layer.gates)
            ]
            for layer in circuit.layers
        ],
        "groups": [list(g) for g in circuit.groups],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


# -- random circuits --------------------------------------------------------------


def random_layer(n: int, gate_set: GateSet, rng) -> Layer:
    """Random strict layer: random matching into pairs, random gates."""
    if n and not gate_set.singles:  # an unpaired qubit needs a single-qubit gate
        raise EmptyGateSet("random layers need at least one single-qubit gate")
    rng = np.random.default_rng(rng)
    order = list(rng.permutation(n))
    blocks: list[tuple[int, ...]] = []
    gates: list[Gate] = []
    while order:
        if gate_set.doubles and len(order) >= 2 and rng.random() < 0.5:
            a, b = order.pop(), order.pop()
            block = (a, b) if a < b else (b, a)
            gate = gate_set.doubles[rng.integers(len(gate_set.doubles))]
            blocks.append(block)
            gates.append(gate)
        else:
            q = order.pop()
            blocks.append((q,))
            gates.append(gate_set.singles[rng.integers(len(gate_set.singles))])
    return Layer(tuple(blocks), tuple(gates))


def random_circuit(n: int, d: int, gate_set: GateSet, rng) -> LayeredCircuit:
    rng = np.random.default_rng(rng)
    return LayeredCircuit(n, tuple(random_layer(n, gate_set, rng) for _ in range(d)))


def same_circuit(a: LayeredCircuit, b: LayeredCircuit) -> bool:
    """Layerwise equality of the applied operations, phase-blind.

    Blocks are compared in ascending qubit order (a directed gate written on a
    descending block equals its reversed instance on the ascending block).
    """
    if a.n != b.n or a.depth != b.depth:
        return False
    for la, lb in zip(a.layers, b.layers):
        ca, cb = _canonical_blocks(la), _canonical_blocks(lb)
        if set(ca) != set(cb):
            return False
        for block, ga in ca.items():
            if choi_distance(ga, cb[block]) > 1e-9:
                return False
    return True


def _canonical_blocks(layer: Layer) -> dict[tuple[int, ...], np.ndarray]:
    out = {}
    for b, g in zip(layer.blocks, layer.gates):
        if len(b) == 2 and b[0] > b[1]:
            out[(b[1], b[0])] = g.reversed().matrix
        else:
            out[tuple(b)] = g.matrix
    return out
