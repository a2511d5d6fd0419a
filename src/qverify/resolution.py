"""Pair-window configuration classes and the gate-set resolution.

For a pair of qubits (w1, w2) together with their Bell-paired ancillas
(w1', w2'), the reduced Choi state of one layer falls into one of five
structures, depending on where two-qubit gates sit relative to the window:

* C1 - both window qubits carry single-qubit gates;
* C2 - a two-qubit gate acts inside the window;
* C3 - w1 carries a single-qubit gate, w2 shares a two-qubit gate with a
  qubit outside the window;
* C4 - mirror image of C3 (w1 is the outside-entangled qubit);
* C5 - both window qubits are entangled with outside neighbours.

Every element is built by the same oracle-checkable path: embed the gates on a
2-, 3- or 4-qubit line, form the full Choi state, and partial-trace down to
the window wires (w1, w2, w1', w2'). The resolution is half the minimum trace
distance between distinct elements. :func:`coefficient_table` lists each
element's nonzero Pauli coefficients, the form the strict-mode window decoder
tests against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Layer, choi_state, layer_unitary
from .core import DensityMatrix, pure_marginal_array, trace_distance_array
from .errors import DegenerateGateSet, EmptyGateSet
from .gates import GateSet
from .tomography import pauli_coefficients

MERGE_TOL = 1e-9


@dataclass(frozen=True)
class Provenance:
    """Which configuration generated an element.

    ``key`` is the part that matching must be able to distinguish: the class
    plus the gates lying fully inside the window. Two raw elements whose keys
    differ may not collapse onto the same state.
    """

    class_id: str
    gates: tuple[str, ...]
    detail: str

    @property
    def key(self) -> tuple:
        return (self.class_id,) + self.gates


@dataclass
class ConfigElement:
    class_id: str
    provenance: list[Provenance]
    state: DensityMatrix

    @property
    def keys(self) -> set[tuple]:
        return {p.key for p in self.provenance}


def _window_state(blocks, gates, line_qubits: int, keep: tuple[int, ...]) -> DensityMatrix:
    layer = Layer(tuple(blocks), tuple(gates))
    u = layer_unitary(layer, line_qubits)
    omega = choi_state(u, line_qubits)
    keep_wires = sorted(keep)
    reduced = pure_marginal_array(omega.amplitudes, keep_wires, 2 * line_qubits)
    return DensityMatrix(len(keep_wires), reduced)


def _raw_elements(gs: GateSet) -> list[tuple[Provenance, DensityMatrix]]:
    g1, g2 = gs.singles, gs.doubles
    raw: list[tuple[Provenance, DensityMatrix]] = []
    for a in g1:
        for b in g1:
            state = _window_state([(0,), (1,)], [a, b], 2, (0, 1, 2, 3))
            raw.append((Provenance("C1", (a.name, b.name), f"{a.name} on w1, {b.name} on w2"), state))
    for g in g2:
        state = _window_state([(0, 1)], [g], 2, (0, 1, 2, 3))
        raw.append((Provenance("C2", (g.name,), f"{g.name} on (w1, w2)"), state))
    for a in g1:
        for g in g2:
            for block, side in (((1, 2), "w2 first"), ((2, 1), "w2 second")):
                state = _window_state([(0,), block], [a, g], 3, (0, 1, 3, 4))
                raw.append(
                    (Provenance("C3", (a.name,), f"{a.name} on w1, {g.name} off-window ({side})"), state)
                )
    for a in g1:
        for g in g2:
            for block, side in (((0, 1), "w1 second"), ((1, 0), "w1 first")):
                state = _window_state([block, (2,)], [g, a], 3, (1, 2, 4, 5))
                raw.append(
                    (Provenance("C4", (a.name,), f"{g.name} off-window ({side}), {a.name} on w2"), state)
                )
    for ga in g2:
        for gb in g2:
            for block_a in ((0, 1), (1, 0)):
                for block_b in ((2, 3), (3, 2)):
                    state = _window_state([block_a, block_b], [ga, gb], 4, (1, 2, 5, 6))
                    raw.append(
                        (
                            Provenance(
                                "C5",
                                (),
                                f"{ga.name} above on {block_a}, {gb.name} below on {block_b}",
                            ),
                            state,
                        )
                    )
    return raw


def enumerate_config_classes(gs: GateSet) -> list[ConfigElement]:
    """All distinct window configurations, duplicates merged by closeness."""
    if not gs.singles and not gs.doubles:
        raise EmptyGateSet("cannot enumerate an empty gate set")
    merged: list[ConfigElement] = []
    for prov, state in _raw_elements(gs):
        for elem in merged:
            # half the Frobenius norm bounds the trace distance from below, so
            # a pair it already puts at MERGE_TOL or beyond needs no eigvalsh
            if 0.5 * np.linalg.norm(elem.state.entries - state.entries) >= MERGE_TOL:
                continue
            if trace_distance_array(elem.state.entries, state.entries) < MERGE_TOL:
                elem.provenance.append(prov)
                break
        else:
            merged.append(ConfigElement(prov.class_id, [prov], state))
    return merged


def raw_class_counts(elements: list[ConfigElement]) -> dict[str, int]:
    """Raw configurations per class: every provenance the merged elements carry."""
    counts: dict[str, int] = {c: 0 for c in ("C1", "C2", "C3", "C4", "C5")}
    for elem in elements:
        for prov in elem.provenance:
            counts[prov.class_id] += 1
    return counts


def _check_distinct(elements: list[ConfigElement]) -> None:
    """Raise DegenerateGateSet if an element merged materially different configurations."""
    bad = [e for e in elements if len(e.keys) > 1]
    if bad:
        details = "; ".join(
            " == ".join(p.detail for p in e.provenance[:4]) for e in bad[:3]
        )
        raise DegenerateGateSet(f"indistinguishable configurations: {details}")


def gate_set_resolution(gs: GateSet, elements: list[ConfigElement] | None = None) -> float:
    """Half the minimum pairwise trace distance between distinct elements.

    Returns ``inf`` for a single-element class inventory. Raises
    :class:`DegenerateGateSet` when two materially different configurations
    produce the same state (resolution would be zero).
    """
    if elements is None:
        elements = enumerate_config_classes(gs)
    _check_distinct(elements)
    if len(elements) < 2:
        return math.inf
    return 0.5 * closest_pair(elements)[2]


@dataclass(frozen=True)
class CoefficientTable:
    """Each element's nonzero non-identity Pauli coefficients, for the window decoder.

    ``support`` is the (elements, 4^4) 0/1 matrix of those strings, in
    base-4 digit order. Row e of ``index`` lists their codes (1..255) and of
    ``value`` the coefficients; short rows are padded with code 0, the
    identity, and value 1, which a decoder gives an unbounded box.
    """

    elements: tuple[ConfigElement, ...]
    support: np.ndarray
    index: np.ndarray
    value: np.ndarray


@lru_cache(maxsize=16)
def coefficient_table(gs: GateSet) -> CoefficientTable:
    """The elements of ``gs`` and their coefficients; raises DegenerateGateSet."""
    elements = enumerate_config_classes(gs)
    _check_distinct(elements)
    coeffs = pauli_coefficients(np.stack([e.state.entries for e in elements]))
    support = np.abs(coeffs) > MERGE_TOL
    support[:, 0] = False
    width = max(1, support.sum(axis=1).max())
    index = np.zeros((len(elements), width), dtype=np.intp)
    value = np.ones((len(elements), width))
    for row, codes in enumerate(map(np.flatnonzero, support)):
        index[row, : len(codes)] = codes
        value[row, : len(codes)] = coeffs[row, codes]
    return CoefficientTable(tuple(elements), support.astype(float), index, value)


@lru_cache(maxsize=16)
def cached_resolution(gs: GateSet) -> float:
    """Memoized :func:`gate_set_resolution`; gate sets are immutable."""
    return gate_set_resolution(gs)


def closest_pair(elements: list[ConfigElement]) -> tuple[ConfigElement, ConfigElement, float]:
    if len(elements) < 2:
        raise EmptyGateSet("need at least two elements")
    best = (None, None, math.inf)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            d = trace_distance_array(elements[i].state.entries, elements[j].state.entries)
            if d < best[2]:
                best = (elements[i], elements[j], d)
    return best  # type: ignore[return-value]
