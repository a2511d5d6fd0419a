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
the window wires (w1, w2, w1', w2'). The configurations of one class and block
layout go that path together, as one stack of line unitaries and one stack of
marginals. Raw configurations whose states coincide merge into one element.

The merged inventory is built once per gate set per process and shared:
:func:`enumerate_config_classes` hands out copies of it,
:func:`coefficient_table` lists each element's nonzero Pauli coefficients (the
form the strict-mode window decoder tests against), and
:func:`gate_set_resolution` reads the table's elements. The resolution is half
the minimum trace distance between distinct elements, which
:func:`closest_pair` finds exactly with a pruned search: half the Frobenius
norm of a difference is a lower bound on its trace distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DensityMatrix, pure_marginal_array, trace_distance_array
from .errors import DegenerateGateSet, EmptyGateSet
from .gates import GateSet
from .tomography import pauli_coefficients

MERGE_TOL = 1e-9
# pairs per stacked eigendecomposition in closest_pair: 32 differences of 4 kB each,
# so the gathered operands stay small next to the process's peak memory
_CHUNK = 32


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


def _apply_stacked(u: np.ndarray, gates: np.ndarray, block: tuple[int, ...], n: int) -> np.ndarray:
    """``gates[b]`` applied to ``block`` of the n-qubit operator ``u[b]``, for every b.

    The stacked form of ``core.apply_unitary_array`` on a (2^n, 2^n) operator:
    the same product of the gate with the block's axes moved to the front.
    """
    k = len(block)
    axes = [1 + q for q in block]
    psi = np.moveaxis(u.reshape(len(u), *[2] * n, -1), axes, range(1, 1 + k))
    out = (gates @ psi.reshape(len(u), 1 << k, -1)).reshape(psi.shape)
    return np.moveaxis(out, range(1, 1 + k), axes).reshape(u.shape)


def _window_states(line: int, keep: tuple[int, ...], configs) -> np.ndarray:
    """Window states of (blocks, gates, provenance) configurations on a ``line``-qubit line.

    Each configuration goes the path of ``circuits.layer_unitary``,
    ``circuits.choi_state`` and a pure marginal on the window wires ``keep``,
    as one stack per block layout.
    """
    dim = 1 << line
    out = np.empty((len(configs), 16, 16), dtype=complex)
    for blocks in dict.fromkeys(c[0] for c in configs):
        rows = [i for i, c in enumerate(configs) if c[0] == blocks]
        u = np.broadcast_to(np.eye(dim, dtype=complex), (len(rows), dim, dim))
        for p, block in enumerate(blocks):
            gates = np.stack([configs[i][1][p].matrix for i in rows])
            u = _apply_stacked(u, gates, block, line)
        amplitudes = u.reshape(len(rows), -1) * 2 ** (-line / 2)
        out[rows] = pure_marginal_array(amplitudes, list(keep), 2 * line)
    return out


def _raw_elements(gs: GateSet) -> tuple[list[Provenance], np.ndarray]:
    """Every configuration's provenance and its (16, 16) window state, in inventory order."""
    g1, g2 = gs.singles, gs.doubles
    c3_sides = (((1, 2), "w2 first"), ((2, 1), "w2 second"))
    c4_sides = (((0, 1), "w1 second"), ((1, 0), "w1 first"))
    classes = (
        (2, (0, 1, 2, 3), [
            (((0,), (1,)), (a, b), Provenance("C1", (a.name, b.name), f"{a.name} on w1, {b.name} on w2"))
            for a in g1 for b in g1
        ]),
        (2, (0, 1, 2, 3), [
            (((0, 1),), (g,), Provenance("C2", (g.name,), f"{g.name} on (w1, w2)")) for g in g2
        ]),
        (3, (0, 1, 3, 4), [
            (((0,), block), (a, g),
             Provenance("C3", (a.name,), f"{a.name} on w1, {g.name} off-window ({side})"))
            for a in g1 for g in g2 for block, side in c3_sides
        ]),
        (3, (1, 2, 4, 5), [
            ((block, (2,)), (g, a),
             Provenance("C4", (a.name,), f"{g.name} off-window ({side}), {a.name} on w2"))
            for a in g1 for g in g2 for block, side in c4_sides
        ]),
        (4, (1, 2, 5, 6), [
            ((block_a, block_b), (ga, gb),
             Provenance("C5", (), f"{ga.name} above on {block_a}, {gb.name} below on {block_b}"))
            for ga in g2 for gb in g2 for block_a in ((0, 1), (1, 0)) for block_b in ((2, 3), (3, 2))
        ]),
    )
    provenance = [c[2] for _, _, configs in classes for c in configs]
    states = [_window_states(line, keep, configs) for line, keep, configs in classes if configs]
    return provenance, np.concatenate(states)


def _half_frobenius(diffs: np.ndarray) -> np.ndarray:
    """Half the Frobenius norm of each matrix in a stack: a lower bound on its trace distance."""
    parts = diffs.view(float)
    return 0.5 * np.sqrt(np.einsum("ijk,ijk->i", parts, parts))


@lru_cache(maxsize=16)
def _inventory(gs: GateSet) -> tuple[ConfigElement, ...]:
    """The merged elements of ``gs``: built once per gate set per process."""
    if not gs.singles and not gs.doubles:
        raise EmptyGateSet("cannot enumerate an empty gate set")
    provenance, states = _raw_elements(gs)
    merged = np.empty_like(states)
    elements: list[ConfigElement] = []
    for prov, state in zip(provenance, states):
        near = np.flatnonzero(_half_frobenius(merged[: len(elements)] - state) < MERGE_TOL)
        home = next((i for i in near if trace_distance_array(merged[i], state) < MERGE_TOL), None)
        if home is None:
            merged[len(elements)] = state
            elements.append(ConfigElement(prov.class_id, [prov], DensityMatrix(4, state)))
        else:
            elements[home].provenance.append(prov)
    return tuple(elements)


def enumerate_config_classes(gs: GateSet) -> list[ConfigElement]:
    """All distinct window configurations, duplicates merged by closeness.

    Raw configurations are taken in class order C1-C5. Each one joins the
    first element already merged whose trace distance to it is below
    ``MERGE_TOL`` (its provenance is appended there), and otherwise starts a
    new element. Half the Frobenius norm bounds a trace distance from below,
    so only the elements it puts under ``MERGE_TOL`` get an eigendecomposition.
    The inventory is built once per gate set per process; each call returns
    fresh elements and provenance lists over the shared read-only states.
    """
    return [ConfigElement(e.class_id, list(e.provenance), e.state) for e in _inventory(gs)]


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
    elements = _inventory(gs)
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
    return CoefficientTable(elements, support.astype(float), index, value)


def gate_set_resolution(gs: GateSet) -> float:
    """Half the minimum pairwise trace distance between the elements of :func:`coefficient_table`.

    Returns ``inf`` for a single-element class inventory. Raises
    :class:`DegenerateGateSet` when two materially different configurations
    produce the same state (resolution would be zero).
    """
    elements = list(coefficient_table(gs).elements)
    if len(elements) < 2:
        return math.inf
    return 0.5 * closest_pair(elements)[2]


@lru_cache(maxsize=16)
def cached_resolution(gs: GateSet) -> float:
    """Memoized :func:`gate_set_resolution`.

    Gate sets are immutable, and the inventory behind the table is built once
    per gate set per process, so the first strict job after this call reuses it.
    """
    return gate_set_resolution(gs)


def closest_pair(elements: list[ConfigElement]) -> tuple[ConfigElement, ConfigElement, float]:
    """The two elements at the smallest trace distance, and that distance.

    Exact, with the first such pair in (i, j) order on a tie. Half the
    Frobenius norm of a difference bounds its trace distance from below, so
    the pair with the smallest bound gives an exact distance ``T0``, and only
    the pairs whose bound is at most ``T0`` get an eigendecomposition. The
    bounds are taken one row at a time, so the E(E-1)/2 differences are never
    held at once.
    """
    if len(elements) < 2:
        raise EmptyGateSet("need at least two elements")
    states = np.stack([e.state.entries for e in elements])
    bound = np.full((len(states), len(states)), np.inf)
    for i in range(len(states) - 1):
        bound[i, i + 1 :] = _half_frobenius(states[i + 1 :] - states[i])
    i0, j0 = np.unravel_index(np.argmin(bound), bound.shape)
    rows, cols = np.nonzero(bound <= trace_distance_array(states[i0], states[j0]))
    dist = np.empty(len(rows))
    for at in range(0, len(rows), _CHUNK):
        r, c = rows[at : at + _CHUNK], cols[at : at + _CHUNK]
        dist[at : at + _CHUNK] = 0.5 * np.abs(np.linalg.eigvalsh(states[r] - states[c])).sum(axis=1)
    best = int(np.argmin(dist))
    return elements[rows[best]], elements[cols[best]], float(dist[best])
