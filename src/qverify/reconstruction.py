"""Layer-by-layer reconstruction of a hidden circuit through the device API.

Every mode learns each layer the same way: records of pseudo-measurement
shots feed overlapping tomography of all pair windows, and each window is
decoded against the gate set's configuration elements. Every Pauli
coefficient gets a Hoeffding box from its compatible-shot count, and a window
is certified when its boxes admit exactly one element, up to one contraction
in [0.3, 1] that absorbs depolarizing noise. The certified elements settle
every qubit once, as a local gate or as half of an in-window two-qubit gate;
with probability at least 1 - delta every box holds the truth, so a returned
layer is right; at any shot count, too few shots make a layer decline, never
come back wrong.

The modes differ only in where the records come from. In strict mode every
shot prepares a pseudo-measurement product state (classically sampled
ancilla basis and outcomes), runs the learned-inverse prefix plus the hidden
circuit up to the target layer, and measures a uniformly random Pauli basis.
Hardware mode runs the nine dedicated settings of the two-qubit experiment,
one principal axis and one ancilla axis on every qubit at once, with
``shots`` shots each, all nine in one device call per layer; a window's
strings with two different principal axes, or two different ancilla axes,
are never measured, so those boxes stay unbounded. strict-exact reads the
infinite-shot oracle's windows with zero-width boxes. :func:`match_two_qubit`,
the older trace-distance rule within a tolerance ``eps``, is kept as a library
function; no learning mode calls it.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .circuits import Layer, LayeredCircuit, choi_state, emit_circuit
from .core import (
    AXES,
    DensityMatrix,
    PauliBasis,
    partial_trace_array,
    pure_marginal_array,
    relative_fidelity_array,
    trace_distance_array,
)
from .device import PREP_SEQUENCES, PREP_VECTORS, Device, TimeLedger, settings_table
from .device import product_states, rotate_to_z
from .errors import (
    AmbiguousMatch,
    EmptyGateSet,
    InvalidParameter,
    NoMatch,
    OverlappingAssignment,
    ReconstructionError,
    TieWarning,
)
from .gates import Gate, GateSet, gates_equivalent
from .rng import stream
from .resolution import MERGE_TOL, CoefficientTable, Provenance, coefficient_table
# perfbench/spans.py wraps reconstruction.cached_resolution by this name
from .resolution import cached_resolution  # noqa: F401
from .tomography import RecordSet, RdmEstimate, estimate_window, pair_windows, pauli_coefficients
# perfbench/spans.py wraps reconstruction.project_to_physical by this name
from .tomography import project_to_physical  # noqa: F401

# A register purity below this marks an entangling gate (hardware mode's
# cnot_detected diagnostic and the continuous-gate noise sweep).
PURITY_THRESHOLD = 0.75

# learn_multi's modes, in the order its refusal names them
MODES = ("strict", "strict-exact", "hardware")


# -- pseudo-measurement preparation ------------------------------------------------


def prep_gate_names(axis: str, outcome: int) -> tuple[str, ...]:
    """Gates (in X, H, S order) preparing the conjugated post-measurement state.

    Measuring one half of a Bell pair along ``axis`` with result ``outcome``
    collapses the other half onto the complex conjugate of the eigenstate; the
    returned sequence builds exactly that state from |0>.
    """
    b_x = (axis == "Y" and outcome == 1) or (axis != "Y" and outcome == -1)
    b_h = axis != "Z"
    b_s = axis == "Y"
    names = []
    if b_x:
        names.append("X")
    if b_h:
        names.append("H")
    if b_s:
        names.append("S")
    return tuple(names)


# One qubit's preparation code (a row of PREP_SEQUENCES), indexed by
# 2 * ancilla axis code + outcome bit (bit 0 is the +1 outcome).
_ANCILLA_PREP = np.array(
    [PREP_SEQUENCES.index(prep_gate_names(a, 1 - 2 * bit)) for a in AXES for bit in (0, 1)],
    dtype=np.int8,
)


def prep_state(axis: str, outcome: int) -> np.ndarray:
    """Single-qubit state produced by :func:`prep_gate_names` on |0>."""
    return PREP_VECTORS[_ANCILLA_PREP[2 * AXES.index(axis) + (outcome == -1)]].copy()


def exact_pseudo_joint(
    u: np.ndarray, principal: PauliBasis, ancilla: PauliBasis
) -> dict[tuple, float]:
    """Exact joint (X_P, X_A) distribution of the ancilla-free protocol.

    X_A is uniform; the principal register starts in the matching product
    state, runs through ``u`` and is measured in ``principal``. All 2^n
    ancilla outcomes are evolved and rotated together, one column each.
    """
    n = len(ancilla)
    outcomes = list(product((1, -1), repeat=n))  # qubit 0 most significant
    bits = (np.array(outcomes) == -1).reshape(-1, n)
    anc_axes = np.array([AXES.index(a) for a in ancilla.axes])
    pri_axes = np.array([AXES.index(a) for a in principal.axes])
    phi = u @ product_states(_ANCILLA_PREP[2 * anc_axes + bits])
    probs = np.abs(rotate_to_z(phi, np.broadcast_to(pri_axes, bits.shape))) ** 2
    p_xa = 2.0**-n
    return {
        (xp, xa): p_xa * float(p)
        for xa, column in zip(outcomes, probs.T.tolist())
        for xp, p in zip(outcomes, column)
    }


# -- gate matching ------------------------------------------------------------------


@lru_cache(maxsize=32)
def _candidates(gates: tuple[Gate, ...], arity: int) -> tuple[tuple[Gate, np.ndarray], ...]:
    """Choi matrices for each gate, phase-equivalent duplicates removed."""
    out: list[tuple[Gate, np.ndarray]] = []
    for g in gates:
        if any(gates_equivalent(g, kept) for kept, _ in out):
            continue
        omega = choi_state(g.matrix, arity).amplitudes
        out.append((g, np.outer(omega, omega.conj())))
    return tuple(out)


def _distances(est: np.ndarray, gates, arity: int) -> list[tuple[str, float]]:
    """(name, trace distance) of each candidate's Choi state from ``est``, nearest first."""
    candidates = _candidates(tuple(gates), arity)
    nearest = [(g.name, trace_distance_array(est, choi)) for g, choi in candidates]
    return sorted(nearest, key=lambda pair: pair[1])


def _match(est: np.ndarray, gates, arity: int, eps: float):
    nearest = _distances(est, gates, arity)
    by_name = {g.name: g for g in gates}
    hits = [(by_name[name], d) for name, d in nearest if d < eps]
    if len(hits) > 1:
        listing = ", ".join(f"{g.name} at {d:.4f}" for g, d in hits)
        raise AmbiguousMatch(
            f"{len(hits)} gates within eps={eps}: {listing} "
            "(tolerance exceeds the gate-set resolution, or the data is corrupted)"
        )
    return (hits[0] if hits else None), nearest


def match_two_qubit(est: DensityMatrix, g2, eps: float):
    """The unique two-qubit gate within eps in trace distance, or None."""
    if not g2:
        return None
    hit, _ = _match(est.entries, g2, 2, eps)
    return hit


# -- diagnostics containers ---------------------------------------------------------


@dataclass
class LayerReport:
    index: int
    structure: tuple[tuple[int, ...], ...]
    gates: tuple[str, ...]
    distances: dict[str, float] = field(default_factory=dict)
    purities: dict[str, float] = field(default_factory=dict)
    purities_theory: dict[str, float] = field(default_factory=dict)
    fidelities: dict[str, float] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    cnot_detected: bool | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "layer": self.index,
            "structure": [list(b) for b in self.structure],
            "gates": list(self.gates),
            "distances": self.distances,
            "purities": self.purities,
            "purities_theory": self.purities_theory,
            "relative_fidelities": self.fidelities,
            "residuals": self.residuals,
            "cnot_detected": self.cnot_detected,
            "warnings": self.warnings,
        }


@dataclass
class ReconstructionReport:
    circuit: LayeredCircuit
    per_layer: list[LayerReport]
    ledger: TimeLedger
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "circuit": json.loads(emit_circuit(self.circuit)),
            "per_layer": [rep.to_dict() for rep in self.per_layer],
            "warnings": self.warnings,
            "ledger": {
                "total_time_units": self.ledger.layer_count,
                "t": str(self.ledger.t),
                "rendered": self.ledger.render(),
            },
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    def to_csv(self, groups: tuple[tuple[int, ...], ...]) -> str:
        """``report.csv`` (schema v1): one row per layer and register.

        ``groups``, the hidden circuit's grouping of layer indices, labels the
        rows; every mode learns one layer per hidden layer, so it covers them.
        """
        group_of = {i + 1: g for g, members in enumerate(groups) for i in members}
        lines = [
            "layer,group,register,gates,purity,purity_theory,relative_fidelity,distance,residual"
        ]
        for rep in self.per_layer:
            head = [str(rep.index), str(group_of[rep.index])]
            for reg in sorted(rep.purities):
                values = [rep.purities[reg], rep.purities_theory[reg]] + [
                    table.get(reg, float("nan"))
                    for table in (rep.fidelities, rep.distances, rep.residuals)
                ]
                row = head + [reg, ";".join(rep.gates)] + [format_float(v) for v in values]
                lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def format_float(x: float) -> str:
    """Twelve significant digits: the number format of every CSV the package writes."""
    return f"{x:.12g}"


# -- strict single-layer learning ----------------------------------------------------


def _index_bits(indices: np.ndarray, n: int) -> np.ndarray:
    """(len(indices), n) 0/1 matrix of packed indices, qubit 0 most significant."""
    bits = np.empty((len(indices), n), dtype=np.int8)
    for q in range(n):
        bits[:, q] = (indices >> (n - 1 - q)) & 1
    return bits


def _run_settings(device: Device, k: int, prefix: LayeredCircuit, rows, counts, rng):
    """Run ``counts[i]`` shots of the setting whose record digits are row i of ``rows``.

    Rows are as :meth:`RecordSet.from_settings` takes them: n principal
    digits ``2 * axis``, then n ancilla digits ``2 * axis + bit``. Returns the
    device's outcome indices, grouped by setting in row order.
    """
    n = device.n
    settings = settings_table(_ANCILLA_PREP[rows[:, n:]], rows[:, :n] >> 1, counts)
    return device.execute_settings(prefix, k, settings, rng)


def _shot_record_set(
    device: Device, k: int, prefix: LayeredCircuit, shots: int, rng
) -> RecordSet:
    """Run ``shots`` pseudo-measurement shots with uniformly random settings.

    Draw order (fixed for reproducibility): one setting code per shot, as one
    ``integers`` draw below 18^n, then the measurement randomness inside the
    device batch. A code holds one base-18 digit per qubit, qubit 0 most
    significant, and a qubit's digit is 6 * ancilla axis + 3 * ancilla bit +
    principal axis. Shots sharing a setting are executed together; record
    order groups them, which no estimator depends on.
    """
    n = device.n
    rng = np.random.default_rng(rng)
    # only the distinct codes and their counts outlive the draw
    code, counts = np.unique(
        rng.integers(0, 18**n, size=shots, dtype=np.min_scalar_type(18**n - 1)),
        return_counts=True,
    )
    # the smallest unsigned type, but at least 32 bits: shots added up over a
    # run's calls as scalars of the field's own type must not wrap
    counts = counts.astype(np.promote_types(np.min_scalar_type(shots), np.uint32))
    rows = np.empty((len(code), 2 * n), dtype=np.int8)
    for w in reversed(range(n)):
        code, digit = np.divmod(code, 18)
        rows[:, w], rows[:, n + w] = 2 * (digit % 3), digit // 3
    del code, digit  # the per-setting decode arrays are not kept during the device call
    outcomes = _run_settings(device, k, prefix, rows, counts, rng)
    return RecordSet.from_settings(n, rows, counts, outcomes)


def _dedicated_record_set(
    device: Device, k: int, prefix: LayeredCircuit, shots_per_setting: int, rng
) -> RecordSet:
    """One tomography round with the nine dedicated (principal, ancilla) settings.

    Rounds run in (principal axis, ancilla axis) order, both over X, Y, Z.
    Draw order: every round's ancilla outcome bits at once, as one int8
    ``(9, shots_per_setting, n)`` draw, then the measurement randomness of one
    device call that runs all nine rounds. Shots of a round sharing ancilla
    bits are executed together; rows run round by round, ascending in the
    ancilla bits (qubit 0 most significant).
    """
    n = device.n
    rng = np.random.default_rng(rng)
    weights = 1 << np.arange(n - 1, -1, -1)
    # the bits are binned and dropped before the device call
    count = np.array([
        np.bincount(bits @ weights, minlength=1 << n)
        for bits in rng.integers(0, 2, size=(9, shots_per_setting, n), dtype=np.int8)
    ])
    rounds, present = np.nonzero(count)
    p_ax, a_ax = np.divmod(rounds, 3)
    rows = np.empty((len(rounds), 2 * n), dtype=np.int8)
    rows[:, :n] = 2 * p_ax[:, None]
    rows[:, n:] = 2 * a_ax[:, None] + _index_bits(present, n)
    counts = count[rounds, present]
    outcomes = _run_settings(device, k, prefix, rows, counts, rng)
    return RecordSet.from_settings(n, rows, counts, outcomes)


def _window_estimates(
    device: Device, k: int, prefix: LayeredCircuit, shots: int, rng, mode: str
) -> list[RdmEstimate]:
    """Pair-window estimates at ``k`` from ``mode``'s records, or exact in strict-exact."""
    n = device.n
    windows = pair_windows(n)
    if mode == "strict-exact":
        omega = device.ideal_choi_state(prefix, k).amplitudes
        rhos = np.stack([pure_marginal_array(omega, list(subset), 2 * n) for subset in windows])
        return [
            RdmEstimate(subset, DensityMatrix(4, rho), coeffs)
            for subset, rho, coeffs in zip(windows, rhos, pauli_coefficients(rhos))
        ]
    if mode == "strict":
        rs = _shot_record_set(device, k, prefix, shots, rng)
    else:
        rs = _dedicated_record_set(device, k, prefix, shots, rng)
    return [estimate_window(rs, subset) for subset in windows]


def _register_marginal(window: np.ndarray, position: int) -> np.ndarray:
    """(q, q') marginal of a pair-window matrix; position 0 keeps (i, i')."""
    keep = [0, 2] if position == 0 else [1, 3]
    return partial_trace_array(window, keep, 4)


# -- certified window decoding ---------------------------------------------------------

# The smallest contraction of an element's non-identity coefficients that a
# box may admit: a depolarized window is about lambda * element, lambda < 1.
MIN_CONTRACTION = 0.3

# Rounding allowance of the lambda-interval test: on its box corners an
# estimate admits a single lambda, and rounding can put low a few ulps above
# high. It only adds admissions, so a wrong element can be the only one
# admitted only if the truth's own boxes already failed.
INTERVAL_SLACK = 1e-12


def _boxes(estimates: list[RdmEstimate], log_term: float) -> tuple[np.ndarray, np.ndarray]:
    """(windows, 4^m) coefficients and Hoeffding half-widths ``sqrt(2 * log_term / count)``.

    A string with no compatible shot is unbounded; exact estimates get zero
    width, floored at MERGE_TOL like the element merge. The identity column
    is set to 0 with an unbounded box: every element's identity coefficient
    is 1, and that column pads the coefficient table.
    """
    c = np.stack([est.coefficients for est in estimates])
    if estimates[0].counts is None:
        h = np.full(c.shape, MERGE_TOL)
    else:
        with np.errstate(divide="ignore"):
            h = np.sqrt(2.0 * log_term / np.stack([est.counts for est in estimates]))
    c[:, 0], h[:, 0] = 0.0, np.inf
    return c, h


def _admitted(c: np.ndarray, h: np.ndarray, table: CoefficientTable) -> np.ndarray:
    """(windows, elements) mask: which elements each window's box admits.

    Element e is admitted when one lambda in [MIN_CONTRACTION, 1] puts every
    coefficient c_P within h_P of lambda * e_P. A string where e_P = 0 needs
    |c_P| <= h_P, so every string whose box excludes 0 must lie in e's
    support; this is tested first, as one product with the support matrix.
    Each nonzero e_P then bounds lambda to an interval, and the intervals
    must meet; only the pairs that passed the first test are read.
    """
    outside = (np.abs(c) > h).astype(float)
    admitted = outside @ table.support.T == outside.sum(axis=1, keepdims=True)
    w, e = np.nonzero(admitted)
    rows, index, value = w[:, None], table.index[e], table.value[e]
    ratio, slack = c[rows, index] / value, h[rows, index] / np.abs(value)
    low = np.maximum((ratio - slack).max(axis=1, initial=-np.inf), MIN_CONTRACTION)
    high = np.minimum((ratio + slack).min(axis=1, initial=np.inf), 1.0)
    admitted[w, e] = low <= high + INTERVAL_SLACK
    return admitted


def _claims(prov: Provenance, i: int, j: int) -> tuple[tuple, tuple]:
    """What a certified element says of w1 = i and w2 = j.

    A claim is ``(block, gate name)``, or ``(None, window)`` for a qubit paired
    with a qubit outside the window.
    """
    outside = (None, (i, j))
    if prov.class_id == "C1":
        return ((i,), prov.gates[0]), ((j,), prov.gates[1])
    if prov.class_id == "C2":
        return ((i, j), prov.gates[0]), ((i, j), prov.gates[0])
    if prov.class_id == "C3":
        return ((i,), prov.gates[0]), outside
    if prov.class_id == "C4":
        return outside, ((j,), prov.gates[0])
    return outside, outside


def _agree(a: tuple, b: tuple) -> bool:
    """Two claims on one qubit can both hold."""
    if a[0] is None and b[0] is None:
        return True
    if a[0] is None or b[0] is None:
        block = a[0] or b[0]
        window = b[1] if a[0] else a[1]
        return len(block) == 2 and block != window
    return a == b


def _decode_windows(
    estimates: list[RdmEstimate], gs: GateSet, n: int, log_term: float
) -> dict[tuple[int, ...], Gate]:
    """Certify each window, settle every qubit once, and return the gates by block.

    A window is certified when its box admits exactly one element of
    :func:`coefficient_table`. Its provenance settles both window qubits; a
    claim that contradicts another window's raises OverlappingAssignment, and
    a qubit no certified window settles raises NoMatch.
    """
    table = coefficient_table(gs)
    admitted = _admitted(*_boxes(estimates, log_term), table)
    by_name = {g.name: g for g in gs.singles + gs.doubles}
    claims: dict[int, list[tuple[tuple, tuple[int, int]]]] = {q: [] for q in range(n)}
    chosen: dict[tuple[int, ...], Gate] = {}
    for est, row in zip(estimates, admitted):
        hits = np.flatnonzero(row)
        if len(hits) != 1:
            continue
        i, j = est.subset[:2]
        for q, claim in zip((i, j), _claims(table.elements[hits[0]].provenance[0], i, j)):
            for other, window in claims[q]:
                if not _agree(claim, other):
                    raise OverlappingAssignment(
                        f"qubit {q} claimed by windows {window} and {(i, j)}"
                    )
            claims[q].append((claim, (i, j)))
            block, name = claim
            if block is not None:
                chosen[block] = by_name[name]
    for q in range(n):
        if all(block is None for (block, _), _ in claims[q]):
            raise _unsettled(q, estimates, admitted, table, gs)
    return chosen


def _unsettled(q: int, estimates, admitted, table: CoefficientTable, gs: GateSet) -> NoMatch:
    """NoMatch for qubit ``q``: what each window holding it admitted, and the nearest gates.

    The nearest candidates are the three single-qubit gates closest to the
    best register marginal of ``q``, then the nearest two-qubit gate of each
    window, all in trace distance and in partner order.
    """
    outcomes, best, pairs = [], [], []
    for est, row in zip(estimates, admitted):
        i, j = est.subset[:2]
        if q not in (i, j):
            continue
        hits = np.flatnonzero(row)
        if len(hits) == 1:
            done = f"certified [{table.elements[hits[0]].provenance[0].detail}]"
        else:
            done = f"admitted {len(hits)} elements" if len(hits) else "admitted nothing"
        outcomes.append(f"window {i},{j} {done}")
        marginal = _register_marginal(est.matrix.entries, int(q == j))
        nearest = _distances(marginal, gs.singles, 1)
        if nearest and (not best or nearest[0][1] < best[0][1]):
            best = nearest
        pairs += [(f"{name} on window {i},{j}", d)
                  for name, d in _distances(est.matrix.entries, gs.doubles, 2)[:1]]
    return NoMatch(
        f"no certified window settles qubit {q}: {', '.join(outcomes)}",
        qubits=(q,),
        nearest=best[:3] + pairs,
    )


def _learn_single_full(
    device: Device,
    k: int,
    prefix: LayeredCircuit,
    shots: int,
    gs: GateSet,
    delta: float,
    rng,
    mode: str,
) -> tuple[Layer, LayerReport]:
    n = device.n
    estimates = _window_estimates(device, k, prefix, shots, rng, mode)
    # delta split over the 255 non-identity strings of C(n, 2) windows and d layers
    log_term = math.log(2 * 255 * math.comb(n, 2) * device.d / delta)
    chosen = _decode_windows(estimates, gs, n, log_term)
    blocks = sorted(chosen)
    layer = Layer(tuple(blocks), tuple(chosen[b] for b in blocks))
    report = LayerReport(k, layer.blocks, tuple(g.name for g in layer.gates))
    report.warnings = [
        f"window {est.subset}: {len(est.low_count_strings)} low-count strings"
        for est in estimates
        if est.low_count_strings
    ]
    _fill_window_diagnostics(report, layer, {est.subset[:2]: est.matrix for est in estimates})
    if mode == "hardware":
        report.cnot_detected = min(report.purities.values()) < PURITY_THRESHOLD
    return layer, report


def _fill_window_diagnostics(report: LayerReport, layer: Layer, by_pair: dict) -> None:
    """Purities, fidelities and distances of every window and register.

    The learned layer's Choi state is a product over its blocks: a block
    window's ideal is its gate's Choi state, any other window's the product of
    its two register ideals. Block windows and registers get a distance; a
    register's row comes from the first window holding it. Purity and relative
    fidelity come from the raw Hermitian estimates: the clip-and-renormalize
    projection shrinks the dominant eigenvalue of near-pure states and biases
    their purity low by more than the shot noise.
    """
    blocks, registers = {}, {}
    for block, gate in zip(layer.blocks, layer.gates):
        ideal = blocks[block] = choi_state(gate.matrix, len(block)).density().entries
        for pos, q in enumerate(block):
            registers[q] = _register_marginal(ideal, pos) if len(block) == 2 else ideal
    for (i, j), rho in by_pair.items():
        if (i, j) in blocks:
            ideal = blocks[(i, j)]
            report.distances[f"{i},{j}"] = trace_distance_array(rho.entries, ideal)
        else:  # wires (i, i', j, j') of the product reordered to (i, j, i', j')
            a, b = (registers[q].reshape(2, 2, 2, 2) for q in (i, j))
            ideal = np.einsum("abcd,efgh->aebfcgdh", a, b).reshape(16, 16)
        report.fidelities[f"{i},{j}"] = relative_fidelity_array(rho.entries, ideal)
        for q, pos in ((i, 0), (j, 1)):
            if str(q) in report.purities:
                continue
            est, ideal = _register_marginal(rho.entries, pos), registers[q]
            report.purities[str(q)] = float(np.einsum("ij,ji->", est, est).real)
            report.purities_theory[str(q)] = float(np.einsum("ij,ji->", ideal, ideal).real)
            report.fidelities[str(q)] = relative_fidelity_array(est, ideal)
            report.distances[str(q)] = trace_distance_array(est, ideal)


# -- residual search -----------------------------------------------------------------


_BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def minimize_residual(rho: DensityMatrix, g1) -> tuple[Gate, float]:
    """Gate minimizing 1 - <Bell| (g^dag x I) rho (g x I) |Bell>.

    No learning mode calls it; it stays while perfbench/spans.py traces it by
    name.
    """
    if not g1:
        raise EmptyGateSet("residual search needs at least one candidate")
    entries = rho.entries
    best: tuple[Gate, float] | None = None
    for gate in g1:
        v = np.kron(gate.matrix, np.eye(2)) @ _BELL
        residual = float(1.0 - (v.conj() @ entries @ v).real)
        if best is None or residual < best[1] - 1e-12:
            best = (gate, residual)
        elif abs(residual - best[1]) <= 1e-12:
            warnings.warn(
                f"{gate.name} and {best[0].name} tie at residual {residual:.6f}",
                TieWarning,
                stacklevel=2,
            )
    return best  # type: ignore[return-value]


# -- multi-layer learning -------------------------------------------------------------


def learn_multi(
    device: Device,
    shots: int,
    gs: GateSet,
    eps: float | None = None,
    rng=None,
    mode: str = "strict",
    delta: float = 0.05,
) -> ReconstructionReport:
    """Reconstruct every layer recursively, re-applying learned inverses.

    ``mode`` picks the records each layer is decoded from: "strict" (shots
    with uniformly random settings), "hardware" (the nine dedicated settings)
    or "strict-exact" (the infinite-shot oracle). ``shots`` counts shots per
    layer in strict mode and shots per setting in hardware mode; strict-exact
    ignores it.

    Every mode decodes each pair window against the gate set's configuration
    elements: a per-coefficient Hoeffding box, at total failure probability
    ``delta`` over every string, window and layer, must admit exactly one
    element, allowing one contraction in [0.3, 1] for noise. strict-exact
    uses boxes of zero width. In every mode too few shots make a layer raise
    ReconstructionError, never come back wrong. Hardware mode also reports
    ``cnot_detected``: a register purity below PURITY_THRESHOLD, a diagnostic
    that does not pick the layer. No mode reads
    ``eps``. Before the device runs, InvalidParameter refuses an unknown mode,
    n < 2 qubits, n > 15 in strict mode (a setting code is below 18^n),
    ``shots < 1`` where shots are drawn and ``delta`` outside (0, 1); a
    degenerate gate set raises DegenerateGateSet.
    """
    if mode not in MODES:
        raise InvalidParameter(f"unknown mode {mode!r}: use strict, strict-exact or hardware")
    if device.n < 2:  # learning reads pair windows
        raise InvalidParameter(f"{mode} mode needs at least 2 qubits, got n={device.n}")
    if mode == "strict" and device.n > 15:  # a shot's setting code must fit in uint64
        raise InvalidParameter(f"strict mode needs at most 15 qubits, got n={device.n}")
    if mode != "strict-exact" and shots < 1:
        raise InvalidParameter(f"shots={shots} must be at least 1 in {mode} mode")
    if not 0 < delta < 1:
        raise InvalidParameter(f"delta={delta} must lie in (0, 1) in {mode} mode")
    coefficient_table(gs)  # a degenerate gate set raises before the device runs

    learned: list[Layer] = []
    reports: list[LayerReport] = []
    global_warnings: list[str] = []
    for k in range(1, device.d + 1):
        prefix = LayeredCircuit(device.n, tuple(learned)).inverse()
        # a generator is shared by every layer; a seed (None is 0) roots one stream per layer
        layer_rng = rng if isinstance(rng, np.random.Generator) else stream(rng or 0, k)
        try:
            layer, rep = _learn_single_full(device, k, prefix, shots, gs, delta, layer_rng, mode)
            learned.append(layer)
            reports.append(rep)
            global_warnings.extend(f"layer {k}: {w}" for w in rep.warnings)
        except ReconstructionError as exc:
            if exc.layer is None:
                exc.layer = k
                exc.args = (f"layer {k}: {exc.args[0]}",) if exc.args else (f"layer {k}",)
            raise
    circuit = LayeredCircuit(device.n, tuple(learned))
    return ReconstructionReport(
        circuit=circuit,
        per_layer=reports,
        ledger=device.ledger,
        warnings=global_warnings,
    )
