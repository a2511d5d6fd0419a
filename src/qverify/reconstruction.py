"""Layer-by-layer reconstruction of a hidden circuit through the device API.

Strict mode follows the sampling protocol exactly: every shot prepares a
pseudo-measurement product state (classically sampled ancilla basis and
outcomes), runs the learned-inverse prefix plus the hidden circuit up to the
target layer, and measures a uniformly random Pauli basis. The pooled records
feed overlapping tomography of all pair windows; two-qubit gates are matched
first, remaining qubits are matched from traced window marginals.

Hardware mode replicates the two-qubit experimental shortcut instead: only the
per-register marginals (i, i') are estimated, with dedicated Pauli settings; an
entangling gate is detected by register purity, cancelled with an undo layer,
and the residual overlap with the Bell state identifies the local gates.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .circuits import (
    Layer, LayeredCircuit, choi_state, compose_unitary, emit_circuit, layer_unitary,
)
from .core import (
    AXES,
    DensityMatrix,
    PauliBasis,
    partial_trace_array,
    pure_marginal_array,
    purity,
    relative_fidelity_array,
    trace_distance_array,
)
from .device import PREP_SEQUENCES, PREP_VECTORS, Device, TimeLedger, settings_table
from .device import _product_states, _rotate_to_z
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
from .resolution import cached_resolution
from .tomography import RecordSet, RdmEstimate, estimate_window, pair_windows, project_to_physical

# A register purity below this marks an entangling gate (hardware mode and
# the continuous-gate noise sweep).
PURITY_THRESHOLD = 0.75


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
    phi = u @ _product_states(_ANCILLA_PREP[2 * anc_axes + bits])
    probs = np.abs(_rotate_to_z(phi, np.broadcast_to(pri_axes, bits.shape))) ** 2
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


def _match(est: np.ndarray, gates, arity: int, eps: float):
    hits = []
    nearest = []
    for gate, choi in _candidates(tuple(gates), arity):
        dist = trace_distance_array(est, choi)
        nearest.append((gate.name, dist))
        if dist < eps:
            hits.append((gate, dist))
    nearest.sort(key=lambda pair: pair[1])
    if len(hits) > 1:
        listing = ", ".join(f"{g.name} at {d:.4f}" for g, d in hits)
        raise AmbiguousMatch(
            f"{len(hits)} gates within eps={eps}: {listing} "
            "(tolerance exceeds the gate-set resolution, or the data is corrupted)"
        )
    if hits:
        return hits[0], nearest
    return None, nearest


def _as_matrix(est) -> np.ndarray:
    if isinstance(est, RdmEstimate):
        return est.matrix.entries
    if isinstance(est, DensityMatrix):
        return est.entries
    return np.asarray(est, dtype=complex)


def match_two_qubit(est, g2, eps: float):
    """The unique two-qubit gate within eps in trace distance, or None."""
    if not g2:
        return None
    hit, _ = _match(_as_matrix(est), g2, 2, eps)
    return hit


def match_single_qubit(est2, g1, eps: float):
    """The unique single-qubit gate whose Choi state is within eps, or None."""
    if not g1:
        return None
    hit, _ = _match(_as_matrix(est2), g1, 1, eps)
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

    def to_csv(self, groups: tuple[tuple[int, ...], ...] = ()) -> str:
        """``report.csv`` (schema v1): one row per layer and register.

        ``groups``, the hidden circuit's grouping of layer indices, labels the
        rows if it covers the reconstructed depth; else layer i is group i - 1.
        """
        group_of = {}
        if sum(map(len, groups)) == self.circuit.depth:
            group_of = {i + 1: g for g, members in enumerate(groups) for i in members}
        lines = [
            "layer,group,register,gates,purity,purity_theory,relative_fidelity,distance,residual"
        ]
        for rep in self.per_layer:
            head = [str(rep.index), str(group_of.get(rep.index, rep.index - 1))]
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


def _run_settings(device: Device, k: int, prefix: LayeredCircuit, rows, counts, rng, undo=None):
    """Run ``counts[i]`` shots of the setting in row i of ``rows``.

    A row holds the ancilla axes, ancilla outcome bits and principal axes, n
    codes each. Returns the (shots, 2n) wire digits of :class:`RecordSet`,
    grouped by setting in row order.
    """
    n = device.n
    anc_axes, anc_outs01, pri_axes = rows[:, :n], rows[:, n : 2 * n], rows[:, 2 * n :]
    anc_digits = 2 * anc_axes + anc_outs01
    settings = settings_table(_ANCILLA_PREP[anc_digits], pri_axes, counts)
    indices = device.execute_settings(prefix, k, settings, rng, undo=undo)
    digits = np.repeat(np.hstack([2 * pri_axes, anc_digits]), counts, axis=0)
    for q in range(n):  # qubit 0 is the most significant bit of an index
        digits[:, q] += ((indices >> (n - 1 - q)) & 1).astype(np.int8)
    return digits


def _draw_setting_codes(rng, shots: int, n: int) -> np.ndarray:
    """One mixed-radix code per shot of a uniformly random setting.

    Ancilla axes, ancilla outcome bits and principal axes are drawn in that
    order, n columns each, and packed column by column, first column most
    significant.
    """
    code = np.zeros(shots, dtype=np.int64)
    for radix in (3, 2, 3):
        for column in rng.integers(0, radix, size=(shots, n)).T:
            code *= radix
            code += column
    return code


def _shot_record_set(
    device: Device, k: int, prefix: LayeredCircuit, shots: int, rng
) -> RecordSet:
    """Run ``shots`` pseudo-measurement shots with uniformly random settings.

    Draw order (fixed for reproducibility): ancilla axes, ancilla outcomes,
    principal axes, then the measurement randomness inside the device batch.
    Shots sharing a configuration are executed together; record order groups
    them, which no estimator depends on.
    """
    n = device.n
    rng = np.random.default_rng(rng)
    # deduplication runs on flat codes; a code identifies its row, so each
    # distinct row is decoded back from it
    code, counts = np.unique(_draw_setting_codes(rng, shots, n), return_counts=True)
    radices = np.repeat([3, 2, 3], n)
    distinct = np.empty((len(code), 3 * n), dtype=np.int8)
    for j in range(3 * n - 1, -1, -1):
        code, distinct[:, j] = np.divmod(code, radices[j])
    return RecordSet(n, _run_settings(device, k, prefix, distinct, counts, rng))


def _exact_window_estimates(device: Device, k: int, prefix: LayeredCircuit) -> list[RdmEstimate]:
    omega = device.ideal_choi_state(prefix, k)
    out = []
    for subset in pair_windows(device.n):
        reduced = pure_marginal_array(omega.amplitudes, sorted(subset), 2 * device.n)
        out.append(
            RdmEstimate(subset=subset, matrix=DensityMatrix(4, reduced), compat_counts={})
        )
    return out


def _register_marginal(window: np.ndarray, position: int) -> np.ndarray:
    """(q, q') marginal of a pair-window matrix; position 0 keeps (i, i')."""
    keep = [0, 2] if position == 0 else [1, 3]
    return partial_trace_array(window, keep, 4)


def _learn_single_full(
    device: Device,
    k: int,
    prefix: LayeredCircuit,
    shots: int,
    gs: GateSet,
    eps: float,
    rng,
    mode: str = "shots",
) -> tuple[Layer, LayerReport, list[RdmEstimate]]:
    n = device.n
    if mode == "exact":
        estimates = _exact_window_estimates(device, k, prefix)
    elif mode == "shots":
        rs = _shot_record_set(device, k, prefix, shots, rng)
        estimates = [estimate_window(rs, subset) for subset in pair_windows(n)]
    else:
        raise InvalidParameter(f"unknown estimator mode {mode!r}: use shots or exact")

    report = LayerReport(index=k, structure=(), gates=())
    by_pair = {est.subset[:2]: est for est in estimates}
    assigned: dict[int, tuple[tuple[int, ...], Gate, float]] = {}
    for (i, j), est in by_pair.items():
        hit = match_two_qubit(est, gs.doubles, eps)
        if hit is None:
            continue
        gate, dist = hit
        for q in (i, j):
            if q in assigned:
                raise OverlappingAssignment(
                    f"qubit {q} claimed by windows {assigned[q][0]} and {(i, j)}"
                )
        assigned[i] = ((i, j), gate, dist)
        assigned[j] = ((i, j), gate, dist)
        report.distances[f"{i},{j}"] = dist

    blocks: list[tuple[int, ...]] = []
    gates: list[Gate] = []
    seen_blocks = set()
    for q, (block, gate, _) in assigned.items():
        if block not in seen_blocks:
            seen_blocks.add(block)
            blocks.append(block)
            gates.append(gate)

    for j in range(n):
        if j in assigned:
            continue
        windows = sorted(
            (pair for pair in by_pair if j in pair),
            key=lambda pair: pair[0] if pair[1] == j else pair[1],
        )
        hit = None
        best_nearest: list = []
        for pair in windows:
            est = by_pair[pair]
            position = 0 if pair[0] == j else 1
            marg = _register_marginal(est.matrix.entries, position)
            found, nearest = _match(marg, gs.singles, 1, eps)
            if found is not None:
                hit = found
                break
            if not best_nearest or nearest[0][1] < best_nearest[0][1]:
                best_nearest = nearest
        if hit is None:
            # no window containing j matched a two-qubit gate either; name the
            # nearest one of each, since the miss may be an entangler outside eps
            pair_nearest = []
            for a, b in windows:
                _, nearest = _match(by_pair[(a, b)].matrix.entries, gs.doubles, 2, eps)
                pair_nearest += [(f"{name} on window {a},{b}", d) for name, d in nearest[:1]]
            also = ", nor a two-qubit gate on any window containing it" if pair_nearest else ""
            raise NoMatch(
                f"no single-qubit gate within eps={eps} for qubit {j}{also}",
                qubits=(j,),
                nearest=best_nearest[:3] + pair_nearest,
            )
        gate, dist = hit
        blocks.append((j,))
        gates.append(gate)
        report.distances[f"{j}"] = dist

    order = np.argsort([b[0] for b in blocks])
    layer = Layer(
        tuple(blocks[i] for i in order), tuple(gates[i] for i in order)
    )
    report.structure = layer.blocks
    report.gates = tuple(g.name for g in layer.gates)
    _fill_window_diagnostics(report, layer, n, by_pair)
    for est in estimates:
        if getattr(est, "low_count_strings", ()):
            report.warnings.append(
                f"window {est.subset}: {len(est.low_count_strings)} low-count strings"
            )
    return layer, report, estimates


def _fill_window_diagnostics(report: LayerReport, layer: Layer, n: int, by_pair: dict) -> None:
    """Per-register purities and fidelities against the matched layer's ideal.

    Purity and relative fidelity come from the raw Hermitian estimates: the
    clip-and-renormalize projection shrinks the dominant eigenvalue of
    near-pure states and biases their purity low by more than the shot noise.
    """
    ideal = choi_state(layer_unitary(layer, n), n).amplitudes
    for (i, j), est in by_pair.items():
        window_ideal = pure_marginal_array(ideal, sorted((i, j, i + n, j + n)), 2 * n)
        report.fidelities[f"{i},{j}"] = relative_fidelity_array(
            est.matrix.entries, window_ideal
        )
        for q, pos in ((i, 0), (j, 1)):
            if str(q) not in report.purities:
                est_marg = _register_marginal(est.matrix.entries, pos)
                _register_row(report, str(q), est_marg, _register_marginal(window_ideal, pos))


def _register_row(report: LayerReport, key: str, est: np.ndarray, ideal: np.ndarray) -> None:
    """Purity, theory purity, relative fidelity and (unless a match set it) distance."""
    report.purities[key] = float(np.einsum("ij,ji->", est, est).real)
    report.purities_theory[key] = float(np.einsum("ij,ji->", ideal, ideal).real)
    report.fidelities[key] = relative_fidelity_array(est, ideal)
    report.distances.setdefault(key, trace_distance_array(est, ideal))


def learn_single(
    device: Device,
    k: int,
    inverse_prefix: LayeredCircuit,
    shots: int,
    gs: GateSet,
    eps: float,
    rng,
    mode: str = "shots",
) -> Layer:
    """Reconstruct the layer reached at interruption point ``k``; needs n >= 2."""
    _check_qubits(device.n, "strict")
    _warn_eps(gs, eps)
    layer, _, _ = _learn_single_full(device, k, inverse_prefix, shots, gs, eps, rng, mode)
    return layer


def _check_qubits(n: int, mode: str) -> None:
    """Strict learning reads pair windows (n >= 2); hardware mode is two-qubit only."""
    if n < 2 or (mode == "hardware" and n != 2):
        need = "exactly" if mode == "hardware" else "at least"
        raise InvalidParameter(f"{mode} mode needs {need} 2 qubits, got n={n}")


def _warn_eps(gs: GateSet, eps: float) -> None:
    res = cached_resolution(gs)
    if eps >= res:
        warnings.warn(
            f"eps={eps} is not below the gate-set resolution {res:.4f}; "
            "matching may be ambiguous",
            stacklevel=3,
        )


# -- hardware-style heuristics ------------------------------------------------------


def detect_cnot_by_purity(est_pair) -> bool:
    """Entangling gate present iff either register purity falls below PURITY_THRESHOLD."""
    a, b = est_pair
    return min(purity(a), purity(b)) < PURITY_THRESHOLD


_BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def minimize_residual(rho: DensityMatrix, g1) -> tuple[Gate, float]:
    """Gate minimizing 1 - <Bell| (g^dag x I) rho (g x I) |Bell>."""
    if not g1:
        raise EmptyGateSet("residual search needs at least one candidate")
    entries = _as_matrix(rho)
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


def _dedicated_record_set(
    device: Device,
    k: int,
    prefix: LayeredCircuit,
    shots_per_setting: int,
    rng,
    undo: Layer | None,
) -> RecordSet:
    """One tomography round with the nine dedicated (principal, ancilla) settings."""
    n = device.n
    rng = np.random.default_rng(rng)
    rounds = []
    for p_ax, a_ax in product(range(3), range(3)):
        anc_outs01 = rng.integers(0, 2, size=(shots_per_setting, n))
        # qubit 0 as the most significant bit keeps np.unique's row order
        counts = np.bincount(anc_outs01 @ (1 << np.arange(n - 1, -1, -1)), minlength=1 << n)
        present = np.flatnonzero(counts)
        axes = np.ones((len(present), n), dtype=np.int8)
        rows = np.hstack([a_ax * axes, _index_bits(present, n), p_ax * axes])
        rounds.append(_run_settings(device, k, prefix, rows, counts[present], rng, undo))
    return RecordSet(n, np.vstack(rounds))


def _learn_layer_hardware(
    device: Device,
    k: int,
    prefix: LayeredCircuit,
    shots_per_setting: int,
    gs: GateSet,
    rng,
) -> tuple[list[Layer], LayerReport]:
    n = device.n
    rng = np.random.default_rng(rng)
    rs1 = _dedicated_record_set(device, k, prefix, shots_per_setting, rng, undo=None)
    raw1 = [estimate_window(rs1, (q, q + n)).matrix for q in range(n)]
    regs1 = [project_to_physical(m) for m in raw1]
    report = LayerReport(index=k, structure=(), gates=())
    report.cnot_detected = detect_cnot_by_purity(tuple(regs1))

    entangler: Gate | None = None
    if report.cnot_detected:
        entangler, regs2, round2_used = _identify_entangler(
            device, k, prefix, shots_per_setting, gs, rng, regs1
        )
        if round2_used:
            report.warnings.append("second round executed to undo the entangling gate")
    else:
        regs2 = regs1

    searches = [minimize_residual(reg, gs.singles) for reg in regs2]
    for q, (gate, residual) in enumerate(searches):
        report.residuals[str(q)] = residual

    single_gates = [gate for gate, _ in searches]
    ident = gs.identity
    nontrivial = [
        g for g in single_gates if ident is None or not gates_equivalent(g, ident)
    ]
    layers: list[Layer] = []
    if entangler is None:
        layers.append(Layer(((0,), (1,)), tuple(single_gates)))
    elif not nontrivial:
        layers.append(Layer(((0, 1),), (entangler,)))
    else:
        report.warnings.append(
            "composite layer: local gates precede the entangling gate"
        )
        layers.append(Layer(((0,), (1,)), tuple(single_gates)))
        layers.append(Layer(((0, 1),), (entangler,)))

    merged_blocks = tuple(b for layer in layers for b in layer.blocks)
    merged_gates = tuple(g.name for layer in layers for g in layer.gates)
    report.structure = merged_blocks
    report.gates = merged_gates
    _fill_register_diagnostics(report, layers, n, raw1)
    return layers, report


def _identify_entangler(device, k, prefix, shots_per_setting, gs, rng, regs1):
    """Pick the entangling gate whose ideal marginals best explain round one."""
    if not gs.doubles:
        raise NoMatch("entanglement detected but the gate set has no two-qubit gate")
    scored = []
    for gate, choi in _candidates(tuple(gs.doubles), 2):
        score = 0.0
        for q in range(2):
            ideal = _register_marginal(choi, q)
            score += trace_distance_array(regs1[q].entries, ideal)
        scored.append((score, gate))
    scored.sort(key=lambda pair: pair[0])
    near_best = [g for s, g in scored if s < scored[0][0] + 0.05]

    best = None
    for gate in near_best:
        undo = Layer(((0, 1),), (gate.dagger(),))
        rs2 = _dedicated_record_set(device, k, prefix, shots_per_setting, rng, undo=undo)
        regs2 = [
            project_to_physical(estimate_window(rs2, (q, q + device.n)))
            for q in range(2)
        ]
        total = sum(minimize_residual(r, gs.singles)[1] for r in regs2)
        if best is None or total < best[0]:
            best = (total, gate, regs2)
    return best[1], best[2], True


def _fill_register_diagnostics(report, layers, n, raw1) -> None:
    """Compare raw round-one marginals with the reconstructed layer's ideal ones."""
    ideal = choi_state(compose_unitary(LayeredCircuit(n, tuple(layers))), n).amplitudes
    for q in range(n):
        _register_row(
            report, str(q), raw1[q].entries, pure_marginal_array(ideal, [q, q + n], 2 * n)
        )


# -- multi-layer learning -------------------------------------------------------------


def check_learn_parameters(n: int, shots: int, eps: float | None, mode: str) -> None:
    """Raise InvalidParameter for a call :func:`learn_multi` would refuse.

    Refused: a mode other than strict, strict-exact or hardware; n < 2 qubits,
    or n != 2 in hardware mode; ``shots < 1`` where shots are drawn; and
    ``eps <= 0`` where it is the matching tolerance.
    """
    if mode not in ("strict", "strict-exact", "hardware"):
        raise InvalidParameter(f"unknown mode {mode!r}: use strict, strict-exact or hardware")
    _check_qubits(n, mode)
    if mode in ("strict", "hardware") and shots < 1:
        raise InvalidParameter(f"shots={shots} must be at least 1 in {mode} mode")
    if mode in ("strict", "strict-exact") and not eps > 0:
        raise InvalidParameter(f"eps={eps} must be positive in {mode} mode")


def learn_multi(
    device: Device,
    shots: int,
    gs: GateSet,
    eps: float,
    rng,
    mode: str = "strict",
) -> ReconstructionReport:
    """Reconstruct every layer recursively, re-applying learned inverses.

    ``mode`` is "strict" (random-setting overlapping tomography, Choi-state
    matching), "strict-exact" (same assembly driven by the infinite-shot
    oracle), or "hardware" (dedicated settings, purity detection, residual
    search). ``shots`` counts shots per layer in strict mode and shots per
    setting per round in hardware mode; strict-exact ignores it. ``eps`` is
    the matching tolerance of the strict modes; hardware mode picks gates by
    purity and residual and ignores it. Every parameter is checked by
    :func:`check_learn_parameters` before the device runs.
    """
    check_learn_parameters(device.n, shots, eps, mode)
    if mode in ("strict", "strict-exact"):
        _warn_eps(gs, eps)

    learned: list[Layer] = []
    reports: list[LayerReport] = []
    global_warnings: list[str] = []
    for k in range(1, device.d + 1):
        prefix = LayeredCircuit(device.n, tuple(learned)).inverse()
        # a generator is shared by every layer; a seed (None is 0) roots one stream per layer
        layer_rng = rng if isinstance(rng, np.random.Generator) else stream(rng or 0, k)
        try:
            if mode == "hardware":
                layers, rep = _learn_layer_hardware(device, k, prefix, shots, gs, layer_rng)
                learned.extend(layers)
            else:
                estimator = "exact" if mode == "strict-exact" else "shots"
                layer, rep, _ = _learn_single_full(
                    device, k, prefix, shots, gs, eps, layer_rng, estimator
                )
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
