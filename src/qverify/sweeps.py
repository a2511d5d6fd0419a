"""The paper's two desk-scale experiments, each returning its CSV text.

:func:`sweep_samples` measures state-tomography accuracy against sample count;
:func:`sweep_noise` measures how perturbed layer estimates accumulate error
with depth. Both are deterministic: ``seed`` roots every random stream.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .circuits import choi_state
from .core import (
    partial_trace_array,
    pure_marginal_array,
    relative_fidelity_array,
    trace_distance_array,
)
from .device import rotate_to_z
from .errors import InvalidParameter
from .gates import builtin_gate
from .reconstruction import PURITY_THRESHOLD, format_float
from .rng import stream
from .tomography import estimate_from, perturb_matrix, project_to_physical

# Both CNOT orientations and their Choi matrices: the entanglers of the
# continuous circuits and the candidates undone on a detected entangler.
_CNOT = builtin_gate("CNOT")
_ENTANGLERS = (_CNOT.matrix, _CNOT.reversed().matrix)
_ENTANGLER_CHOIS = tuple(choi_state(u, 2).density().entries for u in _ENTANGLERS)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random dim x dim unitary: QR of a complex Ginibre draw, phases fixed."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- sweep-samples -----------------------------------------------------------------


def _sample_setting_counts(probs_by_setting: np.ndarray, shots: int, rng) -> np.ndarray:
    """Counts over (settings, outcomes) for uniformly random settings."""
    n_settings, n_out = probs_by_setting.shape
    setting_draws = rng.integers(0, n_settings, size=shots)
    per_setting = np.bincount(setting_draws, minlength=n_settings)
    counts = np.zeros((n_settings, n_out), dtype=np.int64)
    for s in range(n_settings):
        if per_setting[s]:
            counts[s] = rng.multinomial(per_setting[s], probs_by_setting[s])
    return counts


def _state_probs_by_setting(state: np.ndarray, n: int) -> np.ndarray:
    """(3^n, 2^n) readout probabilities, one row per basis, qubit 0's axis slowest.

    All 3^n bases are read out at once, one column of the state per basis, by
    the device's readout rotation (axis codes 0, 1, 2 for X, Y, Z).
    """
    axes = np.array(list(product(range(3), repeat=n)), dtype=np.int8)
    columns = np.repeat(state[:, None], len(axes), axis=1)
    out = np.abs(rotate_to_z(columns, axes).T) ** 2
    return out / out.sum(axis=1, keepdims=True)


def _marginal_counts(counts: np.ndarray, subset, n: int) -> np.ndarray:
    """Reduce full (3^n, 2^n) cell counts onto an ascending wire subset."""
    m = len(subset)
    tensor = counts.reshape([3] * n + [2] * n)
    keep = list(subset) + [n + w for w in subset]
    drop = tuple(ax for ax in range(2 * n) if ax not in keep)
    return tensor.sum(axis=drop).reshape(3**m, 1 << m)


def sweep_samples(n: int, shots_list: list[int], seeds: int, seed: int) -> str:
    """``samples.csv``: mean and spread of the relative fidelity of every
    m-qubit reduced density matrix against the sample count N.

    Raises InvalidParameter on an empty or descending ``shots_list``, a shot
    level below 1, ``n`` < 2 or ``seeds`` < 1.
    """
    if not shots_list or list(shots_list) != sorted(shots_list):
        raise InvalidParameter("shots list must be nonempty ascending")
    if shots_list[0] < 1:
        raise InvalidParameter("every shot level must be at least 1")
    if n < 2:
        raise InvalidParameter("need at least two qubits")
    if seeds < 1:
        raise InvalidParameter("seeds must be positive")
    window_sizes = [m for m in (1, 2, 3) if m < n] + [n]
    subsets = [s for m in window_sizes for s in combinations(range(n), m)]
    fidelities = {(m, N): [] for m in window_sizes for N in shots_list}
    for trial in range(seeds):
        rng = stream(seed, trial)
        state = haar_unitary(1 << n, rng)[:, 0]
        probs = _state_probs_by_setting(state, n)
        ideal = {s: pure_marginal_array(state, list(s), n) for s in subsets}
        for N in shots_list:
            counts = _sample_setting_counts(probs, N, rng)
            for s in subsets:
                est = project_to_physical(estimate_from(_marginal_counts(counts, s, n), s).matrix)
                fidelities[(len(s), N)].append(relative_fidelity_array(est.entries, ideal[s]))
    lines = ["m,N,mean_fidelity,std"]
    for m in window_sizes:
        for N in shots_list:
            vals = np.array(fidelities[(m, N)])
            lines.append(f"{m},{N},{format_float(vals.mean())},{format_float(vals.std())}")
    return "\n".join(lines) + "\n"


# -- sweep-noise ---------------------------------------------------------------------


def nearest_unitary(choi_matrix: np.ndarray, n: int) -> np.ndarray:
    """Unitary closest to a perturbed Choi estimate.

    Takes the dominant eigenvector, reshapes it back into an operator, and
    polar-projects onto the unitary group.
    """
    w, v = np.linalg.eigh(choi_matrix)
    top = v[:, int(np.argmax(w))]
    m = top.reshape(1 << n, 1 << n) * 2 ** (n / 2)
    u_l, _, v_r = np.linalg.svd(m)
    return u_l @ v_r


def _extract_layer_continuous(est: np.ndarray) -> np.ndarray:
    """Continuous-gate layer extraction from a two-qubit window estimate.

    Mirrors the layerwise learning loop without a discrete set to snap to:
    entanglement is detected by register purity, a detected CNOT is undone on
    the estimate itself, and the local gates are read off the register
    marginals. The layer is forced back into (CNOT) x local product form, so
    error components outside that family cannot be absorbed and carry over.
    """
    margs = [partial_trace_array(est, [q, q + 2], 4) for q in range(2)]
    purities = [float(np.einsum("ij,ji->", m, m).real) for m in margs]
    entangler = np.eye(4, dtype=complex)
    if min(purities) < PURITY_THRESHOLD:
        dists = [trace_distance_array(est, c) for c in _ENTANGLER_CHOIS]
        entangler = _ENTANGLERS[int(np.argmin(dists))]
        undo = np.kron(entangler.conj().T, np.eye(4))
        est = undo @ est @ undo.conj().T
        margs = [partial_trace_array(est, [q, q + 2], 4) for q in range(2)]
    local = np.kron(nearest_unitary(margs[0], 1), nearest_unitary(margs[1], 1))
    return entangler @ local


def _random_continuous_circuit(depths: int, rng) -> list[np.ndarray]:
    """Haar single-qubit rounds mixed with CNOT rounds, two qubits."""
    layers = []
    for _ in range(depths):
        if rng.random() < 0.5:
            layers.append(_ENTANGLERS[0] if rng.random() < 0.5 else _ENTANGLERS[1])
        else:
            layers.append(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)))
    return layers


def sweep_noise(gammas: list[int], depths: int, seeds: int, seed: int) -> str:
    """``noise.csv``: median, mean and spread of each learned layer's relative
    fidelity against depth, per noise level gamma.

    Raises InvalidParameter on a gamma outside 0-5, ``depths`` < 1 or
    ``seeds`` < 1.
    """
    if any(g not in range(6) for g in gammas):
        raise InvalidParameter("gammas must lie in [0, 5]")
    if depths < 1:
        raise InvalidParameter("depths must be positive")
    if seeds < 1:
        raise InvalidParameter("seeds must be positive")
    fids = {(g, k): [] for g in gammas for k in range(1, depths + 1)}
    for trial in range(seeds):
        layers = _random_continuous_circuit(depths, stream(seed, 100, trial))
        layer_chois = [choi_state(u, 2).density().entries for u in layers]
        for gamma in gammas:
            prefix_u = np.eye(4, dtype=complex)
            full_u = np.eye(4, dtype=complex)
            for k in range(1, depths + 1):
                full_u = layers[k - 1] @ full_u
                raw = choi_state(full_u @ prefix_u.conj().T, 2).density().entries
                est = perturb_matrix(raw, gamma, stream(seed, trial, gamma, k))
                fids[(gamma, k)].append(relative_fidelity_array(est, layer_chois[k - 1]))
                prefix_u = _extract_layer_continuous(est) @ prefix_u
    lines = ["gamma,depth,median_fidelity,mean_fidelity,std"]
    for gamma in gammas:
        for k in range(1, depths + 1):
            vals = np.array(fids[(gamma, k)])
            lines.append(
                f"{gamma},{k},{format_float(float(np.median(vals)))},"
                f"{format_float(vals.mean())},{format_float(vals.std())}"
            )
    return "\n".join(lines) + "\n"
