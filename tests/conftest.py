"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's vectorized code paths:
partial traces run as explicit double loops over bit strings, distributions
come from dense projector arithmetic, and the configuration inventory is built
one configuration at a time, merged and searched with plain double loops, so
they can certify the fast versions.
"""

import math

import numpy as np
import pytest

from qverify.circuits import Layer, choi_state, layer_unitary
from qverify.core import DensityMatrix, pure_marginal_array, trace_distance_array
from qverify.resolution import MERGE_TOL, ConfigElement, Provenance


def haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state_vec(n: int, rng) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_density(n: int, rng, rank: int = 2) -> np.ndarray:
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        v = random_state_vec(n, rng)
        rho += w * np.outer(v, v.conj())
    return rho


def brute_partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Reference partial trace: explicit loop over basis-label bit strings."""
    keep = sorted(keep)
    traced = [w for w in range(n) if w not in keep]
    dk = 1 << len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for r in range(1 << n):
        rb = format(r, f"0{n}b")
        for c in range(1 << n):
            cb = format(c, f"0{n}b")
            if any(rb[t] != cb[t] for t in traced):
                continue
            ri = int("".join(rb[w] for w in keep) or "0", 2)
            ci = int("".join(cb[w] for w in keep) or "0", 2)
            out[ri, ci] += rho[r, c]
    return out


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def brute_pauli_distribution(state: np.ndarray, axes: str) -> dict:
    """Joint outcome distribution via explicit eigenprojectors."""
    n = len(axes)
    out = {}
    for bits in range(1 << n):
        proj = np.ones((1, 1), dtype=complex)
        outcome = []
        for q in range(n):
            sign = 1 if not (bits >> (n - 1 - q)) & 1 else -1
            outcome.append(sign)
            proj = np.kron(proj, (PAULI["I"] + sign * PAULI[axes[q]]) / 2)
        out[tuple(outcome)] = float((state.conj() @ proj @ state).real)
    return out


def brute_window_state(blocks, gates, line_qubits: int, keep) -> DensityMatrix:
    """One configuration's window state: its layer unitary, Choi state and marginal."""
    u = layer_unitary(Layer(tuple(blocks), tuple(gates)), line_qubits)
    omega = choi_state(u, line_qubits)
    return DensityMatrix(len(keep), pure_marginal_array(omega.amplitudes, sorted(keep), 2 * line_qubits))


def brute_raw_elements(gs) -> list:
    """(Provenance, DensityMatrix) of every raw configuration, in inventory order."""
    g1, g2 = gs.singles, gs.doubles
    raw = []
    for a in g1:
        for b in g1:
            state = brute_window_state([(0,), (1,)], [a, b], 2, (0, 1, 2, 3))
            raw.append((Provenance("C1", (a.name, b.name), f"{a.name} on w1, {b.name} on w2"), state))
    for g in g2:
        state = brute_window_state([(0, 1)], [g], 2, (0, 1, 2, 3))
        raw.append((Provenance("C2", (g.name,), f"{g.name} on (w1, w2)"), state))
    for a in g1:
        for g in g2:
            for block, side in (((1, 2), "w2 first"), ((2, 1), "w2 second")):
                state = brute_window_state([(0,), block], [a, g], 3, (0, 1, 3, 4))
                detail = f"{a.name} on w1, {g.name} off-window ({side})"
                raw.append((Provenance("C3", (a.name,), detail), state))
    for a in g1:
        for g in g2:
            for block, side in (((0, 1), "w1 second"), ((1, 0), "w1 first")):
                state = brute_window_state([block, (2,)], [g, a], 3, (1, 2, 4, 5))
                detail = f"{g.name} off-window ({side}), {a.name} on w2"
                raw.append((Provenance("C4", (a.name,), detail), state))
    for ga in g2:
        for gb in g2:
            for block_a in ((0, 1), (1, 0)):
                for block_b in ((2, 3), (3, 2)):
                    state = brute_window_state([block_a, block_b], [ga, gb], 4, (1, 2, 5, 6))
                    detail = f"{ga.name} above on {block_a}, {gb.name} below on {block_b}"
                    raw.append((Provenance("C5", (), detail), state))
    return raw


def brute_merge(raw) -> list:
    """Greedy merge: each raw state joins the first element within MERGE_TOL, else starts one."""
    merged = []
    for prov, state in raw:
        for elem in merged:
            if trace_distance_array(elem.state.entries, state.entries) < MERGE_TOL:
                elem.provenance.append(prov)
                break
        else:
            merged.append(ConfigElement(prov.class_id, [prov], state))
    return merged


def brute_closest_pair(elements) -> tuple[int, int, float]:
    """Indices and trace distance of the first closest pair in (i, j) order."""
    best = (None, None, math.inf)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            d = trace_distance_array(elements[i].state.entries, elements[j].state.entries)
            if d < best[2]:
                best = (i, j, d)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
