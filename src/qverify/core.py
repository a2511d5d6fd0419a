"""Gate-matrix table, dense complex linear algebra, pure-state simulation, Pauli readout.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational basis label, so the
  amplitude of ``|b0 b1 ... b_{n-1}>`` sits at index ``b0*2^(n-1) + ... + b_{n-1}``
  and ``np.kron(A, B)`` acts with A on qubit 0.
* Measurement outcomes are the Pauli eigenvalues +1/-1 (bit 0 -> +1).
* Pauli-basis readout rotates each qubit's axis onto Z before sampling the
  computational distribution: H for X, then-S-dagger-then-H for Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionMismatch, NotNormalized, ZeroPurity

ATOL = 1e-9

_SQ2 = 1 / np.sqrt(2)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(complex)


# The one table of fixed gate matrices; every other constant below reads it.
BUILTIN_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(0.25j * np.pi)]).astype(complex),
    "Rz(pi/4)": _rz(np.pi / 4),
    "Rz(pi/2)": _rz(np.pi / 2),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}
for _m in BUILTIN_MATRICES.values():
    _m.flags.writeable = False

PAULIS = {name: BUILTIN_MATRICES[name] for name in "IXYZ"}

# V |(+1 eigenstate)> = |0>; for Y this is H applied after S-dagger.
AXIS_ROTATIONS = {
    "X": BUILTIN_MATRICES["H"],
    "Y": BUILTIN_MATRICES["H"] @ BUILTIN_MATRICES["S"].conj().T,
    "Z": BUILTIN_MATRICES["I"],
}

AXES = ("X", "Y", "Z")


def is_unitary(u: np.ndarray, atol: float = ATOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=atol)


@dataclass(frozen=True)
class StateVec:
    """Pure state on ``n_qubits`` qubits; amplitudes are read-only."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] != 1 << self.n_qubits:
            raise DimensionMismatch(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amp.shape}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > ATOL:
            raise NotNormalized(f"squared norm deviates from 1 by {abs(norm - 1)!r}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace matrix; PSD is checked lazily, not enforced.

    Raw tomography estimates are legitimate values of this type even when they
    have small negative eigenvalues; ``is_physical`` reports that state.
    """

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        dim = 1 << self.n_qubits
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"expected {dim}x{dim} matrix, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise DimensionMismatch("matrix is not Hermitian within 1e-9")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise NotNormalized(f"trace {np.trace(m)!r} is not 1")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def is_physical(self) -> bool:
        return bool(np.linalg.eigvalsh(self.entries).min() >= -ATOL)


@dataclass(frozen=True)
class PauliBasis:
    """One measurement axis (X, Y or Z) per qubit."""

    axes: tuple[str, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        for a in axes:
            if a not in AXES:
                raise DimensionMismatch(f"invalid axis {a!r}")
        object.__setattr__(self, "axes", axes)

    def __len__(self) -> int:
        return len(self.axes)


# -- state evolution ----------------------------------------------------------


def apply_unitary_array(
    amplitudes: np.ndarray, u: np.ndarray, targets: tuple[int, ...], n: int
) -> np.ndarray:
    """Apply ``u`` to ``targets`` of an n-qubit amplitude array (no checks).

    Also accepts a (2^n, batch) matrix of column states.
    """
    k = len(targets)
    batched = amplitudes.ndim == 2
    shape = [2] * n + ([amplitudes.shape[1]] if batched else [])
    psi = amplitudes.reshape(shape)
    u_t = np.asarray(u, dtype=complex).reshape([2] * (2 * k))
    out = np.tensordot(u_t, psi, axes=(tuple(range(k, 2 * k)), targets))
    out = np.moveaxis(out, tuple(range(k)), targets)
    return out.reshape(amplitudes.shape)


def partial_trace_array(rho: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Partial trace on a raw 2^n x 2^n array; ``keep`` must be sorted."""
    tensor = rho.reshape([2] * (2 * n))
    row = list(range(n))
    col = [i if i not in keep else n + i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row + col, out)
    dim = 1 << len(keep)
    return reduced.reshape(dim, dim)


def pure_marginal_array(amplitudes: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Reduced density matrix of a pure n-qubit state on the sorted ``keep``.

    Equal to ``partial_trace_array(np.outer(psi, psi.conj()), keep, n)``, but
    the state is reshaped to a (2^|keep|, 2^(n-|keep|)) matrix M, qubits in
    ``keep`` as rows, and the result is M M^dagger: memory stays O(2^n)
    instead of the 4^n entries of the outer product.
    """
    rest = [q for q in range(n) if q not in keep]
    m = amplitudes.reshape([2] * n).transpose(list(keep) + rest).reshape(1 << len(keep), -1)
    return m @ m.conj().T


# -- metrics ------------------------------------------------------------------


def trace_distance_array(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a-b, via Hermitian eigendecomposition."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    eigs = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.abs(eigs).sum())


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); equals the squared Frobenius norm for Hermitian input."""
    if abs(np.trace(rho.entries).real - 1.0) > 1e-6:
        raise NotNormalized("purity requires unit trace")
    return float(np.einsum("ij,ji->", rho.entries, rho.entries).real)


def relative_fidelity_array(a: np.ndarray, b: np.ndarray) -> float:
    """tr(ab) / sqrt(tr(aa) tr(bb)); equals 1 iff a and b are proportional."""
    pa = np.einsum("ij,ji->", a, a).real
    pb = np.einsum("ij,ji->", b, b).real
    if pa <= 1e-14 or pb <= 1e-14:
        raise ZeroPurity("relative fidelity undefined for zero-purity input")
    return float(np.einsum("ij,ji->", a, b).real / np.sqrt(pa * pb))


# -- Pauli-basis measurement ---------------------------------------------------


def exact_pauli_distribution(state: StateVec, basis: PauliBasis) -> dict[tuple[int, ...], float]:
    """Exact joint outcome distribution as {(+1/-1 per qubit): probability}."""
    if len(basis) != state.n_qubits:
        raise DimensionMismatch(
            f"basis covers {len(basis)} qubits, state has {state.n_qubits}"
        )
    amp = state.amplitudes
    for q, axis in enumerate(basis.axes):
        if axis != "Z":
            amp = apply_unitary_array(amp, AXIS_ROTATIONS[axis], (q,), state.n_qubits)
    keys = product((1, -1), repeat=state.n_qubits)  # qubit 0 most significant
    return {key: float(p) for key, p in zip(keys, np.abs(amp) ** 2)}
