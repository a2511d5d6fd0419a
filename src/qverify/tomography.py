"""Overlapping tomography from pooled random-Pauli measurement records.

A record set is one (shots, 2n) int8 array of wire digits: n principal wires
followed by their n classically generated ancilla wires. A shot's digit on a
wire packs the setting axis and the outcome, ``2 * axis + bit`` with axis
0=X, 1=Y, 2=Z and bit 0 for the +1 outcome and 1 for -1, so digits run 0..5.
A Pauli-string coefficient over any wire subset is estimated as the mean, over
the shots whose axes agree with the string at every non-identity position, of
the product of outcomes at those positions. Each shot therefore contributes to
every compatible window simultaneously; no per-window resampling happens.

A window's shots are first binned into (setting, outcome) cell counts: one
base-6 code per shot over the window's digits, one ``np.bincount`` over the
6^m cells, and a reordering into a (3^m, 2^m) matrix. All 4^m coefficients
then come from one contraction of those counts, one wire at a time, with a
constant (letter, axis, bit) table of +1, -1 and 0, and the compatible-shot
counts from the same contraction with the table's absolute value. Counts are
integers and table entries are +1, -1 or 0, so every sum is exact in float64
and each coefficient is one division, whatever the order of summation.

Estimates are reconstructed by linear inversion,
``rho = 2^-m * sum_Q c_Q * (tensor Q)``, with the identity coefficient pinned
at 1 so the trace is exactly one. Raw estimates are Hermitian but can fail
positivity; :func:`project_to_physical` clips negative eigenvalues and
renormalizes for reporting purposes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .core import DensityMatrix, PAULIS
from .errors import InvalidParameter, WindowSizeMismatch

PAULI_LETTERS = "IXYZ"

LOW_COMPAT_THRESHOLD = 30


# -- sample-count bounds ---------------------------------------------------------


def required_samples(
    m: int,
    n: int,
    d: int,
    eps: float,
    delta: float,
    scale: float = 1.0,
) -> int:
    """Shots guaranteeing eps-accurate m-wire windows with probability 1-delta.

    ``ceil(scale * 2^5 * 10^m * eps^-2 * ln(2 d W / delta))`` with natural log,
    where W is C(n,2) pair windows for m=4 (the Choi-marginal case, with the
    failure budget split over d layers) and C(n,m) otherwise.
    ``scale < 1`` trades the guarantee for desk-scale feasibility and warns.
    """
    if m < 1 or n < 1 or d < 1:
        raise InvalidParameter(f"m={m}, n={n}, d={d} must be positive")
    if eps <= 0 or not (0 < delta < 1) or scale <= 0:
        raise InvalidParameter(f"eps={eps}, delta={delta}, scale={scale} out of range")
    windows = math.comb(n, 2) if m == 4 else math.comb(n, m)
    if windows < 1:
        raise InvalidParameter(f"no windows of size {m} on {n} qubits")
    if scale < 1.0:
        warnings.warn(
            f"scale={scale} < 1 voids the sample-count guarantee", stacklevel=2
        )
    bound = scale * 2**5 * 10**m * eps**-2 * math.log(2 * d * windows / delta)
    return math.ceil(bound)


# -- record sets -----------------------------------------------------------------


@dataclass(frozen=True)
class RecordSet:
    """Measurement records over 2n virtual wires as one array of wire digits.

    ``digits`` is (shots, 2n) int8; wire i < n is principal, wire n+i its
    ancilla. Each digit is ``2 * axis + bit``: axis 0=X, 1=Y, 2=Z, and bit 0
    for the +1 outcome, 1 for -1. The constructor takes digits of an integer
    dtype in 0..5 and checks them before casting to int8, so no value wraps;
    :meth:`from_shots` wraps per-shot axis and +1/-1 outcome arrays.
    """

    n: int
    digits: np.ndarray

    def __post_init__(self):
        digits = np.asarray(self.digits)
        if digits.ndim != 2 or digits.shape[1] != 2 * self.n:
            raise InvalidParameter(
                f"expected digits shaped (shots, {2 * self.n}), got {digits.shape}"
            )
        if not np.issubdtype(digits.dtype, np.integer):
            raise InvalidParameter(f"digits must be integers, got dtype {digits.dtype}")
        if digits.size and (digits.min() < 0 or digits.max() > 5):
            raise InvalidParameter("digits must be 2 * axis + bit, in 0..5")
        digits = np.ascontiguousarray(digits, dtype=np.int8)
        digits.flags.writeable = False
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_shots(cls, n: int, bases, outcomes) -> RecordSet:
        """Records from (shots, 2n) axis codes (0=X, 1=Y, 2=Z) and +1/-1 outcomes."""
        bases, outcomes = np.asarray(bases), np.asarray(outcomes)
        if bases.shape != outcomes.shape or bases.ndim != 2:
            raise InvalidParameter("bases and outcomes must share shape (shots, wires)")
        if not np.isin(bases, (0, 1, 2)).all():
            raise InvalidParameter("basis codes must be 0 (X), 1 (Y) or 2 (Z)")
        if not np.isin(outcomes, (1, -1)).all():
            raise InvalidParameter("outcomes must be +1 or -1")
        return cls(n, 2 * bases.astype(np.int8) + (outcomes < 0))

    @property
    def bases(self) -> np.ndarray:
        """(shots, 2n) int8 axis codes: 0=X, 1=Y, 2=Z."""
        return self.digits >> 1

    @property
    def outcomes(self) -> np.ndarray:
        """(shots, 2n) int8 outcomes, +1 or -1."""
        return 1 - 2 * (self.digits & 1)

    def __len__(self) -> int:
        return self.digits.shape[0]

    @property
    def wires(self) -> int:
        return 2 * self.n


# -- Pauli coefficient estimation ---------------------------------------------

# Letter (I, X, Y, Z) x setting axis (X, Y, Z) x outcome bit (0 for +1, 1 for
# -1): the factor one wire contributes to a Pauli string's outcome product, or
# 0 where the wire's axis is incompatible with the letter.
_SIGNS = np.zeros((4, 3, 2))
_SIGNS[0] = 1.0
_SIGNS[[1, 2, 3], [0, 1, 2]] = (1.0, -1.0)
_COMPATIBLE = np.abs(_SIGNS)


@lru_cache(maxsize=8)
def _pauli_strings(m: int) -> tuple[str, ...]:
    """All 4^m strings over IXYZ in base-4 digit order, wire 0 most significant."""
    return tuple("".join(p) for p in product(PAULI_LETTERS, repeat=m))


@lru_cache(maxsize=8)
def _pauli_tensors(m: int) -> np.ndarray:
    """(4^m, 2^m, 2^m) tensor-product Pauli basis, base-4 digit order."""
    out = np.empty((4**m, 1 << m, 1 << m), dtype=complex)
    for code, letters in enumerate(_pauli_strings(m)):
        out[code] = reduce(np.kron, (PAULIS[c] for c in letters))
    return out


def cell_counts(rs: RecordSet, subset: tuple[int, ...]) -> np.ndarray:
    """(3^m, 2^m) shot counts per (setting, outcome) cell on the subset wires.

    Rows index the joint setting, columns the joint outcome bits (0 for +1),
    both with the first subset wire as the most significant digit. Each shot
    gets one base-6 code over its subset digits and one ``np.bincount`` bins
    them; int16 codes hold the 6^m cells up to m = 5.
    """
    subset = tuple(int(w) for w in subset)
    if len(set(subset)) != len(subset):
        raise InvalidParameter(f"repeated wire in subset {subset}")
    if any(w < 0 or w >= rs.wires for w in subset):
        raise InvalidParameter(f"subset {subset} outside the {rs.wires} wires")
    m = len(subset)
    code = np.zeros(len(rs), dtype=np.int16 if 6**m <= 1 << 15 else np.int64)
    for w in subset:
        code *= 6
        code += rs.digits[:, w]
    # digit j of the code is (axis, bit) of wire j; move the bits after the axes
    cells = np.bincount(code, minlength=6**m).reshape((3, 2) * m)
    cells = cells.transpose(*range(0, 2 * m, 2), *range(1, 2 * m, 2))
    return cells.reshape(3**m, 1 << m)


def _coefficients(counts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every Pauli coefficient and compatible-shot count of one window.

    Contracts the counts, viewed as a [3]*m + [2]*m tensor, wire by wire with
    the sign table and with its absolute value. Both results come out in
    base-4 digit order. Every term is an integer count times +1, -1 or 0, so
    each sum is exact in float64 and each coefficient is one division.
    """
    counts = np.asarray(counts)
    if counts.shape != (3**m, 1 << m):
        raise InvalidParameter(f"counts shape {counts.shape} does not fit m={m}")
    sums = compat = counts.reshape([3] * m + [2] * m).astype(np.float64)
    for j in range(m):
        # the setting axis of wire j is axis 0, its outcome axis m - j
        sums = np.tensordot(sums, _SIGNS, axes=([0, m - j], [1, 2]))
        compat = np.tensordot(compat, _COMPATIBLE, axes=([0, m - j], [1, 2]))
    sums, compat = sums.reshape(-1), compat.reshape(-1)
    coeffs = np.divide(sums, compat, out=np.zeros(4**m), where=compat > 0)
    coeffs[0] = 1.0
    return coeffs, compat.astype(np.int64)


def estimate_pauli_coefficient(
    rs: RecordSet, subset: tuple[int, ...], pauli: str
) -> tuple[float, int]:
    """Mean outcome product over compatible shots; (0, 0) when none exist."""
    if len(pauli) != len(subset):
        raise WindowSizeMismatch(
            f"string {pauli!r} does not fit a {len(subset)}-wire window"
        )
    if any(c not in PAULI_LETTERS for c in pauli):
        raise InvalidParameter(f"string {pauli!r} has letters outside {PAULI_LETTERS}")
    coeffs, compat = _coefficients(cell_counts(rs, subset), len(pauli))
    code = _pauli_strings(len(pauli)).index(pauli)
    return float(coeffs[code]), int(compat[code])


@dataclass(frozen=True)
class RdmEstimate:
    """Linear-inversion window estimate plus per-string compatibility counts."""

    subset: tuple[int, ...]
    matrix: DensityMatrix
    compat_counts: dict[str, int]
    low_count_strings: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        return len(self.subset)


def estimate_window(rs: RecordSet, subset: tuple[int, ...]) -> RdmEstimate:
    return estimate_from(cell_counts(rs, subset), subset)


def estimate_from(counts: np.ndarray, subset: tuple[int, ...]) -> RdmEstimate:
    """Linear-inversion reconstruction from (3^m, 2^m) cell counts.

    All 4^m coefficients and compatible-shot counts come from one contraction
    of the counts with a per-wire table of +1, -1 and 0 (see
    :func:`_coefficients`). The sums of integer counts times those entries are
    exact in float64, so each coefficient is one division and does not depend
    on the order of summation. A string with no compatible shot gets
    coefficient 0; the identity's is pinned at 1.
    """
    subset = tuple(int(w) for w in subset)
    m = len(subset)
    coeffs, compat = _coefficients(counts, m)
    strings = _pauli_strings(m)
    matrix = np.einsum("q,qij->ij", coeffs, _pauli_tensors(m)) / (1 << m)
    return RdmEstimate(
        subset=subset,
        matrix=DensityMatrix(m, matrix),
        compat_counts=dict(zip(strings, compat.tolist())),
        low_count_strings=tuple(
            strings[i] for i in np.flatnonzero(compat < LOW_COMPAT_THRESHOLD)
        ),
    )


def pair_windows(n: int) -> list[tuple[int, ...]]:
    """All {i, j, i', j'} windows, the only subsets a Choi marginal needs."""
    return [
        (i, j, i + n, j + n) for i in range(n) for j in range(i + 1, n)
    ]


# -- physical projection and perturbation ----------------------------------------


def project_to_physical(est: RdmEstimate | DensityMatrix) -> DensityMatrix:
    """Nearest density matrix by eigenvalue clipping and renormalization."""
    dm = est.matrix if isinstance(est, RdmEstimate) else est
    w, v = np.linalg.eigh(dm.entries)
    w = np.clip(w, 0.0, None)
    fixed = (v * w) @ v.conj().T
    fixed /= np.trace(fixed).real
    return DensityMatrix(dm.n_qubits, fixed)


def perturb_matrix(matrix: np.ndarray, gamma: int, rng) -> np.ndarray:
    """Add a Hermitian Gaussian perturbation scaled by 5^gamma * 1e-4.

    gamma = 0 returns the input untouched (the noiseless reference curve).
    The noise direction is a complex Ginibre draw, Hermitized and normalized
    to unit operator norm before scaling.
    """
    if gamma == 0:
        return matrix
    rng = np.random.default_rng(rng)
    dim = matrix.shape[0]
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    h /= np.abs(np.linalg.eigvalsh(h)).max()
    return matrix + (5.0**gamma * 1e-4) * h
