"""Overlapping tomography from pooled random-Pauli measurement records.

A record set is one (shots, 2n) int8 array of wire digits: n principal wires
followed by their n classically generated ancilla wires. A shot's digit on a
wire packs the setting axis and the outcome, ``2 * axis + bit`` with axis
0=X, 1=Y, 2=Z and bit 0 for the +1 outcome and 1 for -1, so digits run 0..5.
The shot path builds it once with :meth:`RecordSet.from_settings`, from one
digit row per setting, the setting's shot count and one outcome index per shot:
each row is repeated once per shot and the principal outcome bits are added in
place, so the only per-shot arrays are the digits (2n bytes) and the outcomes.
A Pauli-string coefficient over any wire subset is estimated as the mean, over
the shots whose axes agree with the string at every non-identity position, of
the product of outcomes at those positions. Each shot therefore contributes to
every compatible window simultaneously; no per-window resampling happens.

A window's shots are first binned into (setting, outcome) cell counts: one
base-6 code per shot over the window's digits, one ``np.bincount`` over the
6^m cells per fixed block of shots, and a reordering into a (3^m, 2^m) matrix. All 4^m coefficients
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
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .core import DensityMatrix, PAULIS
from .errors import InvalidParameter

PAULI_LETTERS = "IXYZ"

LOW_COMPAT_THRESHOLD = 30


# -- sample-count bounds ---------------------------------------------------------


def required_samples(m: int, n: int, d: int, eps: float, delta: float) -> int:
    """The paper's shots for eps-accurate m-wire windows with probability 1-delta.

    ``ceil(2^5 * 10^m * eps^-2 * ln(2 d W / delta))`` with natural log, where
    W is C(n,2) pair windows for m=4 (the Choi-marginal case, with the failure
    budget split over d layers) and C(n,m) otherwise. It does not size a
    strict run: the window decoder needs no eps-accurate window, only boxes
    that single out one element. At m=4, n=3, d=3, eps=0.1 and delta=0.05
    this asks for about 1.9e8 shots, where strict runs certify near 1e3.
    """
    if m < 1 or n < 1 or d < 1:
        raise InvalidParameter(f"m={m}, n={n}, d={d} must be positive")
    if eps <= 0 or not (0 < delta < 1):
        raise InvalidParameter(f"eps={eps}, delta={delta} out of range")
    windows = math.comb(n, 2) if m == 4 else math.comb(n, m)
    if windows < 1:
        raise InvalidParameter(f"no windows of size {m} on {n} qubits")
    return math.ceil(2**5 * 10**m * eps**-2 * math.log(2 * d * windows / delta))


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
        # a private copy, so freezing it leaves the caller's array writeable
        digits = np.array(digits, dtype=np.int8, order="C")
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

    @classmethod
    def from_settings(cls, n: int, rows, counts, outcomes) -> RecordSet:
        """Records of shots run setting by setting, built in one pass.

        Row i of the (settings, 2n) ``rows`` holds setting i's wire digits with
        the principal outcome bits left 0, so every principal digit is even.
        ``counts[i]`` shots ran setting i; ``outcomes`` holds one outcome index
        per shot, grouped by setting in row order, below 2^n with qubit 0 the
        most significant bit (a 0 bit is the +1 outcome). Only the rows, counts
        and outcomes are checked: the digits are made once, by repeating each
        row and adding the principal bits in place, and never copied or scanned.
        """
        rows, counts, outcomes = np.asarray(rows), np.asarray(counts), np.asarray(outcomes)
        if rows.ndim != 2 or rows.shape[1] != 2 * n or counts.shape != rows.shape[:1]:
            raise InvalidParameter(
                f"expected rows shaped (settings, {2 * n}) and one count per row, "
                f"got {rows.shape} and {counts.shape}"
            )
        if outcomes.ndim != 1 or not all(
            np.issubdtype(a.dtype, np.integer) for a in (rows, counts, outcomes)
        ):
            raise InvalidParameter("rows, counts and outcomes must be integer arrays")
        if rows.size and (rows.min() < 0 or rows.max() > 5):
            raise InvalidParameter("digits must be 2 * axis + bit, in 0..5")
        if (rows[:, :n] & 1).any():
            raise InvalidParameter("principal digits must be even: their bits are the outcomes")
        if counts.size and counts.min() < 0:
            raise InvalidParameter(f"negative shot count {counts.min()}")
        if int(counts.sum()) != len(outcomes):
            raise InvalidParameter(f"counts sum to {counts.sum()}, not {len(outcomes)} outcomes")
        if outcomes.size and (outcomes.min() < 0 or outcomes.max() >= 1 << n):
            raise InvalidParameter(f"outcome index outside 0..{(1 << n) - 1}")
        outcomes = outcomes.astype(np.min_scalar_type((1 << n) - 1), copy=False)
        digits = np.repeat(rows.astype(np.int8, copy=False), counts.astype(np.intp, copy=False), axis=0)
        for q in range(n):  # qubit 0 is the most significant bit of an index
            digits[:, q] += (outcomes >> (n - 1 - q)) & 1
        digits.flags.writeable = False
        # the checks above hold for every digit, so __post_init__'s copy and scan are skipped
        rs = object.__new__(cls)
        object.__setattr__(rs, "n", n)
        object.__setattr__(rs, "digits", digits)
        return rs

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


# Shots binned at a time by cell_counts: a block's codes and the intp copy
# np.bincount makes of them take at most 16 x _CELL_ROWS bytes.
_CELL_ROWS = 1 << 14


def cell_counts(rs: RecordSet, subset: tuple[int, ...]) -> np.ndarray:
    """(3^m, 2^m) shot counts per (setting, outcome) cell on the subset wires.

    Rows index the joint setting, columns the joint outcome bits (0 for +1),
    both with the first subset wire as the most significant digit. Each shot
    gets one base-6 code over its subset digits, and one ``np.bincount`` per
    block of :data:`_CELL_ROWS` shots bins them; int16 codes hold the 6^m
    cells up to m = 5.
    """
    subset = tuple(int(w) for w in subset)
    if len(set(subset)) != len(subset):
        raise InvalidParameter(f"repeated wire in subset {subset}")
    if any(w < 0 or w >= rs.wires for w in subset):
        raise InvalidParameter(f"subset {subset} outside the {rs.wires} wires")
    m = len(subset)
    cells = np.zeros(6**m, dtype=np.intp)
    for lo in range(0, len(rs), _CELL_ROWS):
        block = rs.digits[lo : lo + _CELL_ROWS]
        code = np.zeros(len(block), dtype=np.int16 if 6**m <= 1 << 15 else np.int64)
        for w in subset:
            code *= 6
            code += block[:, w]
        cells += np.bincount(code, minlength=6**m)
    # digit j of the code is (axis, bit) of wire j; move the bits after the axes
    cells = cells.reshape((3, 2) * m)
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


@dataclass(frozen=True)
class RdmEstimate:
    """Linear-inversion window estimate with its Pauli coefficients and counts.

    ``coefficients`` holds all 4^m coefficients in base-4 digit order, the
    identity's first; ``counts`` the compatible-shot count of each string, or
    None for an exact (infinite-shot) estimate.
    """

    subset: tuple[int, ...]
    matrix: DensityMatrix
    coefficients: np.ndarray
    counts: np.ndarray | None = None
    low_count_strings: tuple[str, ...] = ()

    @property
    def compat_counts(self) -> dict[str, int]:
        """Compatible-shot count per Pauli string; empty for an exact estimate."""
        if self.counts is None:
            return {}
        return dict(zip(_pauli_strings(len(self.subset)), self.counts.tolist()))


_PAULI_STACK = np.stack([PAULIS[c] for c in PAULI_LETTERS])


def pauli_coefficients(matrices: np.ndarray) -> np.ndarray:
    """Every coefficient tr(Q rho), base-4 digit order, of each (..., 2^m, 2^m) matrix.

    Contracts each wire's row and column index with the four Paulis in turn,
    so no 4^m x 4^m table is built.
    """
    batch = matrices.ndim - 2
    m = matrices.shape[-1].bit_length() - 1
    out = matrices.reshape(*matrices.shape[:-2], *[2] * (2 * m))
    for j in range(m):
        # wire j's row index is axis `batch`, its column index `batch + m - j`
        out = np.tensordot(out, _PAULI_STACK, axes=([batch, batch + m - j], [2, 1]))
    return out.reshape(*matrices.shape[:-2], 4**m).real


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
        coefficients=coeffs,
        counts=compat,
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


def project_to_physical(dm: DensityMatrix) -> DensityMatrix:
    """Nearest density matrix by eigenvalue clipping and renormalization."""
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
