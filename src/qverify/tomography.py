"""Overlapping tomography from pooled random-Pauli measurement records.

Every shot carries one basis axis and one +1/-1 outcome per virtual wire
(n principal wires followed by their n classically generated ancilla wires).
A Pauli-string coefficient over any wire subset is estimated as the mean, over
the shots whose bases agree with the string at every non-identity position, of
the product of outcomes at those positions. Each shot therefore contributes to
every compatible window simultaneously; no per-window resampling happens.

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

import numpy as np

from .core import DensityMatrix, PAULIS
from .errors import InvalidParameter, WindowSizeMismatch
from .rng import ensure_rng

AXIS_CODE = {"X": 0, "Y": 1, "Z": 2}
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
    windows: int | None = None,
) -> int:
    """Shots guaranteeing eps-accurate m-wire windows with probability 1-delta.

    ``ceil(scale * 2^5 * 10^m * eps^-2 * ln(2 d W / delta))`` with natural log,
    where W defaults to C(n,2) pair windows for m=4 (the Choi-marginal case,
    with the failure budget split over d layers) and to C(n,m) otherwise.
    ``scale < 1`` trades the guarantee for desk-scale feasibility and warns.
    """
    if m < 1 or n < 1 or d < 1:
        raise InvalidParameter(f"m={m}, n={n}, d={d} must be positive")
    if eps <= 0 or not (0 < delta < 1) or scale <= 0:
        raise InvalidParameter(f"eps={eps}, delta={delta}, scale={scale} out of range")
    if windows is None:
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
    """Measurement records over 2n virtual wires, stored columnwise.

    ``bases`` holds axis codes (0=X, 1=Y, 2=Z) and ``outcomes`` +1/-1 values,
    both shaped (shots, 2n); wire i < n is principal, wire n+i its ancilla.
    """

    n: int
    bases: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        bases = np.ascontiguousarray(self.bases, dtype=np.int8)
        outcomes = np.ascontiguousarray(self.outcomes, dtype=np.int8)
        if bases.shape != outcomes.shape or bases.ndim != 2:
            raise InvalidParameter("bases and outcomes must share shape (shots, wires)")
        if bases.shape[1] != 2 * self.n:
            raise InvalidParameter(
                f"expected {2 * self.n} wires, got {bases.shape[1]}"
            )
        for arr in (bases, outcomes):
            arr.flags.writeable = False
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return self.bases.shape[0]

    @property
    def wires(self) -> int:
        return 2 * self.n


# -- Pauli coefficient estimation ---------------------------------------------


@lru_cache(maxsize=8)
def _setting_digits(m: int) -> np.ndarray:
    """(3^m, m) table of axis codes for every joint setting."""
    grids = np.indices([3] * m).reshape(m, -1).T
    return np.ascontiguousarray(grids, dtype=np.int8)


@lru_cache(maxsize=8)
def _outcome_signs(m: int) -> np.ndarray:
    """(2^m, m) table of +1/-1 outcomes for every joint result."""
    bits = np.indices([2] * m).reshape(m, -1).T
    return np.ascontiguousarray(1 - 2 * bits, dtype=np.int8)


@lru_cache(maxsize=8)
def _pauli_tensors(m: int) -> np.ndarray:
    """(4^m, 2^m, 2^m) tensor-product Pauli basis, base-4 digit order."""
    out = np.empty((4**m, 1 << m, 1 << m), dtype=complex)
    for code in range(4**m):
        letters = _code_to_string(code, m)
        out[code] = reduce(np.kron, (PAULIS[c] for c in letters))
    return out


def _code_to_string(code: int, m: int) -> str:
    digits = []
    for _ in range(m):
        digits.append(PAULI_LETTERS[code % 4])
        code //= 4
    return "".join(reversed(digits))


def _string_to_support(pauli: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    support = tuple(i for i, c in enumerate(pauli) if c != "I")
    axes = tuple(AXIS_CODE[pauli[i]] for i in support)
    return support, axes


class WindowEstimator:
    """Sufficient statistics of a record set restricted to one wire subset.

    Shots are binned by their (setting, outcome) cell on the subset wires, so
    each coefficient costs O(6^m) independent of the number of shots.
    """

    def __init__(self, rs: RecordSet, subset: tuple[int, ...]):
        subset = tuple(int(w) for w in subset)
        if len(set(subset)) != len(subset):
            raise InvalidParameter(f"repeated wire in subset {subset}")
        if any(w < 0 or w >= rs.wires for w in subset):
            raise InvalidParameter(f"subset {subset} outside the {rs.wires} wires")
        self.subset = subset
        self.m = len(subset)
        self.total = len(rs)
        sub_bases = rs.bases[:, subset].astype(np.int64)
        sub_bits = ((1 - rs.outcomes[:, subset].astype(np.int64)) // 2)
        setting = np.zeros(len(rs), dtype=np.int64)
        outcome = np.zeros(len(rs), dtype=np.int64)
        for j in range(self.m):
            setting = setting * 3 + sub_bases[:, j]
            outcome = outcome * 2 + sub_bits[:, j]
        cells = setting * (1 << self.m) + outcome
        counts = np.bincount(cells, minlength=3**self.m * (1 << self.m))
        self.counts = counts.reshape(3**self.m, 1 << self.m).astype(np.float64)

    @classmethod
    def from_counts(cls, counts: np.ndarray, subset: tuple[int, ...]) -> "WindowEstimator":
        """Build directly from a (3^m, 2^m) cell-count matrix."""
        self = cls.__new__(cls)
        self.subset = tuple(subset)
        self.m = len(subset)
        self.counts = np.asarray(counts, dtype=np.float64)
        if self.counts.shape != (3**self.m, 1 << self.m):
            raise InvalidParameter(
                f"counts shape {self.counts.shape} does not fit m={self.m}"
            )
        self.total = int(round(self.counts.sum()))
        return self

    def coefficient(self, pauli: str) -> tuple[float, int]:
        if len(pauli) != self.m:
            raise WindowSizeMismatch(
                f"string {pauli!r} does not fit a {self.m}-wire window"
            )
        support, axes = _string_to_support(pauli)
        if not support:
            return 1.0, self.total
        digits = _setting_digits(self.m)
        compatible = np.ones(digits.shape[0], dtype=bool)
        for pos, axis in zip(support, axes):
            compatible &= digits[:, pos] == axis
        signs = _outcome_signs(self.m)
        prods = signs[:, support].prod(axis=1).astype(np.float64)
        pool = self.counts[compatible]
        n_compat = int(pool.sum())
        if n_compat == 0:
            return 0.0, 0
        return float((pool @ prods).sum()) / n_compat, n_compat


def estimate_pauli_coefficient(
    rs: RecordSet, subset: tuple[int, ...], pauli: str
) -> tuple[float, int]:
    """Mean outcome product over compatible shots; (0, 0) when none exist."""
    return WindowEstimator(rs, subset).coefficient(pauli)


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
    return estimate_from(WindowEstimator(rs, subset))


def estimate_from(est: WindowEstimator) -> RdmEstimate:
    """Linear-inversion reconstruction from prepared sufficient statistics."""
    m = est.m
    coeffs = np.empty(4**m)
    compat: dict[str, int] = {}
    low: list[str] = []
    for code in range(4**m):
        pauli = _code_to_string(code, m)
        value, n_compat = est.coefficient(pauli)
        coeffs[code] = value
        compat[pauli] = n_compat
        if n_compat < LOW_COMPAT_THRESHOLD:
            low.append(pauli)
    matrix = np.einsum("q,qij->ij", coeffs, _pauli_tensors(m)) / (1 << m)
    return RdmEstimate(
        subset=tuple(est.subset),
        matrix=DensityMatrix(m, matrix),
        compat_counts=compat,
        low_count_strings=tuple(low),
    )


def pair_windows(n: int) -> list[tuple[int, ...]]:
    """All {i, j, i', j'} windows, the only subsets a Choi marginal needs."""
    return [
        (i, j, i + n, j + n) for i in range(n) for j in range(i + 1, n)
    ]


def pauli_tomo(
    m: int, rs: RecordSet, subsets: list[tuple[int, ...]] | None = None
) -> list[RdmEstimate]:
    """Estimate every requested window from one shared pool of records."""
    if subsets is None:
        if m != 4:
            raise WindowSizeMismatch("default pair windows require m = 4")
        subsets = pair_windows(rs.n)
    for subset in subsets:
        if len(subset) != m:
            raise WindowSizeMismatch(f"subset {subset} does not have size {m}")
    estimates = [estimate_window(rs, subset) for subset in subsets]
    for est in estimates:
        if est.low_count_strings:
            warnings.warn(
                f"window {est.subset}: {len(est.low_count_strings)} Pauli strings "
                f"with fewer than {LOW_COMPAT_THRESHOLD} compatible shots",
                stacklevel=2,
            )
    return estimates


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
    rng = ensure_rng(rng)
    dim = matrix.shape[0]
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    h /= np.abs(np.linalg.eigvalsh(h)).max()
    return matrix + (5.0**gamma * 1e-4) * h
