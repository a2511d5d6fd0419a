"""Property-based checks over randomly drawn inputs."""

from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qverify.circuits import choi_state, emit_circuit, parse_circuit, random_circuit
from qverify.core import (
    ATOL,
    DensityMatrix,
    _allclose,
    is_unitary,
    partial_trace_array,
    pure_marginal_array,
    purity,
    trace_distance_array,
)
from qverify.errors import DimensionMismatch, NotNormalized
from qverify import tomography
from qverify.gates import qft_gate_set, standard_gate_set
from qverify.reconstruction import MIN_CONTRACTION, _admitted
from qverify.resolution import coefficient_table
from qverify.tomography import (
    RecordSet,
    _coefficients,
    cell_counts,
    estimate_from,
    project_to_physical,
    required_samples,
)

from conftest import brute_partial_trace, haar_unitary, random_density, random_state_vec

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(2, 4))
def test_partial_trace_agrees_with_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    v = random_state_vec(n, rng)
    rho = np.outer(v, v.conj())
    size = int(rng.integers(1, n))
    keep = sorted(rng.choice(n, size=size, replace=False))
    got = partial_trace_array(rho, keep, n)
    assert np.allclose(got, brute_partial_trace(rho, keep, n), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 6))
def test_pure_marginal_agrees_with_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    v = random_state_vec(n, rng)
    size = int(rng.integers(1, n + 1))
    keep = sorted(rng.choice(n, size=size, replace=False).tolist())
    got = pure_marginal_array(v, keep, n)
    want = brute_partial_trace(np.outer(v, v.conj()), keep, n)
    assert np.abs(got - want).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(2, 4))
def test_pure_marginal_of_choi_window_agrees_with_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    v = choi_state(haar_unitary(1 << n, rng), n).amplitudes
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
    keep = [i, j, i + n, j + n]
    got = pure_marginal_array(v, keep, 2 * n)
    want = brute_partial_trace(np.outer(v, v.conj()), keep, 2 * n)
    assert np.abs(got - want).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_projection_is_idempotent_and_physical(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, rng)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    noise = (noise + noise.conj().T) / 2
    noise -= np.trace(noise) / 4 * np.eye(4)
    raw = DensityMatrix(2, rho + 0.1 * noise)
    once = project_to_physical(raw)
    twice = project_to_physical(once)
    assert once.is_physical
    assert trace_distance_array(once.entries, twice.entries) < 1e-10


SPECIALS = (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.inf, -np.inf), complex(1, np.nan))


def _density_verdict(m: np.ndarray):
    """What DensityMatrix(n, m) raises or returns: a plain np.allclose Hermitian
    check, then a trace whose real part must lie within 1e-9 of 1 (NaN does not)."""
    if not np.allclose(m, m.conj().T, atol=ATOL):
        return DimensionMismatch, "matrix is not Hermitian within 1e-9"
    with np.errstate(invalid="ignore"):
        trace = np.trace(m)
    if not abs(trace.real - 1.0) <= 1e-9:
        return NotNormalized, f"trace {trace!r} is not 1"
    return None


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    n=st.integers(1, 3),
    scale=st.sampled_from((0.0, 1e-13, 1e-10, 5e-10, 1e-9, 3e-9, 1e-7, 1e-5, 1e-3)),
    specials=st.integers(0, 2),
    where=st.sampled_from(("a", "b", "both")),
)
# inf and -inf on the diagonal: a Hermitian matrix whose trace is NaN
@example(seed=3266816, n=2, scale=0.0, specials=2, where="a")
def test_allclose_gives_numpy_verdict(seed, n, scale, specials, where):
    """Hermitian, near-Hermitian and NaN/inf input: np.allclose's verdict, exception and message."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    rho = random_density(n, rng)
    m = rho + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    for _ in range(specials):
        m[tuple(rng.integers(0, dim, size=2))] = SPECIALS[rng.integers(len(SPECIALS))]
    assert _allclose(m, m.conj().T) == np.allclose(m, m.conj().T, atol=ATOL)

    a, b = rho.copy(), m.copy()
    if where != "b":
        a, b = b, a
    if where == "both":
        b[0, 0] = a[0, 0]
    assert _allclose(a, b) == np.allclose(a, b, atol=ATOL)

    want = _density_verdict(m)
    if want is None:
        assert np.array_equal(DensityMatrix(n, m).entries, m)
    else:
        with pytest.raises(want[0]) as err:
            DensityMatrix(n, m)
        assert type(err.value) is want[0] and str(err.value) == want[1]
    u = np.linalg.qr(m if np.isfinite(m).all() else rho)[0] + scale
    assert is_unitary(u) == np.allclose(u.conj().T @ u, np.eye(dim), atol=ATOL)


@pytest.mark.parametrize("special", SPECIALS)
@pytest.mark.parametrize("at", [(1, 1), (0, 1)])
def test_allclose_on_one_non_finite_entry(special, at):
    """On or off the diagonal: a real inf equals its conjugate, an imaginary one does not."""
    m = np.eye(2, dtype=complex) / 2
    m[at] = special
    assert _allclose(m, m.conj().T) == np.allclose(m, m.conj().T, atol=ATOL)
    want = _density_verdict(m)
    with pytest.raises(want[0]) as err:
        DensityMatrix(1, m)
    assert str(err.value) == want[1]


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_purity_bounds(seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(2, random_density(2, rng, rank=3))
    p = purity(rho)
    assert 0.25 - 1e-12 <= p <= 1 + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(0.01, 0.5),
    delta=st.floats(0.001, 0.5),
    n=st.integers(2, 8),
    d=st.integers(1, 10),
)
def test_required_samples_monotonicity(eps, delta, n, d):
    base = required_samples(4, n, d, eps, delta)
    assert required_samples(4, n, d, eps, delta / 2) > base
    assert required_samples(4, n, d, eps * 2, delta) < base
    assert required_samples(4, n + 1, d, eps, delta) >= base


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 4), d=st.integers(0, 4))
def test_circuit_round_trip(seed, n, d):
    circuit = random_circuit(n, d, standard_gate_set(), seed)
    assert parse_circuit(emit_circuit(circuit)) == circuit


def _reference_coefficient(counts: np.ndarray, pauli: str) -> tuple[float, int]:
    """Mean outcome product over the compatible cells, one string at a time."""
    m = len(pauli)
    total, n_compat = 0, 0
    for s, axes in enumerate(product("XYZ", repeat=m)):
        if any(c not in ("I", a) for c, a in zip(pauli, axes)):
            continue
        for o, signs in enumerate(product((1, -1), repeat=m)):
            sign = int(np.prod([b for c, b in zip(pauli, signs) if c != "I"]))
            total += sign * int(counts[s, o])
            n_compat += int(counts[s, o])
    if set(pauli) == {"I"}:
        return 1.0, n_compat
    return (total / n_compat if n_compat else 0.0), n_compat


@settings(max_examples=24, deadline=None)
@given(seed=seeds, m=st.integers(1, 4), high=st.integers(1, 6))
def test_window_coefficients_match_per_string_reference(seed, m, high):
    rng = np.random.default_rng(seed)
    # sparse counts, so some strings have no compatible shot at all
    counts = rng.integers(0, high + 1, size=(3**m, 1 << m))
    counts *= rng.random(counts.shape) < 0.3
    # records on the wires of a random m-subset of 2n = 4 wires, in that order
    subset = tuple(int(w) for w in rng.permutation(4)[:m])
    settings_, outcomes = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), 1 << m)
    bases = np.zeros((len(settings_), 4), dtype=np.int8)
    outs = np.ones((len(settings_), 4), dtype=np.int8)
    for j, w in enumerate(subset):
        bases[:, w] = settings_ // 3 ** (m - 1 - j) % 3
        outs[:, w] = 1 - 2 * (outcomes >> (m - 1 - j) & 1)
    rs = RecordSet.from_shots(2, bases, outs)
    assert np.array_equal(cell_counts(rs, subset), counts)
    est = estimate_from(counts, subset)
    coeffs, compat = _coefficients(cell_counts(rs, subset), m)
    for code, pauli in enumerate("".join(p) for p in product("IXYZ", repeat=m)):
        want = _reference_coefficient(counts, pauli)
        assert (coeffs[code], compat[code]) == want
        assert est.compat_counts[pauli] == want[1]


@pytest.mark.parametrize("m", range(1, 7))
@settings(max_examples=8, deadline=None)
@given(seed=seeds, shots=st.integers(0, 400))
def test_cell_counts_match_per_shot_reference(m, seed, shots):
    """Binning agrees with one shot at a time, also past the 6^5 int16 codes.

    Blocks of 1 and 7 shots, and the default block, must give the same counts.
    """
    rng = np.random.default_rng(seed)
    n = 4
    bases = rng.integers(0, 3, size=(shots, 2 * n))
    outcomes = 1 - 2 * rng.integers(0, 2, size=(shots, 2 * n))
    subset = tuple(int(w) for w in rng.permutation(2 * n)[:m])
    want = np.zeros((3**m, 1 << m), dtype=np.int64)
    for b, o in zip(bases, outcomes):
        row = sum(int(b[w]) * 3 ** (m - 1 - j) for j, w in enumerate(subset))
        col = sum(int(o[w] < 0) << (m - 1 - j) for j, w in enumerate(subset))
        want[row, col] += 1
    rs = RecordSet.from_shots(n, bases, outcomes)
    for rows in (1, 7, tomography._CELL_ROWS):
        with patch.object(tomography, "_CELL_ROWS", rows):
            assert np.array_equal(cell_counts(rs, subset), want), rows


@pytest.mark.parametrize("gs", [standard_gate_set(), qft_gate_set()], ids=["standard", "qft"])
@settings(max_examples=10, deadline=None)
@given(seed=seeds, corners=st.booleans())
@example(seed=0, corners=True)
def test_truth_inside_its_boxes_is_admitted(gs, seed, corners):
    """Coefficients anywhere inside an element's boxes admit it, at any contraction.

    Twenty draws per element: lambda at MIN_CONTRACTION, at 1 and uniform in
    between, half-widths log-uniform in [1e-4, 1], and each coefficient at
    lambda * e_P + s_P * h_P with s_P uniform in (-1, 1), or with s_P = +-1 on
    every string when ``corners`` is set: the box corners, where the feasible
    lambda is a single point.
    """
    rng = np.random.default_rng(seed)
    table = coefficient_table(gs)
    e = np.zeros((len(table.elements), 256))
    np.put_along_axis(e, table.index, table.value, axis=1)
    truth = np.repeat(np.arange(len(e)), 20)
    lam = rng.uniform(MIN_CONTRACTION, 1.0, size=len(truth))
    lam[0::20], lam[1::20] = MIN_CONTRACTION, 1.0
    h = 10 ** rng.uniform(-4, 0, size=(len(truth), 256))
    s = rng.choice((-1.0, 1.0), size=h.shape) if corners else rng.uniform(-1, 1, size=h.shape)
    c = lam[:, None] * e[truth] + s * h
    c[:, 0], h[:, 0] = 0.0, np.inf  # the identity column, as the decoder's boxes set it
    assert _admitted(c, h, table)[np.arange(len(truth)), truth].all()
