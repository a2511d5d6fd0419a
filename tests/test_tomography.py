import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from qverify.benchmarks import demo_circuit
from qverify.circuits import choi_state, identity_circuit
from qverify.core import DensityMatrix, partial_trace_array, trace_distance_array
from qverify.device import Device, DeviceProfile
from qverify.errors import InvalidParameter
from qverify.gates import standard_gate_set
from qverify.reconstruction import _shot_record_set, prep_state
from qverify.tomography import (
    RecordSet,
    _coefficients,
    _pauli_strings,
    cell_counts,
    estimate_from,
    estimate_window,
    pair_windows,
    perturb_matrix,
    project_to_physical,
    required_samples,
)

from conftest import PAULI, haar_unitary, random_density

AXES = "XYZ"


# -- sample bounds ---------------------------------------------------------------


class TestRequiredSamples:
    def test_reference_value_against_high_precision(self):
        """Independent high-precision evaluation of the m=4 bound."""
        mp.dps = 50
        exact = mp.mpf(2) ** 5 * mp.mpf(10) ** 4 * mp.mpf("0.1") ** -2 * mp.log(
            mp.mpf(2) * 1 * math.comb(2, 2) / mp.mpf("0.05")
        )
        want = int(mp.ceil(exact))
        got = required_samples(m=4, n=2, d=1, eps=0.1, delta=0.05)
        assert abs(got - want) <= 1
        assert got == 118_044_143

    def test_monotone_in_delta(self):
        base = required_samples(4, 2, 1, 0.1, 0.05)
        halved = required_samples(4, 2, 1, 0.1, 0.025)
        assert halved > base

    def test_eps_scaling(self):
        base = required_samples(4, 2, 1, 0.1, 0.05)
        doubled = required_samples(4, 2, 1, 0.2, 0.05)
        assert abs(doubled - base / 4) < 2

    def test_single_layer_variant_uses_window_count(self):
        # m=2 on 4 qubits: C(4,2)=6 windows enter the log
        got = required_samples(m=2, n=4, d=1, eps=0.2, delta=0.1)
        want = math.ceil(32 * 100 * 25 * math.log(2 * 6 / 0.1))
        assert got == want

    def test_invalid_parameters(self):
        for kwargs in (
            dict(m=0, n=2, d=1, eps=0.1, delta=0.05),
            dict(m=4, n=2, d=1, eps=-1, delta=0.05),
            dict(m=4, n=2, d=1, eps=0.1, delta=1.5),
        ):
            with pytest.raises(InvalidParameter):
                required_samples(**kwargs)


# -- exact-frequency record sets ----------------------------------------------------


def bell_record_set() -> RecordSet:
    """Records whose empirical frequencies equal the Bell state's exactly.

    Every (setting, outcome) cell appears with count 4 * P(outcome | setting),
    which is an integer because Bell probabilities are quarters.
    """
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rows_b, rows_o = [], []
    for a0, a1 in itertools.product(range(3), range(3)):
        proj_dist = _born(bell, (AXES[a0], AXES[a1]))
        for outcome, p in proj_dist.items():
            count = round(p * 4)
            assert abs(count - p * 4) < 1e-9
            for _ in range(count):
                rows_b.append([a0, a1])
                rows_o.append(list(outcome))
    return RecordSet.from_shots(1, rows_b, rows_o)


def _born(state: np.ndarray, axes) -> dict:
    n = len(axes)
    out = {}
    for bits in itertools.product((1, -1), repeat=n):
        proj = np.ones((1, 1), dtype=complex)
        for axis, sign in zip(axes, bits):
            proj = np.kron(proj, (np.eye(2) + sign * PAULI[axis]) / 2)
        out[bits] = float((state.conj() @ proj @ state).real)
    return out


def pseudo_choi_record_set(u: np.ndarray, n: int) -> RecordSet:
    """Exact-frequency pseudo-measurement records for circuit ``u`` on n qubits.

    Valid whenever the per-shot outcome probabilities are multiples of 4^-n,
    which holds for stabilizer-like circuits such as the identity.
    """
    scale = 4**n
    rows_b, rows_o = [], []
    combos = itertools.product(
        itertools.product(range(3), repeat=n),      # ancilla axes
        itertools.product((1, -1), repeat=n),       # ancilla outcomes
        itertools.product(range(3), repeat=n),      # principal axes
    )
    for anc_ax, anc_out, pri_ax in combos:
        psi = np.ones(1, dtype=complex)
        for a, o in zip(anc_ax, anc_out):
            psi = np.kron(psi, prep_state(AXES[a], o))
        phi = u @ psi
        for pri_out, p in _born(phi, tuple(AXES[a] for a in pri_ax)).items():
            count = round(p * scale)
            assert abs(count - p * scale) < 1e-9, "non-dyadic probability"
            for _ in range(count):
                rows_b.append(list(pri_ax) + list(anc_ax))
                rows_o.append(list(pri_out) + list(anc_out))
    return RecordSet.from_shots(n, rows_b, rows_o)


class TestRecordSet:
    def test_digits_pack_axis_and_outcome_bit(self):
        rs = RecordSet.from_shots(1, [[0, 1], [2, 2]], [[1, -1], [-1, 1]])
        assert rs.digits.dtype == np.int8
        assert rs.digits.tolist() == [[0, 3], [5, 4]]

    @pytest.mark.parametrize(
        "digits",
        [
            np.array([[0.0, 1.0]]),  # float dtype, even with whole values
            np.array([[-1, 0]]),
            np.array([[0, 6]]),
            np.array([[259, 0]], dtype=np.int16),  # 3 after an int8 cast
        ],
        ids=["float", "digit-negative", "digit-6", "digit-259"],
    )
    def test_digits_outside_0_to_5_rejected(self, digits):
        with pytest.raises(InvalidParameter):
            RecordSet(1, digits)

    def test_caller_array_stays_writeable(self):
        a = np.zeros((2, 2), dtype=np.int8)
        rs = RecordSet(1, a)
        assert a.flags.writeable and not rs.digits.flags.writeable
        a[0, 0] = 5
        assert rs.digits.tolist() == [[0, 0], [0, 0]]

    def test_wire_count_checked(self):
        with pytest.raises(InvalidParameter):
            RecordSet(2, np.zeros((3, 2), dtype=np.int8))

    def test_from_shots_round_trips(self, rng):
        bases = rng.integers(0, 3, size=(50, 6)).astype(np.int8)
        outcomes = (1 - 2 * rng.integers(0, 2, size=(50, 6))).astype(np.int8)
        rs = RecordSet.from_shots(3, bases, outcomes)
        assert rs.bases.dtype == rs.outcomes.dtype == np.int8
        assert np.array_equal(rs.bases, bases)
        assert np.array_equal(rs.outcomes, outcomes)
        assert len(rs) == 50 and rs.wires == 6

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_from_settings_matches_repeat_then_bits(self, n, rng):
        rows = 2 * rng.integers(0, 3, size=(60, 2 * n))
        rows[:, n:] += rng.integers(0, 2, size=(60, n))
        counts = rng.integers(0, 4, size=60)
        counts[::7] = 0  # settings that ran no shot
        outcomes = rng.integers(0, 1 << n, size=counts.sum())
        # repeat each row, then add the bits of each index, qubit 0 most significant
        want = np.repeat(rows, counts, axis=0)
        for q in range(n):
            want[:, q] += (outcomes >> (n - 1 - q)) & 1
        for dtype in (np.int64, np.min_scalar_type((1 << n) - 1)):
            rs = RecordSet.from_settings(n, rows, counts, outcomes.astype(dtype))
            assert rs.digits.dtype == np.int8 and not rs.digits.flags.writeable
            assert np.array_equal(rs.digits, want)

    @pytest.mark.parametrize(
        "change",
        [
            dict(rows=[[0, 2, 1, 6], [4, 4, 0, 3]]),
            dict(rows=[[0, 2, -1, 5], [4, 4, 0, 3]]),
            dict(rows=[[0, 3, 1, 5], [4, 4, 0, 3]]),
            dict(outcomes=[0, 4, 1]),
            dict(counts=[2, 2]),
            dict(counts=[1, 1]),
        ],
        ids=["digit-6", "digit-negative", "principal-odd", "outcome-2^n", "counts-over", "counts-under"],
    )
    def test_from_settings_rejects_bad_tables(self, change):
        table = dict(rows=[[0, 2, 1, 5], [4, 4, 0, 3]], counts=[2, 1], outcomes=[0, 3, 1])
        assert len(RecordSet.from_settings(2, **table)) == 3
        with pytest.raises(InvalidParameter):
            RecordSet.from_settings(2, **{**table, **change})


def coefficients(rs: RecordSet, subset: tuple[int, ...]) -> dict:
    """{Pauli string: (coefficient, compatible shots)} of one window's contraction."""
    coeffs, compat = _coefficients(cell_counts(rs, subset), len(subset))
    return dict(zip(_pauli_strings(len(subset)), zip(coeffs.tolist(), compat.tolist())))


class TestCoefficientEstimation:
    def test_identity_string_is_normalization(self):
        rs = bell_record_set()
        value, n_compat = coefficients(rs, (0, 1))["II"]
        assert value == 1.0
        assert n_compat == len(rs)

    def test_bell_correlations_exact(self):
        rs = bell_record_set()
        for pauli, want in (("XX", 1.0), ("YY", -1.0), ("ZZ", 1.0), ("XZ", 0.0), ("IX", 0.0)):
            value, n_compat = coefficients(rs, (0, 1))[pauli]
            assert n_compat > 0
            assert abs(value - want) < 1e-12

    def test_unbiased_against_enumeration_oracle(self, rng):
        """E[estimator] over (uniform settings, Born outcomes) equals tr(rho Q)."""
        rho = random_density(2, rng, rank=3)
        for pauli in ("XI", "ZY", "XX", "IZ"):
            support = [i for i, c in enumerate(pauli) if c != "I"]
            total, weight = 0.0, 0
            for a0, a1 in itertools.product(range(3), range(3)):
                axes = (AXES[a0], AXES[a1])
                if any(axes[i] != pauli[i] for i in support):
                    continue
                weight += 1
                for bits in itertools.product((1, -1), repeat=2):
                    proj = np.kron(
                        (np.eye(2) + bits[0] * PAULI[axes[0]]) / 2,
                        (np.eye(2) + bits[1] * PAULI[axes[1]]) / 2,
                    )
                    p = float(np.trace(rho @ proj).real)
                    total += p * np.prod([bits[i] for i in support])
            oracle = total / weight
            direct = float(
                np.trace(rho @ np.kron(PAULI[pauli[0]], PAULI[pauli[1]])).real
            )
            assert abs(oracle - direct) < 1e-10

    def test_maximally_mixed_coefficients_vanish(self):
        # one record per (setting, outcome) cell: the uniform distribution
        rows_b, rows_o = [], []
        for a0, a1 in itertools.product(range(3), range(3)):
            for out in itertools.product((1, -1), repeat=2):
                rows_b.append([a0, a1])
                rows_o.append(list(out))
        rs = RecordSet.from_shots(1, rows_b, rows_o)
        for pauli in ("XI", "IZ", "XX", "YZ", "ZZ"):
            value, n_compat = coefficients(rs, (0, 1))[pauli]
            assert n_compat > 0
            assert abs(value) < 1e-12

    def test_no_compatible_shots_flagged(self):
        bases = np.zeros((4, 2), dtype=np.int8)  # all-X settings only
        outs = np.ones((4, 2), dtype=np.int8)
        rs = RecordSet.from_shots(1, bases, outs)
        value, n_compat = coefficients(rs, (0, 1))["ZZ"]
        assert (value, n_compat) == (0.0, 0)

    @pytest.mark.parametrize(
        "bases, outs",
        [
            ([[0, 3]], [[1, 1]]),  # basis code past Z
            ([[-1, 0]], [[1, 1]]),  # negative basis code
            ([[0, 1]], [[1, 0]]),  # outcome 0
            ([[0, 1]], [[2, -1]]),  # outcome 2
        ],
        ids=["basis-3", "basis-negative", "outcome-0", "outcome-2"],
    )
    def test_records_outside_the_code_ranges_rejected(self, bases, outs):
        with pytest.raises(InvalidParameter):
            RecordSet.from_shots(1, bases, outs)

    def test_subset_checked(self):
        rs = bell_record_set()
        for subset in ((0, 0), (0, 2), (-1, 1)):
            with pytest.raises(InvalidParameter):
                cell_counts(rs, subset)

    def test_counts_shape_checked(self):
        with pytest.raises(InvalidParameter):
            estimate_from(np.ones((9, 2), dtype=np.int64), (0, 1))

    def test_point_query_reads_the_window_estimate(self):
        rs = bell_record_set()
        est = estimate_window(rs, (0, 1))
        point = coefficients(rs, (0, 1))
        for pauli, n_compat in est.compat_counts.items():
            value, got = point[pauli]
            assert got == n_compat
            # linear inversion puts tr(rho Q) back at each coefficient
            back = np.trace(est.matrix.entries @ np.kron(PAULI[pauli[0]], PAULI[pauli[1]]))
            assert abs(back.real - value) < 1e-12


class TestPauliTomo:
    def test_exact_records_recover_identity_choi(self):
        rs = pseudo_choi_record_set(np.eye(4, dtype=complex), 2)
        estimates = [estimate_window(rs, subset) for subset in pair_windows(2)]
        assert len(estimates) == 1
        want = choi_state(np.eye(4), 2).density().entries
        assert trace_distance_array(estimates[0].matrix.entries, want) < 1e-9

    def test_register_windows_recover_bell(self):
        rs = pseudo_choi_record_set(np.eye(2, dtype=complex), 1)
        est = estimate_window(rs, (0, 1))
        bell = choi_state(np.eye(2), 1).density().entries
        assert trace_distance_array(est.matrix.entries, bell) < 1e-9

    def test_window_counts(self):
        assert len(pair_windows(2)) == 1
        assert len(pair_windows(4)) == 6

    def test_all_windows_share_one_record_pool(self):
        from qverify.circuits import random_circuit

        c = random_circuit(3, 1, standard_gate_set(), 12)
        dev = Device(DeviceProfile(3, 1, Fraction(1), c))
        rs = _shot_record_set(dev, 1, identity_circuit(3), 800, np.random.default_rng(3))
        estimates = [estimate_window(rs, subset) for subset in pair_windows(3)]
        assert len(estimates) == 3
        for est in estimates:
            # each of the 800 shots feeds every window: no per-subset resampling
            assert est.compat_counts["IIII"] == len(rs)
            # and lands in exactly one fully-specified setting per window
            weight4 = sum(
                count for p, count in est.compat_counts.items() if "I" not in p
            )
            assert weight4 == len(rs)

    def test_estimates_hermitian_unit_trace(self):
        c = demo_circuit(1)
        dev = Device(DeviceProfile(2, c.depth, Fraction(1), c))
        rs = _shot_record_set(dev, 2, identity_circuit(2), 2000, np.random.default_rng(4))
        est = estimate_window(rs, (0, 1, 2, 3))
        m = est.matrix.entries
        assert np.allclose(m, m.conj().T)
        assert abs(np.trace(m).real - 1) < 1e-12


class TestProjection:
    def test_psd_input_unchanged(self, rng):
        rho = random_density(2, rng)
        out = project_to_physical(DensityMatrix(2, rho))
        assert trace_distance_array(out.entries, rho) < 1e-10

    def test_clips_negative_eigenvalue(self):
        dm = DensityMatrix(1, np.diag([1.1, -0.1]).astype(complex))
        out = project_to_physical(dm)
        assert np.allclose(out.entries, np.diag([1.0, 0.0]))

    def test_perturbed_pure_state_becomes_physical(self, rng):
        v = haar_unitary(4, rng)[:, 0]
        rho = np.outer(v, v.conj())
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise = (noise + noise.conj().T) / 2
        noise -= np.trace(noise) / 4 * np.eye(4)
        raw = DensityMatrix(2, rho + 0.05 * noise)
        out = project_to_physical(raw)
        assert out.is_physical
        assert abs(np.trace(out.entries).real - 1) < 1e-12


class TestPerturbation:
    def test_gamma_zero_is_noiseless(self, rng):
        m = random_density(2, rng)
        assert perturb_matrix(m, 0, rng) is m

    def test_scaling_and_hermiticity(self, rng):
        m = random_density(2, rng)
        for gamma in (1, 3, 5):
            out = perturb_matrix(m, gamma, np.random.default_rng(7))
            diff = out - m
            assert np.allclose(diff, diff.conj().T)
            norm = np.abs(np.linalg.eigvalsh(diff)).max()
            assert abs(norm - 5.0**gamma * 1e-4) < 1e-12


class TestSampleBoundEmpirically:
    def test_two_qubit_bound_holds_at_desk_scale(self):
        """Register windows stay inside eps at the full m=2 sample count."""
        eps, delta = 0.2, 0.1
        n_samples = required_samples(m=2, n=2, d=1, eps=eps, delta=delta)
        gs = standard_gate_set()
        failures = 0
        trials = 100
        for trial in range(trials):
            rng = np.random.default_rng(3_000 + trial)
            from qverify.circuits import random_circuit

            c = random_circuit(2, 1, gs, rng)
            dev = Device(DeviceProfile(2, 1, Fraction(1), c))
            rs = _shot_record_set(dev, 1, identity_circuit(2), n_samples, rng)
            omega = dev.ideal_choi_state(identity_circuit(2), 1)
            rho = np.outer(omega.amplitudes, omega.amplitudes.conj())
            worst = 0.0
            for q in range(2):
                est = estimate_window(rs, (q, q + 2)).matrix.entries
                ideal = partial_trace_array(rho, [q, q + 2], 4)
                worst = max(worst, trace_distance_array(est, ideal))
            if worst >= eps:
                failures += 1
        assert failures / trials <= delta
