import numpy as np
import pytest

from qverify.core import (
    DensityMatrix,
    PauliBasis,
    StateVec,
    apply_unitary_array,
    exact_pauli_distribution,
    partial_trace_array,
    purity,
    relative_fidelity_array,
    trace_distance_array,
)
from qverify.errors import DimensionMismatch, NotNormalized
from qverify.gates import BUILTIN_MATRICES

from conftest import brute_partial_trace, brute_pauli_distribution, haar_unitary, random_state_vec

H = BUILTIN_MATRICES["H"]
X = BUILTIN_MATRICES["X"]
CNOT = BUILTIN_MATRICES["CNOT"]

BELL = StateVec(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def ket(n, index):
    return StateVec(n, np.eye(1 << n)[index])


class TestApplyUnitary:
    def test_h_on_zero(self):
        out = apply_unitary_array(ket(1, 0).amplitudes, H, (0,), 1)
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_cnot_flips_target(self):
        out = apply_unitary_array(ket(2, 0b10).amplitudes, CNOT, (0, 1), 2)
        assert np.allclose(out, ket(2, 0b11).amplitudes)

    def test_x_on_second_qubit(self):
        out = apply_unitary_array(ket(2, 0b00).amplitudes, X, (1,), 2)
        assert np.allclose(out, ket(2, 0b01).amplitudes)

    def test_norm_preserved_on_random_pairs(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            arity = int(rng.integers(1, min(n, 2) + 1))
            targets = tuple(rng.choice(n, size=arity, replace=False))
            u = haar_unitary(1 << arity, rng)
            out = apply_unitary_array(random_state_vec(n, rng), u, targets, n)
            assert abs(np.linalg.norm(out) - 1) < 1e-9

    def test_matches_kron_embedding(self, rng):
        psi = random_state_vec(3, rng)
        u = haar_unitary(2, rng)
        out = apply_unitary_array(psi, u, (1,), 3)
        full = np.kron(np.kron(np.eye(2), u), np.eye(2))
        assert np.allclose(out, full @ psi)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace_array(BELL.density().entries, [0], 2)
        assert np.allclose(reduced, np.eye(2) / 2)

    def test_product_factor(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        state = StateVec(2, np.kron([1, 0], plus))
        reduced = partial_trace_array(state.density().entries, [1], 2)
        assert np.allclose(reduced, np.outer(plus, plus.conj()))

    def test_cnot_choi_control_marginal(self):
        # (CNOT x I)|Psi> on wires (w1, w2, w1', w2'), marginal on (w1, w1')
        psi = np.zeros(16, dtype=complex)
        for i in range(4):
            psi[(i << 2) | i] = 0.5
        omega = np.kron(CNOT, np.eye(4)) @ psi
        rho = np.outer(omega, omega.conj())
        expected = brute_partial_trace(rho, [0, 2], 4)
        got = partial_trace_array(rho, [0, 2], 4)
        assert np.allclose(got, expected, atol=1e-12)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = want[3, 3] = 0.5
        assert np.allclose(got, want)

    def test_matches_brute_force_on_random_states(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            v = random_state_vec(n, rng)
            rho = np.outer(v, v.conj())
            size = int(rng.integers(1, n))
            keep = sorted(rng.choice(n, size=size, replace=False))
            got = partial_trace_array(rho, keep, n)
            assert np.allclose(got, brute_partial_trace(rho, keep, n), atol=1e-12)

    def test_preserves_trace_and_hermiticity(self, rng):
        v = random_state_vec(3, rng)
        reduced = partial_trace_array(np.outer(v, v.conj()), [0, 2], 3)
        assert abs(np.trace(reduced) - 1) < 1e-10
        assert np.allclose(reduced, reduced.conj().T)

    def test_disjoint_removals_commute(self, rng):
        v = random_state_vec(4, rng)
        rho = np.outer(v, v.conj())
        # removing qubit 3 then qubit 0 equals removing qubit 0 then qubit 3
        a = partial_trace_array(partial_trace_array(rho, [0, 1, 2], 4), [1, 2], 3)
        b = partial_trace_array(partial_trace_array(rho, [1, 2, 3], 4), [0, 1], 3)
        assert np.allclose(a, b, atol=1e-12)


class TestTraceDistance:
    def test_identical_states(self):
        bell = BELL.density().entries
        assert trace_distance_array(bell, bell) == 0

    def test_orthogonal_pure_states(self):
        d = trace_distance_array(ket(1, 0).density().entries, ket(1, 1).density().entries)
        assert abs(d - 1) < 1e-12

    def test_zero_versus_plus(self):
        plus = H[:, 0]
        d = trace_distance_array(ket(1, 0).density().entries, np.outer(plus, plus.conj()))
        assert abs(d - 1 / np.sqrt(2)) < 1e-12

    def test_symmetry_triangle_and_range(self, rng):
        for _ in range(200):
            a, b, c = (np.outer(v, v.conj()) for v in (random_state_vec(2, rng) for _ in range(3)))
            dab, dba = trace_distance_array(a, b), trace_distance_array(b, a)
            dac, dcb = trace_distance_array(a, c), trace_distance_array(c, b)
            assert abs(dab - dba) < 1e-12
            assert dab <= dac + dcb + 1e-12
            assert -1e-12 <= dab <= 1 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance_array(ket(1, 0).density().entries, BELL.density().entries)


class TestPurity:
    def test_pure_state(self, rng):
        v = random_state_vec(2, rng)
        assert abs(purity(DensityMatrix(2, np.outer(v, v.conj()))) - 1) < 1e-10

    def test_maximally_mixed(self):
        assert abs(purity(DensityMatrix(1, np.eye(2) / 2)) - 0.5) < 1e-12

    def test_cnot_choi_marginal(self):
        psi = np.zeros(16, dtype=complex)
        for i in range(4):
            psi[(i << 2) | i] = 0.5
        omega = np.kron(CNOT, np.eye(4)) @ psi
        marg = partial_trace_array(np.outer(omega, omega.conj()), [0, 2], 4)
        assert abs(purity(DensityMatrix(2, marg)) - 0.5) < 1e-12

    def test_rejects_unnormalized(self):
        bad = DensityMatrix.__new__(DensityMatrix)
        object.__setattr__(bad, "n_qubits", 1)
        object.__setattr__(bad, "entries", np.eye(2, dtype=complex))
        with pytest.raises(NotNormalized):
            purity(bad)


class TestRelativeFidelity:
    def test_equal_states(self, rng):
        for _ in range(20):
            v = random_state_vec(2, rng)
            rho = np.outer(v, v.conj())
            assert abs(relative_fidelity_array(rho, rho) - 1) < 1e-10

    def test_orthogonal_pure_states(self):
        f = relative_fidelity_array(ket(1, 0).density().entries, ket(1, 1).density().entries)
        assert abs(f) < 1e-12

    def test_mixed_against_pure(self):
        f = relative_fidelity_array(np.eye(2) / 2, ket(1, 0).density().entries)
        assert abs(f - 1 / np.sqrt(2)) < 1e-12


class TestExactDistribution:
    def test_bell_zz_correlations(self):
        dist = exact_pauli_distribution(BELL, PauliBasis(("Z", "Z")))
        assert abs(dist[(1, 1)] - 0.5) < 1e-12
        assert abs(dist[(-1, -1)] - 0.5) < 1e-12
        assert dist[(1, -1)] < 1e-12 and dist[(-1, 1)] < 1e-12

    def test_bell_xx_against_projector_oracle(self):
        dist = exact_pauli_distribution(BELL, PauliBasis(("X", "X")))
        oracle = brute_pauli_distribution(BELL.amplitudes, "XX")
        for k, p in oracle.items():
            assert abs(dist[k] - p) < 1e-12
        assert abs(dist[(1, 1)] - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exact_pauli_distribution(BELL, PauliBasis(("Z",)))

    def test_zero_state(self):
        dist = exact_pauli_distribution(ket(1, 0), PauliBasis(("Z",)))
        assert abs(dist[(1,)] - 1) < 1e-12

    def test_sums_to_one_on_random_states(self, rng):
        for axes in ("XYZ", "ZZX"):
            state = StateVec(3, random_state_vec(3, rng))
            dist = exact_pauli_distribution(state, PauliBasis(axes))
            assert abs(sum(dist.values()) - 1) < 1e-12
            oracle = brute_pauli_distribution(state.amplitudes, axes)
            for k, p in oracle.items():
                assert abs(dist[k] - p) < 1e-10


class TestTypes:
    def test_state_vec_validates_norm(self):
        with pytest.raises(NotNormalized):
            StateVec(1, np.array([1.0, 1.0]))
        with pytest.raises(NotNormalized, match=r"^norm deviates from 1 by .*nan"):
            StateVec(1, np.array([np.nan, 0.0]))

    def test_state_vec_validates_length(self):
        with pytest.raises(DimensionMismatch):
            StateVec(2, np.array([1.0, 0.0]))

    def test_density_matrix_validates(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(1, np.array([[0.5, 1j], [2j, 0.5]]))
        with pytest.raises(NotNormalized):
            DensityMatrix(1, np.eye(2, dtype=complex))
        # inf and -inf on the diagonal are Hermitian, and their trace is NaN
        with pytest.raises(NotNormalized, match=r"^trace .*nan.* is not 1$"):
            DensityMatrix(1, np.diag([np.inf, -np.inf]).astype(complex))

    def test_density_matrix_flags_nonphysical(self):
        m = np.diag([1.1, -0.1]).astype(complex)
        dm = DensityMatrix(1, m)
        assert not dm.is_physical
        assert DensityMatrix(1, np.eye(2) / 2).is_physical

    def test_basis_validation(self):
        with pytest.raises(DimensionMismatch):
            PauliBasis(("Q",))

    def test_immutability(self):
        state = ket(1, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
