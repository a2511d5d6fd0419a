import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qverify.benchmarks import benchmark_suite, demo_circuit
from qverify.circuits import (
    Layer,
    LayeredCircuit,
    choi_state,
    compose_unitary,
    identity_circuit,
    layer_unitary,
    random_circuit,
    same_circuit,
)
from qverify.core import DensityMatrix, PauliBasis, exact_pauli_distribution
from qverify.device import Device, DeviceProfile, NoiseConfig, device_time_for_learning
from qverify.errors import (
    AmbiguousMatch,
    DegenerateGateSet,
    EmptyGateSet,
    InvalidParameter,
    NoMatch,
    OverlappingAssignment,
    ReconstructionError,
    TieWarning,
)
from qverify.gates import Gate, GateSet, builtin_gate, qft_gate_set, standard_gate_set
from qverify.reconstruction import (
    _decode_windows,
    _dedicated_record_set,
    _match,
    exact_pseudo_joint,
    learn_multi,
    match_two_qubit,
    minimize_residual,
    prep_gate_names,
    prep_state,
)
from qverify.resolution import cached_resolution, enumerate_config_classes
from qverify.tomography import RdmEstimate, pauli_coefficients

from conftest import haar_unitary


def device_for(circuit, noise=None):
    return Device(DeviceProfile(circuit.n, circuit.depth, Fraction(1), circuit), noise)


def circuit_of(n, *layers):
    return LayeredCircuit(n, tuple(layers))


def L(*pairs):
    blocks, gates = [], []
    for name, block in pairs:
        gates.append(builtin_gate(name) if isinstance(name, str) else name)
        blocks.append(block)
    return Layer(tuple(blocks), tuple(gates))


BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestPrepRules:
    def test_documented_cases(self):
        assert prep_gate_names("Z", 1) == ()
        assert prep_gate_names("X", -1) == ("X", "H")
        assert prep_gate_names("Y", 1) == ("X", "H", "S")

    def test_prepared_states_match_collapsed_bell_half(self):
        """Prep must build conj of the ancilla eigenstate, per Bell collapse."""
        eigenstates = {
            ("Z", 1): np.array([1, 0]),
            ("Z", -1): np.array([0, 1]),
            ("X", 1): np.array([1, 1]) / np.sqrt(2),
            ("X", -1): np.array([1, -1]) / np.sqrt(2),
            ("Y", 1): np.array([1, 1j]) / np.sqrt(2),
            ("Y", -1): np.array([1, -1j]) / np.sqrt(2),
        }
        for (axis, outcome), anc in eigenstates.items():
            # principal half of |Phi> after ancilla collapses onto anc
            collapsed = np.zeros(2, dtype=complex)
            for p in range(2):
                for a in range(2):
                    collapsed[p] += BELL[2 * p + a] * np.conj(anc[a])
            collapsed /= np.linalg.norm(collapsed)
            got = prep_state(axis, outcome)
            overlap = abs(np.vdot(collapsed, got))
            assert abs(overlap - 1) < 1e-10

    def test_example_states(self):
        assert np.allclose(prep_state("Z", 1), [1, 0])
        assert np.allclose(prep_state("X", -1), np.array([1, -1]) / np.sqrt(2))
        assert np.allclose(prep_state("Y", 1), np.array([1, -1j]) / np.sqrt(2))


class TestPseudoMeasurementEquivalence:
    def choi_joint(self, u, principal, ancilla):
        """Oracle: the full 2n-qubit protocol, measured jointly."""
        n = len(principal)
        omega = choi_state(u, n)
        basis = PauliBasis(tuple(principal.axes) + tuple(ancilla.axes))
        dist = exact_pauli_distribution(omega, basis)
        out = {}
        for key, p in dist.items():
            out[(key[:n], key[n:])] = out.get((key[:n], key[n:]), 0.0) + p
        return out

    @pytest.mark.parametrize("n", [1, 2])
    def test_equivalence_on_random_circuits(self, n, rng):
        for _ in range(5):
            u = haar_unitary(1 << n, rng)
            for axes in itertools.product("XYZ", repeat=2 * n):
                principal = PauliBasis(axes[:n])
                ancilla = PauliBasis(axes[n:])
                free = exact_pseudo_joint(u, principal, ancilla)
                full = self.choi_joint(u, principal, ancilla)
                tv = 0.5 * sum(
                    abs(free.get(k, 0.0) - full.get(k, 0.0))
                    for k in set(free) | set(full)
                )
                assert tv < 1e-10


# 0.001 critical values of chi-squared, by degrees of freedom 1..15
CHI2_999 = (
    10.8, 13.8, 16.3, 18.5, 20.5, 22.5, 24.3, 26.1, 27.9, 29.6, 31.3, 32.9, 34.5, 36.1, 37.7
)


class TestDedicatedRounds:
    def test_rounds_follow_the_pseudo_joint(self):
        """Each of hardware mode's nine rounds samples its exact (principal, ancilla) joint.

        Only the records are read, never the order of the draws: each round
        has ``shots`` shots, one principal axis and one ancilla axis on every
        wire, and outcome frequencies that fit :func:`exact_pseudo_joint`.
        """
        c = demo_circuit(2)
        n, k, shots = c.n, 2, 4000
        prefix = LayeredCircuit(n, c.layers[: k - 1]).inverse()
        u = compose_unitary(c, k) @ compose_unitary(prefix)
        rs = _dedicated_record_set(device_for(c), k, prefix, shots, np.random.default_rng(71))
        axis, bit = rs.digits >> 1, rs.digits & 1
        assert (axis[:, :n] == axis[:, :1]).all()
        assert (axis[:, n:] == axis[:, n : n + 1]).all()
        for p_ax, a_ax in itertools.product(range(3), range(3)):
            mine = (axis[:, 0] == p_ax) & (axis[:, n] == a_ax)
            assert mine.sum() == shots
            # cell: principal bits, then ancilla bits, qubit 0 most significant
            observed = np.bincount(bit[mine] @ (1 << np.arange(2 * n - 1, -1, -1)), minlength=4**n)
            expected = np.zeros(4**n)
            joint = exact_pseudo_joint(u, PauliBasis("XYZ"[p_ax] * n), PauliBasis("XYZ"[a_ax] * n))
            for (xp, xa), prob in joint.items():
                expected[int("".join("1" if o == -1 else "0" for o in xp + xa), 2)] = shots * prob
            live = expected > 1e-9
            assert observed[~live].sum() == 0
            chi2 = float(((observed[live] - expected[live]) ** 2 / expected[live]).sum())
            assert chi2 < CHI2_999[live.sum() - 2], f"round {p_ax, a_ax}: chi2 {chi2:.1f}"

    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_rounds_run_as_one_ordered_call(self, p):
        """The nine rounds are one device call whose rows follow the documented draw.

        Rows run round by round in (principal axis, ancilla axis) order and
        ascend in the ancilla bits inside a round; each round's ancilla bits
        are its slice of one int8 ``(9, shots, n)`` draw.
        """
        c = demo_circuit(3)
        n, k, shots = c.n, 3, 500
        prefix = LayeredCircuit(n, c.layers[: k - 1]).inverse()
        dev = device_for(c, NoiseConfig(depolarizing_p=p))
        rs = _dedicated_record_set(dev, k, prefix, shots, np.random.default_rng(72))
        assert dev.ledger.per_shot_layers == {prefix.depth + k: 9 * shots}
        weights = 1 << np.arange(n - 1, -1, -1)
        rounds = 3 * (rs.digits[:, 0] >> 1) + (rs.digits[:, n] >> 1)
        present = (rs.digits[:, n:] & 1) @ weights
        assert (np.diff(rounds) >= 0).all()
        assert (np.diff(present)[np.diff(rounds) == 0] >= 0).all()
        draw = np.random.default_rng(72).integers(0, 2, size=(9, shots, n), dtype=np.int8)
        for r, bits in enumerate(draw):
            observed = np.bincount(present[rounds == r], minlength=1 << n)
            assert np.array_equal(observed, np.bincount(bits @ weights, minlength=1 << n))


class TestMatching:
    def test_exact_cnot_choi_matches(self):
        gs = standard_gate_set()
        est = choi_state(builtin_gate("CNOT").matrix, 2).density()
        gate, dist = match_two_qubit(est, gs.doubles, eps=0.3)
        assert gate.name == "CNOT"
        assert dist < 1e-10

    def test_product_window_matches_no_double(self):
        gs = standard_gate_set()
        h2 = np.kron(builtin_gate("H").matrix, builtin_gate("H").matrix)
        est = choi_state(h2, 2).density()
        assert match_two_qubit(est, gs.doubles, eps=0.9 * 0.25) is None

    def test_empty_double_list(self):
        est = choi_state(builtin_gate("CNOT").matrix, 2).density()
        assert match_two_qubit(est, (), eps=0.3) is None

    def test_ambiguous_when_eps_too_large(self):
        gs = standard_gate_set()
        est = choi_state(np.eye(2), 1).density()
        with pytest.raises(AmbiguousMatch):
            _match(est.entries, gs.singles, 1, 1.5)

    def test_single_qubit_matches(self):
        gs = standard_gate_set()
        est = choi_state(builtin_gate("H").matrix, 1).density()
        (gate, dist), _ = _match(est.entries, gs.singles, 1, 0.2)
        assert gate.name == "H" and dist < 1e-10

    def test_maximally_mixed_matches_nothing(self):
        gs = standard_gate_set()
        est = DensityMatrix(2, np.eye(4) / 4)
        assert _match(est.entries, gs.singles, 1, 0.9 * 0.25)[0] is None

    def test_identity_only_set(self):
        ident = builtin_gate("I")
        est = choi_state(np.eye(2), 1).density()
        (gate, _), _ = _match(est.entries, (ident,), 1, 0.3)
        assert gate.name == "I"

    def test_phase_equivalent_candidates_do_not_collide(self):
        z = builtin_gate("Z")
        phased = Gate("phZ", 1, np.exp(0.4j) * z.matrix)
        est = choi_state(z.matrix, 1).density()
        (gate, _), _ = _match(est.entries, (z, phased), 1, 0.2)
        assert gate.name == "Z"


class TestLearnSingle:
    def test_learns_product_layer_exactly(self):
        c = circuit_of(2, L(("H", (0,)), ("H", (1,))))
        dev = device_for(c)
        report = learn_multi(dev, 0, standard_gate_set(), 0.22, 0, mode="strict-exact")
        assert report.circuit.layers[0] == c.layers[0]

    def test_learns_cnot_layer_exactly(self):
        c = circuit_of(2, L(("CNOT", (0, 1))))
        dev = device_for(c)
        report = learn_multi(dev, 0, standard_gate_set(), 0.22, 0, mode="strict-exact")
        assert report.circuit.layers[0] == c.layers[0]

    def test_missing_gate_reports_nearest(self):
        c = circuit_of(2, L(("X", (0,)), ("H", (1,))))
        dev = device_for(c)
        gs = GateSet(
            singles=tuple(builtin_gate(g) for g in ("I", "H", "Y", "Z")),
            doubles=(builtin_gate("CNOT"),),
        )
        with pytest.raises(NoMatch) as err:
            learn_multi(dev, 0, gs, 0.2, 0, mode="strict-exact")
        assert err.value.qubits == (0,)
        assert err.value.nearest

    def test_overlapping_assignment_detected(self):
        # crafted exact windows that disagree: (0, 1) holds the CNOT element,
        # (0, 2) a C1 element that gives qubit 0 a local gate
        gs = standard_gate_set()
        by_key = {p.key: e for e in enumerate_config_classes(gs) for p in e.provenance}

        def window(subset, key):
            state = by_key[key].state.entries
            return RdmEstimate(subset, DensityMatrix(4, state), pauli_coefficients(state))

        estimates = [window((0, 1, 3, 4), ("C2", "CNOT")), window((0, 2, 3, 5), ("C1", "H", "I"))]
        with pytest.raises(OverlappingAssignment, match=r"qubit 0 claimed by windows \(0, 1\)"):
            _decode_windows(estimates, gs, 3, log_term=1.0)

    def test_shot_mode_learns_layer(self):
        c = circuit_of(2, L(("CNOT", (0, 1))))
        dev = device_for(c)
        report = learn_multi(dev, 60_000, standard_gate_set(), 0.22, np.random.default_rng(17))
        assert report.circuit.layers[0] == c.layers[0]

    def test_unknown_mode_rejected_before_device_work(self):
        # "shots" and "exact" name estimators, not learn_multi modes
        dev = device_for(circuit_of(2, L(("H", (0,)), ("H", (1,)))))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        for mode in ("shots", "exact"):
            with pytest.raises(InvalidParameter, match=f"unknown mode {mode!r}"):
                learn_multi(dev, 100, standard_gate_set(), 0.22, rng, mode=mode)
        assert rng.bit_generator.state == state
        assert dev.ledger.layer_count == 0


class TestLearnMulti:
    def test_exact_reconstruction_of_benchmarks(self):
        for name, circuit, gs in benchmark_suite():
            dev = device_for(circuit)
            eps = 0.9 * cached_resolution(gs)
            report = learn_multi(dev, 0, gs, eps, 7, mode="strict-exact")
            assert same_circuit(report.circuit, circuit), name
            assert len(report.per_layer) == circuit.depth

    def test_zero_depth(self):
        c = identity_circuit(2)
        dev = device_for(c)
        report = learn_multi(dev, 100, standard_gate_set(), 0.22, 1, mode="strict")
        assert report.circuit.depth == 0
        assert report.ledger.total_time == 0

    def test_inverse_prefix_algebra(self):
        c = demo_circuit(2)
        for k in range(c.depth):
            learned = LayeredCircuit(c.n, c.layers[:k])
            u_hat = compose_unitary(learned)
            effective = compose_unitary(c, k + 1) @ u_hat.conj().T
            assert np.allclose(effective, layer_unitary(c.layers[k], c.n))

    def test_ledger_equals_learning_time_formula(self):
        # single-candidate set and a forgiving tolerance: every layer matches,
        # so the run completes at any shot count and only accounting is tested
        gs = GateSet(singles=(builtin_gate("I"),))
        for d, shots in ((1, 7), (3, 10), (4, 25)):
            ident = L(("I", (0,)), ("I", (1,)))
            c = circuit_of(2, *([ident] * d))
            dev = device_for(c)
            learn_multi(dev, shots, gs, 10.0, 3, mode="strict")
            assert dev.ledger.total_time == device_time_for_learning(d, dev.t, shots)

    def test_errors_carry_layer_index(self):
        bad = circuit_of(2, L(("H", (0,)), ("H", (1,))), L(("X", (0,)), ("X", (1,))))
        dev = device_for(bad)
        gs = GateSet(
            singles=tuple(builtin_gate(g) for g in ("I", "H", "Y", "Z")),
            doubles=(builtin_gate("CNOT"),),
        )
        with pytest.raises(NoMatch) as err:
            learn_multi(dev, 0, gs, 0.2, 1, mode="strict-exact")
        assert err.value.layer == 2

    def test_missing_entangler_names_its_window(self):
        cz = Gate("CZ", 2, np.diag([1, 1, 1, -1]).astype(complex))
        dev = device_for(circuit_of(2, L((cz, (0, 1)))))
        with pytest.raises(NoMatch) as err:
            learn_multi(dev, 0, standard_gate_set(), 0.2, 1, mode="strict-exact")
        assert err.value.qubits == (0,)
        assert "CNOT on window 0,1" in str(err.value)
        assert any(name == "CNOT on window 0,1" for name, _ in err.value.nearest)

    def test_unknown_mode_rejected_before_device_work(self):
        dev = device_for(demo_circuit(1))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameter):
            learn_multi(dev, 4000, standard_gate_set(), 0.22, rng, mode="hardwre")
        assert rng.bit_generator.state == state
        assert dev.ledger.layer_count == 0

    @pytest.mark.parametrize(
        "mode, shots, eps",
        [
            ("strict", 0, 0.22),
            ("strict", -3, 0.22),
            ("hardware", 0, 0.22),
        ],
    )
    def test_bad_shots_or_eps_rejected_before_device_work(self, mode, shots, eps):
        dev = device_for(demo_circuit(1))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameter):
            learn_multi(dev, shots, standard_gate_set(), eps, rng, mode=mode)
        assert rng.bit_generator.state == state
        assert dev.ledger.layer_count == 0
        assert dev.ledger.per_shot_layers == {}

    @pytest.mark.parametrize(
        "n, mode",
        [(1, "strict"), (1, "strict-exact"), (1, "hardware")],
    )
    def test_qubit_count_rejected_before_device_work(self, n, mode):
        dev = device_for(random_circuit(n, 2, standard_gate_set(), 5))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameter, match=f"got n={n}"):
            learn_multi(dev, 1000, standard_gate_set(), 0.22, rng, mode=mode)
        assert rng.bit_generator.state == state
        assert dev.ledger.layer_count == 0

    @staticmethod
    def _exact_run_peak(n: int, seed: int):
        """learn_multi in strict-exact mode on a random d=3 circuit, traced."""
        c = random_circuit(n, 3, standard_gate_set(), seed)
        dev = device_for(c)
        tracemalloc.start()
        try:
            report = learn_multi(dev, 0, standard_gate_set(), 0.2, 1, mode="strict-exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return c, report, peak

    def test_exact_mode_memory_stays_below_outer_product(self):
        # the 4^6 x 4^6 outer product of the Choi vector alone is 268 MB
        c, report, peak = self._exact_run_peak(6, 61)
        assert same_circuit(report.circuit, c)
        assert peak < 16 * 2**20

    def test_exact_mode_runs_at_eight_qubits(self):
        c, report, peak = self._exact_run_peak(8, 81)
        assert same_circuit(report.circuit, c)
        assert peak < 32 * 2**20

    def test_shot_mode_reconstructs_demo(self):
        c = demo_circuit(1)
        dev = device_for(c)
        report = learn_multi(dev, 60_000, standard_gate_set(), 0.22, 5, mode="strict")
        assert same_circuit(report.circuit, c)
        assert report.ledger.total_time == device_time_for_learning(c.depth, 1, 60_000)

    def test_report_serializes(self):
        import json

        c = demo_circuit(1)
        dev = device_for(c)
        report = learn_multi(dev, 0, standard_gate_set(), 0.22, 7, mode="strict-exact")
        doc = json.loads(report.to_json())
        assert doc["circuit"]["n"] == 2
        assert len(doc["per_layer"]) == 2
        assert "total_time_units" in doc["ledger"]

    @pytest.mark.parametrize("mode", ["strict", "strict-exact", "hardware"])
    def test_eps_is_never_read(self, mode):
        c, gs = demo_circuit(1), standard_gate_set()
        given = learn_multi(device_for(c), 5000, gs, 0.2, 4, mode=mode)
        omitted = learn_multi(device_for(c), 5000, gs, rng=4, mode=mode)
        assert same_circuit(omitted.circuit, c)
        assert given.to_json() == omitted.to_json()

    @pytest.mark.parametrize(
        "mode, p, shots",
        [
            ("strict", 0.0, 20_000),
            ("strict", 0.002, 20_000),
            ("hardware", 0.0, 2048),
            ("hardware", 0.002, 2048),
            ("strict-exact", 0.0, 0),
        ],
    )
    def test_one_device_call_per_layer(self, mode, p, shots, monkeypatch):
        """Each layer is one execute_settings call at its own k; strict-exact makes none."""
        calls = []
        execute = Device.execute_settings

        def counted_execute(self, inverse_prefix, k, settings, rng):
            calls.append(k)
            return execute(self, inverse_prefix, k, settings, rng)

        monkeypatch.setattr(Device, "execute_settings", counted_execute)
        c = demo_circuit(3)
        report = learn_multi(device_for(c, NoiseConfig(depolarizing_p=p)), shots,
                             standard_gate_set(), rng=4, mode=mode)
        assert same_circuit(report.circuit, c)
        assert calls == ([] if mode == "strict-exact" else list(range(1, c.depth + 1)))

    def test_shot_counts_summed_over_layers_do_not_wrap(self, monkeypatch):
        # a tracer of execute_settings adds each row's shots as a scalar of the
        # field's own type; the layers' 40k shots together pass the 16-bit range
        total = 0
        execute = Device.execute_settings

        def summed_execute(self, inverse_prefix, k, settings, rng):
            nonlocal total
            for row in settings:
                total += row["shots"]
            return execute(self, inverse_prefix, k, settings, rng)

        monkeypatch.setattr(Device, "execute_settings", summed_execute)
        c = demo_circuit(3)
        learn_multi(device_for(c), 40_000, standard_gate_set(), rng=4)
        assert total == 40_000 * c.depth

    def test_default_rng_is_seed_zero(self):
        c, gs = demo_circuit(1), standard_gate_set()
        default = learn_multi(device_for(c), 5000, gs)
        assert default.to_json() == learn_multi(device_for(c), 5000, gs, rng=0).to_json()

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("gate_set", [standard_gate_set, qft_gate_set])
    def test_exact_diagnostics_match_the_learned_gates(self, n, gate_set):
        # exact windows of a correctly learned layer equal their ideals
        gs = gate_set()
        for seed in range(4):
            c = random_circuit(n, 3, gs, seed)
            report = learn_multi(device_for(c), 0, gs, rng=seed, mode="strict-exact")
            assert same_circuit(report.circuit, c), seed
            for rep, layer in zip(report.per_layer, report.circuit.layers, strict=True):
                registers = {str(q) for q in range(n)}
                windows = {f"{i},{j}" for i, j in itertools.combinations(range(n), 2)}
                pairs = {f"{b[0]},{b[1]}" for b in layer.blocks if len(b) == 2}
                assert rep.fidelities.keys() == registers | windows
                assert rep.distances.keys() == registers | pairs
                assert rep.purities.keys() == rep.purities_theory.keys() == registers
                for key, fidelity in rep.fidelities.items():
                    assert fidelity == pytest.approx(1.0, abs=1e-12), (seed, key)
                for key, distance in rep.distances.items():
                    assert distance <= 1e-12, (seed, key)
                for key, purity in rep.purities.items():
                    assert purity == pytest.approx(rep.purities_theory[key], abs=1e-12)


def _learn_random(n, shots, p, seed):
    """Strict learn_multi of random_circuit(n, 3, standard, seed), rng seed ``seed``."""
    gs = standard_gate_set()
    c = random_circuit(n, 3, gs, seed)
    dev = device_for(c, NoiseConfig(depolarizing_p=p))
    return c, learn_multi(dev, shots, gs, 0.2, seed, mode="strict")


class TestCertifiedDecoding:
    def test_identity_only_set_certifies_at_one_shot(self):
        # one element in the inventory: every box, however wide, admits only it
        gs = GateSet(singles=(builtin_gate("I"),))
        ident = L(("I", (0,)), ("I", (1,)))
        c = circuit_of(2, ident, ident, ident)
        report = learn_multi(device_for(c), 1, gs, 10.0, 3, mode="strict")
        assert same_circuit(report.circuit, c)

    @pytest.mark.parametrize("seed", range(5))
    def test_strict_n3_reconstructs_at_5k_shots(self, seed):
        c, report = _learn_random(3, 5000, 0.0, seed)
        assert same_circuit(report.circuit, c)

    def test_contraction_keeps_noisy_layers_decodable(self):
        # p=0.01 at 80k shots: without the contraction lambda the boxes shrink
        # past the depolarized windows and decline half of these circuits
        for seed in range(500, 510):
            c, report = _learn_random(2, 80_000, 0.01, seed)
            assert same_circuit(report.circuit, c), seed

    def test_noisy_runs_are_never_wrong(self):
        for seed in range(10):
            try:
                c, report = _learn_random(2, 20_000, 0.03, seed)
            except ReconstructionError:
                continue
            assert same_circuit(report.circuit, c), seed

    def test_decline_names_each_window_and_its_box(self):
        # X on qubit 0 is outside the set: the zero-width boxes admit nothing
        c = circuit_of(3, L(("X", (0,)), ("H", (1,)), ("I", (2,))))
        gs = GateSet(
            singles=tuple(builtin_gate(g) for g in ("I", "H", "Y", "Z")),
            doubles=(builtin_gate("CNOT"),),
        )
        with pytest.raises(NoMatch) as err:
            learn_multi(device_for(c), 0, gs, 0.2, 1, mode="strict-exact")
        assert err.value.qubits == (0,)
        assert str(err.value).startswith(
            "layer 1: no certified window settles qubit 0: window 0,1 admitted nothing, "
            "window 0,2 admitted nothing; nearest candidates: "
        )

    def test_degenerate_gate_set_rejected_before_device_work(self):
        z = builtin_gate("Z")
        gs = GateSet(singles=(builtin_gate("I"), z, Gate("phZ", 1, np.exp(0.4j) * z.matrix)))
        dev = device_for(circuit_of(2, L(("Z", (0,)), ("I", (1,)))))
        with pytest.raises(DegenerateGateSet):
            learn_multi(dev, 1000, gs, 0.2, 4, mode="strict")
        assert dev.ledger.layer_count == 0

    @pytest.mark.parametrize(
        "mode, delta",
        [
            ("strict", 0.0),
            ("strict", 1.0),
            ("strict-exact", -0.5),
            ("strict", float("nan")),
            ("hardware", 1.5),
        ],
    )
    def test_bad_delta_rejected_before_device_work(self, mode, delta):
        dev = device_for(demo_circuit(1))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameter, match="delta"):
            learn_multi(dev, 4000, standard_gate_set(), 0.22, rng, mode=mode, delta=delta)
        assert rng.bit_generator.state == state
        assert dev.ledger.layer_count == 0


class TestHardwareHeuristics:
    def test_residual_zero_for_matching_gate(self):
        rho = choi_state(builtin_gate("H").matrix, 1).density()
        gate, r = minimize_residual(rho, standard_gate_set().singles)
        assert gate.name == "H"
        assert abs(r) < 1e-12

    def test_residual_one_for_traceless_candidate(self):
        rho = choi_state(builtin_gate("X").matrix, 1).density()
        ident = builtin_gate("I")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            gate, r = minimize_residual(rho, (ident,))
        assert abs(r - 1) < 1e-12

    def test_maximally_mixed_residual_three_quarters(self):
        rho = DensityMatrix(2, np.eye(4) / 4)
        with pytest.warns(TieWarning):
            gate, r = minimize_residual(rho, standard_gate_set().singles)
        assert abs(r - 0.75) < 1e-12

    def test_residual_invariant_under_global_phase(self):
        h = builtin_gate("H")
        phased = Gate("phH", 1, np.exp(0.9j) * h.matrix)
        rho_a = choi_state(h.matrix, 1).density()
        rho_b = choi_state(phased.matrix, 1).density()
        singles = standard_gate_set().singles
        ga, ra = minimize_residual(rho_a, singles)
        gb, rb = minimize_residual(rho_b, singles)
        assert ga.name == gb.name
        assert abs(ra - rb) < 1e-12

    def test_empty_gate_set(self):
        rho = DensityMatrix(2, np.eye(4) / 4)
        with pytest.raises(EmptyGateSet):
            minimize_residual(rho, ())

    def test_hardware_mode_reconstructs_suite(self):
        for name, circuit, gs in benchmark_suite():
            dev = device_for(circuit)
            report = learn_multi(dev, 2048, gs, 0.2, 23, mode="hardware")
            assert same_circuit(report.circuit, circuit), name
            detected = [rep.cnot_detected for rep in report.per_layer]
            truth = [len(layer.blocks) == 1 for layer in circuit.layers]
            assert detected == truth, name

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_hardware_mode_reconstructs_beyond_two_qubits(self, n, seed):
        gs = standard_gate_set()
        c = random_circuit(n, 3, gs, seed)
        report = learn_multi(device_for(c), 1024, gs, rng=seed, mode="hardware")
        assert same_circuit(report.circuit, c)

    @pytest.mark.parametrize("name", ["demo-d3", "qft2"])
    def test_hardware_mode_declines_or_is_right_under_noise(self, name):
        # at p=0.03 accumulated noise pulls single-qubit layers' register
        # purities below PURITY_THRESHOLD, so purity must not pick the layer
        circuit, gs = {label: (c, gs) for label, c, gs in benchmark_suite()}[name]
        for seed in range(3):
            dev = device_for(circuit, NoiseConfig(depolarizing_p=0.03))
            try:
                report = learn_multi(dev, 8192, gs, rng=seed, mode="hardware")
            except ReconstructionError:
                continue
            assert same_circuit(report.circuit, circuit), seed

    @pytest.mark.parametrize(
        "layers",
        [
            (L(("H", (0,)), ("X", (1,))), L(("CNOT", (0, 1)))),
            (
                L((builtin_gate("CNOT").reversed(), (0, 1))),
                L(("X", (0,)), ("H", (1,))),
                L(("CNOT", (0, 1))),
            ),
        ],
        ids=["HX-CNOT", "CNOTrev-XH-CNOT"],
    )
    def test_hardware_mode_learns_one_layer_per_point_without_identity(self, layers):
        """With no identity in the set, every layer is still one strict layer."""
        cnot = builtin_gate("CNOT")
        gs = GateSet(tuple(builtin_gate(name) for name in "HXYZ"), (cnot, cnot.reversed()))
        circuit = circuit_of(2, *layers)
        for seed in range(10):
            report = learn_multi(device_for(circuit), 8192, gs, rng=seed, mode="hardware")
            assert report.circuit.depth == circuit.depth, seed
            assert same_circuit(report.circuit, circuit), seed
