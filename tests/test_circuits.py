import json
from fractions import Fraction

import numpy as np
import pytest

from qverify.circuits import (
    Layer,
    LayeredCircuit,
    choi_state,
    compose_unitary,
    emit_circuit,
    layer_unitary,
    parse_circuit,
    parse_circuit_file,
    parse_gate_set,
    random_circuit,
    same_circuit,
)
from qverify.errors import (
    ArityMismatch,
    CircuitSyntaxError,
    EmptyGateSet,
    InvalidPartition,
    NonUnitary,
    UnknownGateName,
)
from qverify.gates import (
    BUILTIN_MATRICES,
    Gate,
    GateSet,
    builtin_gate,
    gates_equivalent,
    qft_gate_set,
    standard_gate_set,
)
from qverify.benchmarks import demo_circuit, qft2_circuit

from conftest import haar_unitary

H = BUILTIN_MATRICES["H"]
X = BUILTIN_MATRICES["X"]
CNOT = BUILTIN_MATRICES["CNOT"]


def simple_layer(*name_block_pairs):
    gates, blocks = [], []
    for name, block in name_block_pairs:
        gates.append(builtin_gate(name))
        blocks.append(block)
    return Layer(tuple(blocks), tuple(gates))


class TestGates:
    def test_builtins_are_unitary(self):
        for name in BUILTIN_MATRICES:
            g = builtin_gate(name)
            assert np.allclose(g.matrix.conj().T @ g.matrix, np.eye(g.matrix.shape[0]))

    def test_unknown_name(self):
        with pytest.raises(UnknownGateName):
            builtin_gate("Q")

    def test_gate_validation(self):
        with pytest.raises(NonUnitary):
            Gate("bad", 1, np.array([[1, 0], [0, 2]]))
        with pytest.raises(ArityMismatch):
            Gate("bad", 2, np.eye(2))

    def test_reversed_cnot(self):
        rev = builtin_gate("CNOT").reversed()
        # control on the second qubit: |10> stays, |01> -> |11>
        assert np.allclose(rev.matrix @ np.eye(4)[1], np.eye(4)[3])
        assert np.allclose(rev.matrix @ np.eye(4)[2], np.eye(4)[2])

    def test_phase_equivalence(self):
        z = builtin_gate("Z")
        phased = Gate("phZ", 1, np.exp(0.3j) * z.matrix)
        assert gates_equivalent(z, phased)
        assert not gates_equivalent(z, builtin_gate("X"))

    def test_gate_set_validation(self):
        with pytest.raises(ArityMismatch):
            GateSet(singles=(builtin_gate("CNOT"),))
        with pytest.raises(ArityMismatch):
            GateSet(singles=(builtin_gate("H"), builtin_gate("H")))

    def test_standard_set_shape(self):
        gs = standard_gate_set()
        assert [g.name for g in gs.singles] == ["I", "H", "X", "Y", "Z"]
        assert len(gs.doubles) == 2


class TestLayerUnitary:
    def test_h_tensor_h(self):
        u = layer_unitary(simple_layer(("H", (0,)), ("H", (1,))), 2)
        assert np.allclose(u, np.kron(H, H))

    def test_cnot_block(self):
        u = layer_unitary(simple_layer(("CNOT", (0, 1))), 2)
        assert np.allclose(u, CNOT)

    def test_three_qubit_product(self):
        u = layer_unitary(
            simple_layer(("X", (0,)), ("H", (1,)), ("I", (2,))), 3
        )
        assert np.allclose(u, np.kron(np.kron(X, H), np.eye(2)))

    def test_descending_block_embeds_reversed(self):
        u = layer_unitary(simple_layer(("CNOT", (1, 0))), 2)
        assert np.allclose(u, builtin_gate("CNOT").reversed().matrix)

    def test_unitary_for_random_layers(self, rng):
        gs = standard_gate_set()
        for _ in range(30):
            n = int(rng.integers(2, 5))
            layer = random_circuit(n, 1, gs, rng).layers[0]
            u = layer_unitary(layer, n)
            assert np.allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-9)

    def test_partition_validation(self):
        with pytest.raises(InvalidPartition):
            Layer(((0, 1), (1,)), (builtin_gate("CNOT"), builtin_gate("H")))
        with pytest.raises(ArityMismatch):
            Layer(((0, 1),), (builtin_gate("H"),))
        with pytest.raises(InvalidPartition):
            layer_unitary(simple_layer(("H", (0,))), 2)  # qubit 1 uncovered


class TestCompose:
    def test_zero_layers_is_identity(self):
        c = demo_circuit(1)
        assert np.allclose(compose_unitary(c, 0), np.eye(4))

    def test_demo_d1_composition(self):
        # matrix-product oracle: CNOT applied after H x H
        c = demo_circuit(1)
        assert np.allclose(compose_unitary(c), CNOT @ np.kron(H, H))

    def test_single_layer(self):
        c = demo_circuit(1)
        assert np.allclose(compose_unitary(c, 1), layer_unitary(c.layers[0], 2))


class TestChoiState:
    def test_identity_gives_bell(self):
        omega = choi_state(np.eye(2), 1)
        assert np.allclose(omega.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_x_gate(self):
        omega = choi_state(X, 1)
        assert np.allclose(omega.amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_cnot_expansion(self):
        omega = choi_state(CNOT, 2)
        nz = {i: a for i, a in enumerate(omega.amplitudes) if abs(a) > 1e-12}
        assert set(nz) == {0b0000, 0b0101, 0b1110, 0b1011}
        assert all(abs(a - 0.5) < 1e-12 for a in nz.values())

    def test_single_gate_marginals_pure(self, rng):
        from qverify.core import DensityMatrix, partial_trace_array, purity

        layer = simple_layer(("H", (0,)), ("CNOT", (1, 2)))
        omega = choi_state(layer_unitary(layer, 3), 3)
        rho = omega.density().entries
        lone = DensityMatrix(2, partial_trace_array(rho, [0, 3], 6))
        assert abs(purity(lone) - 1) < 1e-6
        entangled = DensityMatrix(2, partial_trace_array(rho, [1, 4], 6))
        assert purity(entangled) <= 1 - 1e-6
        assert abs(purity(entangled) - 0.5) < 1e-9

    def test_rejects_wrong_shape(self):
        with pytest.raises(NonUnitary):
            choi_state(np.eye(2), 2)


class TestCircuitFiles:
    def test_round_trip_random_circuits(self, rng):
        gs = standard_gate_set()
        for _ in range(100):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(0, 4))
            c = random_circuit(n, d, gs, rng)
            again = parse_circuit(emit_circuit(c))
            assert again == c
            assert emit_circuit(again) == emit_circuit(c)

    def test_demo_content(self):
        c = demo_circuit(1)
        assert c.n == 2
        assert c.depth == 2
        assert [g.name for g in c.layers[0].gates] == ["H", "H"]
        assert c.layers[1].gates[0].name == "CNOT"

    def test_overlapping_blocks_rejected(self):
        doc = {
            "n": 2,
            "layers": [
                [{"gate": "CNOT", "qubits": [0, 1]}, {"gate": "H", "qubits": [1]}]
            ],
        }
        with pytest.raises(InvalidPartition):
            parse_circuit(json.dumps(doc))

    def test_slice_single_after_double_rejected(self):
        doc = {
            "n": 2,
            "slices": [
                [{"gate": "CNOT", "qubits": [0, 1]}, {"gate": "H", "qubits": [1]}]
            ],
        }
        with pytest.raises(InvalidPartition):
            parse_circuit(json.dumps(doc))

    def test_unknown_gate_name(self):
        doc = {"n": 1, "layers": [[{"gate": "WAT", "qubits": [0]}]]}
        with pytest.raises(UnknownGateName):
            parse_circuit(json.dumps(doc))

    def test_syntax_error_carries_location(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("{not json")
        assert "line" in str(err.value)

    def test_idle_qubits_padded_with_identity(self):
        doc = {"n": 3, "layers": [[{"gate": "CNOT", "qubits": [0, 1]}]]}
        c = parse_circuit(json.dumps(doc))
        assert c.layers[0].qubits() == {0, 1, 2}
        names = {b: g.name for b, g in zip(c.layers[0].blocks, c.layers[0].gates)}
        assert names[(2,)] == "I"

    def test_explicit_matrix_gates(self):
        m = haar_unitary(2, np.random.default_rng(5))
        entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        doc = {
            "n": 1,
            "gate_set": {"singles": [{"name": "G", "matrix": entries}]},
            "layers": [[{"gate": "G", "qubits": [0]}]],
        }
        c = parse_circuit(json.dumps(doc))
        assert np.allclose(c.layers[0].gates[0].matrix, m)

    def test_slices_normalize_with_groups(self):
        slices = [
            [{"gate": "Y", "qubits": [0]}, {"gate": "H", "qubits": [1]},
             {"gate": "CNOT", "qubits": [0, 1]}],
            [{"gate": "X", "qubits": [0]}, {"gate": "X", "qubits": [1]}],
            [{"gate": "Y", "qubits": [0]}, {"gate": "Y", "qubits": [1]},
             {"gate": "CNOT", "qubits": [1, 0]}],
        ]
        c = parse_circuit(json.dumps({"n": 2, "slices": slices}))
        assert c.depth == 6
        assert c.groups == ((0, 1), (2, 3), (4, 5))
        # second round has no entangling gate: an identity slot is kept
        names = [tuple(g.name for g in layer.gates) for layer in c.layers]
        assert names[2] == ("X", "X")
        assert names[3] == ("I", "I")
        assert emit_circuit(c) == emit_circuit(demo_circuit(3))

    def test_qft_slices(self):
        rz4dg = qft_gate_set().single("Rz(pi/4)†")
        entries = [[float(z.real), float(z.imag)] for z in rz4dg.matrix.reshape(-1)]
        name = rz4dg.name
        slices = [
            [{"gate": "H", "qubits": [0]}, {"gate": name, "qubits": [0]},
             {"gate": "CNOT", "qubits": [0, 1]}],
            [{"gate": name, "qubits": [0]}, {"gate": "CNOT", "qubits": [0, 1]}],
            [{"gate": "Rz(pi/2)", "qubits": [0]}, {"gate": "T", "qubits": [1]},
             {"gate": "H", "qubits": [1]}, {"gate": "CNOT", "qubits": [0, 1]}],
            [{"gate": "CNOT", "qubits": [1, 0]}],
            [{"gate": "CNOT", "qubits": [0, 1]}],
        ]
        doc = {"n": 2, "gate_set": {"singles": [{"name": name, "matrix": entries}]},
               "slices": slices}
        c = parse_circuit(json.dumps(doc))
        assert c.depth == 10
        assert len(c.groups) == 5
        assert emit_circuit(c) == emit_circuit(qft2_circuit())

    def test_groups_must_partition(self):
        layer = simple_layer(("H", (0,)))
        with pytest.raises(InvalidPartition):
            LayeredCircuit(1, (layer, layer), groups=((0,),))

    @pytest.mark.parametrize(
        "change",
        [
            {"n": "two"},
            {"n": [2]},
            {"n": 1.5},
            {"layers": 5},
            {"layers": [5]},
            {"layers": [[{"gate": ["H"], "qubits": [0]}]]},
            {"layers": [[{"gate": "H", "qubits": 0}]]},
            {"layers": [[{"gate": "H", "qubits": ["a"]}]]},
            {"layers": [[{"gate": "H", "qubits": [0.7]}]]},
            {"groups": 1},
            {"gate_set": []},
            {"gate_set": {"singles": {}}},
            {"gate_set": {"singles": [5]}},
            {"gate_set": {"singles": [{"name": "H"}, {"name": "H"}]}},
            {"slices": 5},
            {"noise": 3},
            {"noise": {"depolarizing_p": "high"}},
            {"t": "fast"},
            {"t": "1/0"},
        ],
        ids=lambda change: json.dumps(change),
    )
    def test_wrong_json_shape_is_syntax_error(self, change):
        doc = {"n": 1, "layers": [[{"gate": "H", "qubits": [0]}]], **change}
        with pytest.raises(CircuitSyntaxError):
            parse_circuit_file(json.dumps(doc))

    def test_device_keys_read_with_the_circuit(self):
        doc = json.loads(emit_circuit(demo_circuit(1)))
        assert parse_circuit_file(json.dumps(doc))[1:] == (1, 0.0)
        doc.update(t="3/2", noise={"depolarizing_p": 0.01, "other": 1})
        circuit, t, p = parse_circuit_file(json.dumps(doc))
        assert (circuit, t, p) == (demo_circuit(1), Fraction(3, 2), 0.01)


class TestGateSetFiles:
    def test_names_and_matrices(self):
        x_matrix = [[0, 0], [1, 0], [1, 0], [0, 0]]
        doc = {
            "singles": [{"name": "H"}, {"name": "G", "matrix": x_matrix}],
            "doubles": [{"name": "CNOT"}],
        }
        gs = parse_gate_set(json.dumps(doc))
        assert [g.name for g in gs.singles] == ["H", "G"]
        assert np.allclose(gs.single("G").matrix, X)
        assert [g.name for g in gs.doubles] == ["CNOT"]

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "5",
            "{bad",
            '{"singles": [{"matrix": []}]}',
            '{"singles": [{"name": "H"}, {"name": "H", "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]}]}',
        ],
    )
    def test_wrong_shape_is_syntax_error(self, text):
        with pytest.raises(CircuitSyntaxError):
            parse_gate_set(text)


class TestSameCircuit:
    def test_reversed_direction_equivalence(self):
        a = LayeredCircuit(2, (simple_layer(("CNOT", (1, 0))),))
        rev = builtin_gate("CNOT").reversed()
        b = LayeredCircuit(2, (Layer(((0, 1),), (rev,)),))
        assert same_circuit(a, b)

    def test_distinguishes_gates(self):
        a = LayeredCircuit(1, (simple_layer(("H", (0,))),))
        b = LayeredCircuit(1, (simple_layer(("X", (0,))),))
        assert not same_circuit(a, b)

    def test_phase_blind(self):
        z = builtin_gate("Z")
        phased = Gate("phZ", 1, np.exp(1.7j) * z.matrix)
        a = LayeredCircuit(1, (Layer(((0,),), (z,)),))
        b = LayeredCircuit(1, (Layer(((0,),), (phased,)),))
        assert same_circuit(a, b)


class TestRandomCircuit:
    def test_deterministic_given_seed(self):
        gs = standard_gate_set()
        a = random_circuit(3, 4, gs, 42)
        b = random_circuit(3, 4, gs, 42)
        assert a == b
        assert emit_circuit(a) == emit_circuit(b)

    def test_generated_layers_valid(self, rng):
        gs = qft_gate_set()
        for _ in range(20):
            c = random_circuit(4, 3, gs, rng)
            for layer in c.layers:
                layer.validate_for(4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_single_qubit_gate_refused_before_any_draw(self, n):
        gs = GateSet(singles=(), doubles=(builtin_gate("CNOT"),))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(EmptyGateSet, match="single-qubit gate"):
            random_circuit(n, 1, gs, rng)
        assert rng.bit_generator.state == state
