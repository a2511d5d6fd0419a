import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qverify import resolution
from qverify.circuits import random_circuit
from qverify.core import DensityMatrix, trace_distance_array
from qverify.device import Device, DeviceProfile
from qverify.errors import DegenerateGateSet, EmptyGateSet
from qverify.gates import Gate, GateSet, builtin_gate, qft_gate_set, standard_gate_set
from qverify.reconstruction import learn_multi
from qverify.resolution import (
    ConfigElement,
    _raw_elements,
    cached_resolution,
    closest_pair,
    coefficient_table,
    enumerate_config_classes,
    gate_set_resolution,
    raw_class_counts,
)

from conftest import brute_closest_pair, brute_merge, brute_raw_elements, random_density

# frozen from a first enumeration run; guards against construction regressions
STANDARD_SET_RESOLUTION = 0.25


def four_gate_set():
    cnot = builtin_gate("CNOT")
    return GateSet(
        singles=tuple(builtin_gate(n) for n in "HXYZ"),
        doubles=(cnot, cnot.reversed()),
    )


class TestEnumeration:
    def test_single_gate_single_element(self):
        elems = enumerate_config_classes(GateSet(singles=(builtin_gate("H"),)))
        assert len(elems) == 1
        assert elems[0].class_id == "C1"

    def test_raw_counts_for_reference_set(self):
        counts = raw_class_counts(enumerate_config_classes(four_gate_set()))
        assert counts["C1"] == 16
        assert counts["C2"] == 2

    def test_elements_unit_trace_and_psd(self):
        for elem in enumerate_config_classes(four_gate_set()):
            m = elem.state.entries
            assert abs(np.trace(m).real - 1) < 1e-9
            assert np.linalg.eigvalsh(m).min() > -1e-9

    def test_merged_cnot_marginals_carry_provenance(self):
        elems = enumerate_config_classes(four_gate_set())
        multi = [e for e in elems if len(e.provenance) > 1]
        assert multi  # both CNOT orientations share their half-traced marginals
        for e in multi:
            assert len(e.keys) == 1

    def test_outside_entangled_elements_match_closed_forms(self):
        """Cross-check the uniform construction against hand-derived marginals.

        Keeping the control side of a CNOT Choi state leaves the classical
        mixture (|00><00| + |11><11|)/2; keeping the target side leaves the
        even-parity Bell mixture. An element with a single-qubit gate on one
        window qubit and an outside CNOT on the other must equal the tensor
        product of the gate's Choi state with that marginal, permuted from
        (w1, w1', w2, w2') into the window's (w1, w2, w1', w2') order.
        """
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        psi_plus = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        control_marg = np.zeros((4, 4), dtype=complex)
        control_marg[0, 0] = control_marg[3, 3] = 0.5
        target_marg = 0.5 * (np.outer(bell, bell.conj()) + np.outer(psi_plus, psi_plus.conj()))

        h = builtin_gate("H").matrix
        choi_h = np.kron(h, np.eye(2)) @ bell
        choi_h = np.outer(choi_h, choi_h.conj())

        def interleave(a_11, b_22):
            # (w1, w1', w2, w2') -> (w1, w2, w1', w2')
            tensor = np.kron(a_11, b_22).reshape([2] * 8)
            perm = [0, 2, 1, 3]
            tensor = np.transpose(tensor, perm + [p + 4 for p in perm])
            return tensor.reshape(16, 16)

        elems = enumerate_config_classes(four_gate_set())
        c3_h = [
            e.state.entries
            for e in elems
            if e.class_id == "C3" and any(p.gates == ("H",) for p in e.provenance)
        ]
        for marginal in (control_marg, target_marg):
            want = interleave(choi_h, marginal)
            assert any(np.allclose(got, want, atol=1e-10) for got in c3_h)
        c4_h = [
            e.state.entries
            for e in elems
            if e.class_id == "C4" and any(p.gates == ("H",) for p in e.provenance)
        ]
        for marginal in (control_marg, target_marg):
            want = interleave(marginal, choi_h)
            assert any(np.allclose(got, want, atol=1e-10) for got in c4_h)


    @pytest.mark.parametrize(
        "make, digest",
        [
            (standard_gate_set, "8cac42a7618d8ca0e2b1c854fcc1dad84805b32129c4c217c3cc634f23991a3b"),
            (qft_gate_set, "3c53452275a3d9915b64257e8f87b52804f74f158c1f991ba58373f9c6fbf8b2"),
        ],
    )
    def test_merged_elements_frozen(self, make, digest):
        """Element count, order and every provenance, as the eigvalsh-only merge made them."""
        elements = enumerate_config_classes(make())
        assert len(elements) == 51
        doc = [
            [e.class_id, [[p.class_id, list(p.gates), p.detail] for p in e.provenance]]
            for e in elements
        ]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


class TestResolution:
    def test_duplicate_gates_degenerate(self):
        dup = Gate("I2", 1, np.eye(2))
        gs = GateSet(singles=(builtin_gate("I"), dup))
        with pytest.raises(DegenerateGateSet):
            gate_set_resolution(gs)

    def test_single_element_infinite(self):
        gs = GateSet(singles=(builtin_gate("H"),))
        assert gate_set_resolution(gs) == math.inf

    def test_reference_set_strictly_positive(self):
        gs = four_gate_set()
        d = gate_set_resolution(gs)
        assert d > 0
        # regression constant, first recorded from the enumeration itself
        assert abs(d - STANDARD_SET_RESOLUTION) < 1e-9

    def test_standard_set_resolution(self):
        assert abs(gate_set_resolution(standard_gate_set()) - 0.25) < 1e-9

    def test_qft_set_resolution(self):
        # closest pair is T vs Rz(pi/2), overlap cos(pi/8), so the distance is
        # sin(pi/8) and the resolution half of it
        from qverify.gates import qft_gate_set

        want = math.sin(math.pi / 8) / 2
        assert abs(gate_set_resolution(qft_gate_set()) - want) < 1e-9

    def test_pairwise_distances_respect_resolution(self):
        gs = four_gate_set()
        elems = enumerate_config_classes(gs)
        d_c = gate_set_resolution(gs)
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                d = trace_distance_array(elems[i].state.entries, elems[j].state.entries)
                assert d >= 2 * d_c - 1e-9

    def test_closest_pair(self):
        elems = enumerate_config_classes(four_gate_set())
        a, b, d = closest_pair(elems)
        assert abs(d - 2 * STANDARD_SET_RESOLUTION) < 1e-9
        assert a.provenance and b.provenance


SINGLE_NAMES = ("I", "H", "X", "Y", "Z", "S", "T", "Rz(pi/4)", "Rz(pi/2)")
DOUBLES = (builtin_gate("CNOT"), builtin_gate("CNOT").reversed())

# random subsets of the builtin gates, in random order
gate_sets = (
    st.tuples(
        st.lists(st.sampled_from(SINGLE_NAMES), unique=True, max_size=5),
        st.lists(st.sampled_from((0, 1)), unique=True),
    )
    .filter(lambda picks: picks[0] or picks[1])
    .map(lambda picks: GateSet(
        tuple(builtin_gate(n) for n in picks[0]), tuple(DOUBLES[i] for i in picks[1])
    ))
)


def _summary(elements):
    return [(e.class_id, list(e.provenance)) for e in elements]


def _resolution_or_error(fn, gs):
    try:
        return fn(gs)
    except DegenerateGateSet:
        return "degenerate"


class TestInventoryAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(gs=gate_sets)
    @example(gs=standard_gate_set())
    @example(gs=qft_gate_set())
    def test_matches_per_element_build_merge_and_search(self, gs):
        raw = brute_raw_elements(gs)
        provenance, states = _raw_elements(gs)
        assert provenance == [p for p, _ in raw]
        assert max(np.abs(got - want.entries).max() for got, (_, want) in zip(states, raw)) < 1e-12

        want = brute_merge(raw)
        got = enumerate_config_classes(gs)
        assert _summary(got) == _summary(want)
        for g, w in zip(got, want):
            assert np.abs(g.state.entries - w.state.entries).max() < 1e-12

        if len(got) > 1:
            a, b, d = closest_pair(got)
            i, j, d_want = brute_closest_pair(got)
            assert a is got[i] and b is got[j]
            assert d == d_want
            i, j, d_want = brute_closest_pair(want)
            assert (a.provenance, b.provenance) == (want[i].provenance, want[j].provenance)
            assert abs(d - d_want) < 1e-12

        if any(len(e.keys) > 1 for e in want):
            expected = "degenerate"
        elif len(want) < 2:
            expected = math.inf
        else:
            expected = pytest.approx(0.5 * brute_closest_pair(want)[2], abs=1e-12, rel=0)
        for fn in (gate_set_resolution, cached_resolution):
            assert _resolution_or_error(fn, gs) == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 12), copies=st.integers(0, 3))
    def test_closest_pair_on_random_states(self, seed, size, copies):
        """Mixed states of random rank, some repeated so that exact ties at 0 occur."""
        rng = np.random.default_rng(seed)
        states = [random_density(2, rng, rank=int(rng.integers(1, 5))) for _ in range(size)]
        states += [states[int(rng.integers(size))] for _ in range(copies)]
        elements = [ConfigElement("C1", [], DensityMatrix(2, s)) for s in rng.permutation(states)]
        a, b, d = closest_pair(elements)
        i, j, d_want = brute_closest_pair(elements)
        assert a is elements[i] and b is elements[j] and d == d_want

    def test_empty_gate_set_refused(self):
        gs = object.__new__(GateSet)
        object.__setattr__(gs, "singles", ())
        object.__setattr__(gs, "doubles", ())
        with pytest.raises(EmptyGateSet, match="cannot enumerate an empty gate set"):
            enumerate_config_classes(gs)

    def test_closest_pair_needs_two_elements(self):
        elements = enumerate_config_classes(GateSet(singles=(builtin_gate("H"),)))
        for short in ([], elements):
            with pytest.raises(EmptyGateSet, match="need at least two elements"):
                closest_pair(short)

    def test_single_element_and_degenerate_outcomes(self):
        one = GateSet(singles=(builtin_gate("H"),))
        assert cached_resolution(one) == math.inf
        assert len(coefficient_table(one).elements) == 1
        dup = GateSet(singles=(builtin_gate("I"), Gate("I2", 1, np.eye(2))))
        for fn in (gate_set_resolution, cached_resolution, coefficient_table):
            with pytest.raises(DegenerateGateSet, match="indistinguishable configurations: I on w1"):
                fn(dup)


class TestInventoryCache:
    def test_raw_elements_built_once_per_gate_set(self, monkeypatch):
        calls = []

        def counted(gs):
            calls.append(gs)
            return _raw_elements(gs)

        monkeypatch.setattr(resolution, "_raw_elements", counted)
        for cache in (resolution._inventory, coefficient_table, cached_resolution):
            cache.cache_clear()
        gs = standard_gate_set()
        circuit = random_circuit(2, 2, gs, 3)
        device = Device(DeviceProfile(2, 2, Fraction(1), circuit))
        assert abs(cached_resolution(gs) - 0.25) < 1e-9
        assert len(coefficient_table(gs).elements) == 51
        learn_multi(device, 0, gs, rng=0, mode="strict-exact")
        assert len(calls) == 1

    def test_mutating_a_returned_list_leaves_the_inventory(self):
        gs = qft_gate_set()
        before = _summary(enumerate_config_classes(gs))
        elements = enumerate_config_classes(gs)
        elements[0].provenance.append(elements[1].provenance[0])
        elements[1].provenance.clear()
        elements.reverse()
        elements.pop()
        coefficient_table.cache_clear()
        assert _summary(coefficient_table(gs).elements) == before
        assert _summary(enumerate_config_classes(gs)) == before
