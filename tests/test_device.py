import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qverify.benchmarks import demo_circuit
from qverify.circuits import (
    LayeredCircuit,
    choi_state,
    compose_unitary,
    identity_circuit,
    layer_unitary,
    random_circuit,
)
from qverify.core import (
    PAULIS,
    PauliBasis,
    StateVec,
    apply_unitary_array,
    exact_pauli_distribution,
)
from qverify.device import (
    PREP_SEQUENCES,
    Device,
    DeviceProfile,
    NoiseConfig,
    TimeLedger,
    _product_states,
    _rotate_to_z,
    _sample,
    device_time_for_learning,
    settings_table,
)
from qverify.errors import InvalidRequest
from qverify.gates import builtin_gate, standard_gate_set
from qverify.circuits import Layer


def single_h_device(t=Fraction(1)):
    layer = Layer(((0,),), (builtin_gate("H"),))
    circuit = LayeredCircuit(1, (layer,))
    return Device(DeviceProfile(1, 1, t, circuit))


def demo_device(depth=3, noise=None, t=Fraction(1)):
    c = demo_circuit(depth)
    return Device(DeviceProfile(2, c.depth, t, c), noise), c


def axis_codes(axes):
    return [["XYZ".index(a) for a in axes]]


def blank_shots(dev, axes, k, shots, rng, prefix=None, undo=None):
    """Indices of the outcomes of ``shots`` unprepared shots read out along ``axes``."""
    prefix = identity_circuit(dev.n) if prefix is None else prefix
    setting = settings_table(np.zeros((1, dev.n), dtype=int), axis_codes(axes), [shots])
    return dev.execute_settings(prefix, k, setting, rng, undo=undo)


class TestExecuteShot:
    """Shots through ``Device.execute_settings``; index 0 is the all-+1 outcome."""

    def test_h_layer_z_basis_is_unbiased(self):
        dev = single_h_device()
        outs = blank_shots(dev, "Z", 1, 2000, np.random.default_rng(0))
        frac = np.mean(outs == 0)
        assert 0.44 < frac < 0.56

    def test_interrupt_at_zero_is_identity_run(self):
        dev = single_h_device()
        outs = blank_shots(dev, "Z", 0, 50, np.random.default_rng(1))
        assert (outs == 0).all()

    def test_ledger_delta_counts_prefix_plus_hidden(self):
        dev, c = demo_device(3)  # six strict layers
        prefix = random_circuit(2, 2, standard_gate_set(), 5)
        blank_shots(dev, "ZZ", 3, 1, np.random.default_rng(2), prefix=prefix)
        assert dev.ledger.total_time == 5 * dev.t

    def test_undo_layer_costs_one_unit(self):
        dev, _ = demo_device(1)
        undo = Layer(((0, 1),), (builtin_gate("CNOT"),))
        blank_shots(dev, "ZZ", 1, 1, np.random.default_rng(3), undo=undo)
        assert dev.ledger.total_time == 2 * dev.t

    def test_request_validation(self):
        dev, _ = demo_device(1)
        with pytest.raises(InvalidRequest):
            blank_shots(dev, "ZZ", 99, 1, 0)
        with pytest.raises(InvalidRequest):
            blank_shots(dev, "Z", 0, 1, 0)
        for prep in ([[-1, 0]], [[len(PREP_SEQUENCES), 0]]):
            with pytest.raises(InvalidRequest):
                dev.execute_settings(
                    identity_circuit(2), 0, settings_table(prep, [[2, 2]], [1]), 0
                )

    def test_seed_determinism(self):
        dev1, _ = demo_device(2)
        dev2, _ = demo_device(2)
        a = blank_shots(dev1, "XZ", 2, 64, np.random.default_rng(7))
        b = blank_shots(dev2, "XZ", 2, 64, np.random.default_rng(7))
        assert np.array_equal(a, b)


def table(prep=((0, 0), (0, 0)), axes=((2, 2), (2, 2)), shots=(4, 4)):
    return settings_table(np.array(prep), np.array(axes), np.array(shots))


def reordered_table():
    """A valid table's columns in (axes, prep, shots) order."""
    valid = table()
    out = np.empty(2, dtype=[("axes", int, (2,)), ("prep", int, (2,)), ("shots", int)])
    for name in ("axes", "prep", "shots"):
        out[name] = valid[name]
    return out


class TestExecuteSettingsValidation:
    """An invalid call raises InvalidRequest before any unitary, draw or ledger entry."""

    CASES = {
        "k above depth": dict(k=99),
        "negative k": dict(k=-1),
        "prefix on the wrong n": dict(prefix=identity_circuit(3)),
        "prep too short": dict(settings=table(prep=((0,), (0,)))),
        "basis too short": dict(settings=table(axes=((2,), (2,)))),
        "prep code -1": dict(settings=table(prep=((0, 0), (-1, 0)))),
        "prep code 8": dict(settings=table(prep=((0, 0), (0, 8)))),
        "prep code 256, 0 after an int8 cast": dict(settings=table(prep=((0, 0), (0, 256)))),
        "axis code 3": dict(settings=table(axes=((2, 2), (3, 2)))),
        "axis code -1": dict(settings=table(axes=((2, 2), (2, -1)))),
        "negative shot count": dict(settings=table(shots=(4, -1))),
        "fields out of order": dict(settings=reordered_table()),
        "shots field missing": dict(settings=table()[["prep", "axes"]]),
        "float codes": dict(settings=table(prep=((0.0, 0.0), (0.0, 0.0)))),
        "list of tuples": dict(settings=[(((), ()), ("Z", "Z"), 4)]),
        "two-dimensional table": dict(settings=table().reshape(1, 2)),
        "undo off the line": dict(undo=Layer(((0, 5),), (builtin_gate("CNOT"),))),
        "undo leaves a qubit out": dict(undo=Layer(((0,),), (builtin_gate("H"),))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_before_any_work(self, case, monkeypatch):
        dev, _ = demo_device(1)

        def no_unitary(*args, **kwargs):
            raise AssertionError("unitary built before validation finished")

        monkeypatch.setattr("qverify.device.compose_unitary", no_unitary)
        monkeypatch.setattr("qverify.device.layer_unitary", no_unitary)
        call = dict(prefix=identity_circuit(2), k=1, settings=table(), undo=None)
        call.update(self.CASES[case])
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(InvalidRequest):
            dev.execute_settings(
                call["prefix"], call["k"], call["settings"], rng, undo=call["undo"]
            )
        assert rng.bit_generator.state == state
        assert dev.ledger.layer_count == 0
        assert dev.ledger.per_shot_layers == {}

    def test_valid_call_returns_one_flat_array(self):
        dev, _ = demo_device(1)
        xh = PREP_SEQUENCES.index(("X",)), PREP_SEQUENCES.index(("H", "S"))
        settings = table(prep=((0, 0), xh, (0, 0)), axes=((2, 2), (0, 1), (2, 2)), shots=(4, 0, 4))
        out = dev.execute_settings(identity_circuit(2), 1, settings, np.random.default_rng(3))
        assert out.shape == (8,) and out.dtype == np.int64
        assert dev.ledger.layer_count == 8
        no_rows = np.zeros((0, 2), int)
        empty = table(prep=no_rows, axes=no_rows, shots=np.zeros(0, int))
        out = dev.execute_settings(identity_circuit(2), 1, empty, 0)
        assert out.shape == (0,)


def random_table(n, settings, seed):
    gen = np.random.default_rng(seed)
    return settings_table(
        gen.integers(0, len(PREP_SEQUENCES), size=(settings, n)),
        gen.integers(0, 3, size=(settings, n)),
        gen.integers(0, 6, size=settings),
    )


class TestChunking:
    """Sampling in chunks of settings reads the same draws as one whole batch."""

    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_chunk_boundaries_leave_draws_unchanged(self, p, monkeypatch):
        c = random_circuit(3, 2, standard_gate_set(), 4)
        prefix = random_circuit(3, 1, standard_gate_set(), 5)
        settings = random_table(3, 23, 6)
        runs = []
        for chunk in (4096, 5):
            monkeypatch.setattr("qverify.device.CHUNK_SETTINGS", chunk)
            dev = Device(DeviceProfile(3, 2, Fraction(1), c), NoiseConfig(depolarizing_p=p))
            runs.append(dev.execute_settings(prefix, 2, settings, np.random.default_rng(8)))
        assert len(runs[0]) == settings["shots"].sum()
        assert np.array_equal(runs[0], runs[1])

    def test_n8_record_set_memory_is_bounded(self):
        from qverify.reconstruction import _shot_record_set

        c = random_circuit(8, 1, standard_gate_set(), 9)
        dev = Device(DeviceProfile(8, 1, Fraction(1), c))
        tracemalloc.start()
        try:
            rs = _shot_record_set(dev, 1, identity_circuit(8), 20_000, np.random.default_rng(10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rs) == 20_000
        assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MB"


def per_setting_trajectories(hidden, p, prefix, k, settings, rng, ledger, undo=None):
    """Reference: the noisy shot path that ran trajectories setting by setting.

    Each setting's columns take every gate, then up to three masked Pauli
    applications per touched qubit, drawing the noise stream as they go.
    """
    n = hidden.n
    prep, axes, counts = (settings[name].astype(np.int64) for name in ("prep", "axes", "shots"))
    noise_rng = np.random.default_rng(int(rng.integers(2**63)))
    u01 = rng.random(int(counts.sum()))
    states = np.repeat(compose_unitary(prefix) @ _product_states(prep), counts, axis=1)
    start = 0
    for c in counts.tolist():
        cols = states[:, start : start + c]
        for layer in hidden.layers[:k]:
            for block, gate in zip(layer.blocks, layer.gates):
                cols = apply_unitary_array(cols, gate.matrix, block, n)
                for q in block:
                    hit = noise_rng.random(c) < p
                    which = noise_rng.integers(0, 3, size=c)
                    for pauli_idx, pauli in enumerate(PAULIS[c] for c in "XYZ"):
                        mask = hit & (which == pauli_idx)
                        if mask.any():
                            cols[:, mask] = apply_unitary_array(cols[:, mask], pauli, (q,), n)
        states[:, start : start + c] = cols if undo is None else layer_unitary(undo, n) @ cols
        start += c
    rotated = _rotate_to_z(states, np.repeat(axes, counts, axis=0))
    ledger.add_shots(prefix.depth + k + (undo is not None), len(u01))
    return _sample(rotated, np.arange(len(u01)), u01)


class TestBatchedTrajectories:
    """One trajectory pass per chunk gives the per-setting loop's outcomes."""

    @pytest.mark.parametrize("with_undo", [False, True], ids=["no-undo", "undo"])
    def test_matches_per_setting_loop(self, with_undo):
        c = random_circuit(3, 3, standard_gate_set(), 21)
        prefix = random_circuit(3, 1, standard_gate_set(), 22).inverse()
        undo = random_circuit(3, 1, standard_gate_set(), 23).layers[0] if with_undo else None
        settings = random_table(3, 60, 24)
        noise = NoiseConfig(depolarizing_p=0.1)
        dev = Device(DeviceProfile(3, 3, Fraction(1), c), noise)
        ref_ledger = TimeLedger(Fraction(1))
        for seed in (25, 26):
            out = dev.execute_settings(prefix, 2, settings, np.random.default_rng(seed), undo=undo)
            ref = per_setting_trajectories(
                c, 0.1, prefix, 2, settings, np.random.default_rng(seed), ref_ledger, undo
            )
            assert np.array_equal(out, ref)
        assert dev.ledger == ref_ledger
        clean = Device(DeviceProfile(3, 3, Fraction(1), c))
        clean_out = clean.execute_settings(prefix, 2, settings, np.random.default_rng(26), undo=undo)
        assert not np.array_equal(out, clean_out)

    @pytest.mark.parametrize("case", ["nearly every shot hit", "zero-shot rows", "k=0 with undo"])
    def test_distinct_trajectories_match_per_setting_loop(self, case, monkeypatch):
        import qverify.device

        c = random_circuit(3, 3, standard_gate_set(), 27)
        prefix = random_circuit(3, 1, standard_gate_set(), 28).inverse()
        undo = random_circuit(3, 1, standard_gate_set(), 29).layers[0]
        settings = random_table(3, 40, 30)
        p, k = 0.1, 2
        if case == "nearly every shot hit":
            p = 0.9
        elif case == "zero-shot rows":
            settings["shots"][[0, 1, 7, 8, 9, 39]] = 0
        else:
            k = 0
        widths, rotate = [], qverify.device._rotate_to_z

        def counted_rotate(states, axes):
            widths.append(states.shape[1])
            return rotate(states, axes)

        monkeypatch.setattr(qverify.device, "_rotate_to_z", counted_rotate)
        dev = Device(DeviceProfile(3, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))
        ref_ledger = TimeLedger(Fraction(1))
        for seed in (31, 32):
            out = dev.execute_settings(prefix, k, settings, np.random.default_rng(seed), undo=undo)
            ref = per_setting_trajectories(
                c, p, prefix, k, settings, np.random.default_rng(seed), ref_ledger, undo
            )
            assert len(out) == settings["shots"].sum()
            assert np.array_equal(out, ref)
        assert dev.ledger == ref_ledger
        # one column per setting, plus one per shot that drew an error
        extra = {w - len(settings) for w in widths}
        if case == "nearly every shot hit":
            assert min(extra) > 0.99 * settings["shots"].sum()
        elif case == "k=0 with undo":
            assert extra == {0}

    def test_n8_noisy_call_memory_is_bounded(self):
        c = random_circuit(8, 3, standard_gate_set(), 41)
        dev = Device(DeviceProfile(8, 3, Fraction(1), c), NoiseConfig(depolarizing_p=0.002))
        gen = np.random.default_rng(42)
        settings = settings_table(
            gen.integers(0, len(PREP_SEQUENCES), size=(4, 8)),
            gen.integers(0, 3, size=(4, 8)),
            [2048] * 4,
        )
        tracemalloc.start()
        try:
            out = dev.execute_settings(identity_circuit(8), 3, settings, np.random.default_rng(43))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 8192
        # one column per shot would be 2^8 x 8192 complex amplitudes, 32 MB a copy
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestUnitaryReuse:
    """Consecutive calls with the same prefix, k and undo share one composed unitary."""

    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_reused_unitary_is_never_stale(self, p):
        c = random_circuit(3, 3, standard_gate_set(), 31)
        gs = standard_gate_set()
        prefix_a = random_circuit(3, 1, gs, 32).inverse()
        prefix_b = random_circuit(3, 1, gs, 33).inverse()
        undo_a, undo_b = (random_circuit(3, 1, gs, seed).layers[0] for seed in (34, 35))
        settings = random_table(3, 40, 36)

        def device():
            return Device(DeviceProfile(3, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))

        shared = device()
        calls = [
            (prefix_a, 2, undo_a),
            (prefix_b, 2, undo_a),
            (prefix_a, 2, undo_a),
            (prefix_a, 2, undo_b),
            (prefix_a, 1, undo_b),
            (prefix_a, 1, None),
        ]
        for seed, (prefix, k, undo) in enumerate(calls):
            out = shared.execute_settings(prefix, k, settings, np.random.default_rng(seed), undo=undo)
            fresh = device().execute_settings(
                prefix, k, settings, np.random.default_rng(seed), undo=undo
            )
            assert np.array_equal(out, fresh)
        # every call differs from the call before it, so a stale unitary shows
        same_seed = [
            device().execute_settings(prefix, k, settings, np.random.default_rng(0), undo=undo)
            for prefix, k, undo in calls
        ]
        assert all(not np.array_equal(x, y) for x, y in zip(same_seed, same_seed[1:]))

    @pytest.mark.parametrize("p", [0.0, 0.002])
    def test_one_composition_per_dedicated_round(self, p, monkeypatch):
        import qverify.device
        from qverify.reconstruction import _dedicated_record_set

        calls, composed = [], []
        compose, execute = qverify.device.compose_unitary, Device.execute_settings

        def counted_compose(*args):
            composed.append(len(calls))
            return compose(*args)

        def counted_execute(self, *args, **kwargs):
            calls.append(args)
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(qverify.device, "compose_unitary", counted_compose)
        monkeypatch.setattr(Device, "execute_settings", counted_execute)
        dev, c = demo_device(3, NoiseConfig(depolarizing_p=p))
        prefix = LayeredCircuit(2, c.layers[:2]).inverse()
        undo = Layer(((0, 1),), (builtin_gate("CNOT").dagger(),))
        _dedicated_record_set(dev, 3, prefix, 64, np.random.default_rng(37), undo)
        assert len(calls) == 9
        assert composed == [1] * (1 if p else 2)


class TestBlackBox:
    def test_public_surface_hides_the_circuit(self):
        dev, _ = demo_device(1)
        public = [name for name in dir(dev) if not name.startswith("_")]
        assert "hidden_circuit" not in public
        assert all("hidden" not in name for name in public)
        assert {"n", "d", "t", "ledger"} <= set(public)
        methods = {name for name in public if callable(getattr(dev, name))}
        assert methods == {"execute_settings", "ideal_choi_state"}


class TestDeviceTime:
    def test_small_cases(self):
        t = Fraction(1)
        assert device_time_for_learning(1, t, 1) == 1
        assert device_time_for_learning(3, t, 1) == 9
        assert device_time_for_learning(5, t, 100) == 2500

    def test_fractional_t_is_exact(self):
        t = Fraction(3, 7)
        assert device_time_for_learning(4, t, 10) == Fraction(480, 7)


class TestOutcomeDistributions:
    def test_noiseless_outcomes_match_exact_distribution(self):
        dev, c = demo_device(1)
        shots = 100_000
        for axes in ("ZZ", "XY"):
            exact = exact_pauli_distribution(
                StateVec(2, compose_unitary(c, 2)[:, 0]), PauliBasis(axes)
            )
            outs = blank_shots(dev, axes, 2, shots, np.random.default_rng(11))
            freq = np.bincount(outs, minlength=4) / shots
            # exact keys run in outcome-index order: (+1, +1), (+1, -1), ...
            tv = 0.5 * np.abs(freq - list(exact.values())).sum()
            assert tv < 0.02

    def test_ideal_choi_state_composes_prefix(self):
        dev, c = demo_device(1)
        prefix = LayeredCircuit(2, (c.layers[0],)).inverse()
        omega = dev.ideal_choi_state(prefix, 2)
        expect = choi_state(compose_unitary(c, 2) @ compose_unitary(prefix), 2)
        assert np.allclose(omega.amplitudes, expect.amplitudes)


class TestNoise:
    def test_depolarizing_changes_statistics(self):
        clean, c = demo_device(1)
        noisy = Device(DeviceProfile(2, c.depth, Fraction(1), c), NoiseConfig(depolarizing_p=0.4))
        # H x H then CNOT leaves |++>: an XX readout is (+1, +1) without noise
        assert (blank_shots(clean, "XX", 2, 6000, np.random.default_rng(13)) == 0).all()
        outs = blank_shots(noisy, "XX", 2, 6000, np.random.default_rng(13))
        assert np.mean(outs != 0) > 0.1

    def test_noise_config_validation(self):
        with pytest.raises(InvalidRequest):
            NoiseConfig(depolarizing_p=1.5)
        assert [f.name for f in dataclasses.fields(NoiseConfig)] == ["depolarizing_p"]

    def test_reconstruction_degrades_monotonically(self):
        """Median reconstruction fidelity over seeds is non-increasing in p."""
        from qverify.reconstruction import learn_multi
        from qverify.gates import standard_gate_set

        c = demo_circuit(1)
        true_u = compose_unitary(c)
        gs = standard_gate_set()
        medians = []
        estimate_scores = []
        for p in (0.0, 0.001, 0.01, 0.05):
            fids = []
            dists = []
            for seed in range(10):
                dev = Device(
                    DeviceProfile(2, c.depth, Fraction(1), c),
                    NoiseConfig(depolarizing_p=p),
                )
                rng = np.random.default_rng(500 + seed)
                rep = learn_multi(dev, shots=1024, gs=gs, eps=0.22, rng=rng, mode="hardware")
                rec_u = compose_unitary(rep.circuit)
                fids.append(abs(np.trace(true_u.conj().T @ rec_u) / 4) ** 2)
                dists.append(np.mean([r.distances["0"] + r.distances["1"] for r in rep.per_layer]) / 2)
            medians.append(float(np.median(fids)))
            estimate_scores.append(float(np.median(dists)))
        for lo, hi in zip(medians[1:], medians[:-1]):
            assert lo <= hi + 1e-9
        # the tomographic estimates themselves must be visibly worse at p=0.05
        assert estimate_scores[-1] > estimate_scores[0] + 0.01
