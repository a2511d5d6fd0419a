import dataclasses
import inspect
import math
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from qverify.benchmarks import demo_circuit
from qverify.circuits import (
    LayeredCircuit,
    choi_state,
    compose_unitary,
    identity_circuit,
    random_circuit,
)
from qverify.core import (
    AXIS_ROTATIONS,
    PAULIS,
    PauliBasis,
    StateVec,
    apply_unitary_array,
    exact_pauli_distribution,
)
from qverify.device import (
    PREP_SEQUENCES,
    PREP_VECTORS,
    Device,
    DeviceProfile,
    NoiseConfig,
    TimeLedger,
    _sample,
    device_time_for_learning,
    rotate_to_z,
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


def blank_shots(dev, axes, k, shots, rng, prefix=None):
    """Indices of the outcomes of ``shots`` unprepared shots read out along ``axes``."""
    prefix = identity_circuit(dev.n) if prefix is None else prefix
    setting = settings_table(np.zeros((1, dev.n), dtype=int), axis_codes(axes), [shots])
    return dev.execute_settings(prefix, k, setting, rng)


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
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_before_any_work(self, case, monkeypatch):
        dev, _ = demo_device(1)

        def no_unitary(*args, **kwargs):
            raise AssertionError("unitary built before validation finished")

        monkeypatch.setattr("qverify.device.compose_unitary", no_unitary)
        call = dict(prefix=identity_circuit(2), k=1, settings=table())
        call.update(self.CASES[case])
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(InvalidRequest):
            dev.execute_settings(call["prefix"], call["k"], call["settings"], rng)
        assert rng.bit_generator.state == state
        assert dev.ledger.layer_count == 0
        assert dev.ledger.per_shot_layers == {}

    def test_valid_call_returns_one_flat_array(self):
        dev, _ = demo_device(1)
        xh = PREP_SEQUENCES.index(("X",)), PREP_SEQUENCES.index(("H", "S"))
        settings = table(prep=((0, 0), xh, (0, 0)), axes=((2, 2), (0, 1), (2, 2)), shots=(4, 0, 4))
        out = dev.execute_settings(identity_circuit(2), 1, settings, np.random.default_rng(3))
        assert out.shape == (8,) and out.dtype == np.uint8
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
        whole = np.random.default_rng(8)
        whole.integers(2**63)  # the noise stream's seed
        whole.random(settings["shots"].sum())
        after = whole.random()
        runs = []
        # (settings, shots) bounds: one whole batch first; a bound of 1 or 7
        # shots ends chunks inside a run of settings and leaves a setting of
        # more shots than the bound in a chunk of its own
        for chunk, chunk_shots in ((4096, 1 << 14), (5, 1 << 14), (4096, 1), (4096, 7), (5, 7)):
            monkeypatch.setattr("qverify.device.CHUNK_SETTINGS", chunk)
            monkeypatch.setattr("qverify.device.CHUNK_SHOTS", chunk_shots)
            dev = Device(DeviceProfile(3, 2, Fraction(1), c), NoiseConfig(depolarizing_p=p))
            rng = np.random.default_rng(8)
            runs.append(dev.execute_settings(prefix, 2, settings, rng))
            # the chunks' uniforms leave the stream where one whole draw does
            assert rng.random() == after
        assert len(runs[0]) == settings["shots"].sum()
        for run in runs[1:]:
            assert np.array_equal(runs[0], run)

    def test_n8_record_set_memory_is_bounded(self):
        from qverify.reconstruction import _shot_record_set

        # (n, depth = k, p, shots, bound on the peak in bytes): at n=8 the
        # chunks' columns dominate; at n=2 and 3 the per-shot arrays do; at
        # n=4 nearly every shot has a setting of its own, so the per-setting
        # arrays weigh too; at p=0.05 about 0.45 hits per shot, and at p=0.5
        # about 4.5, add their sites (5 bytes a hit: an int32 site and an int8
        # Pauli code) and their trajectory columns
        for n, depth, p, shots, bound in (
            (8, 1, 0.0, 20_000, 128 * 2**20),
            (3, 1, 0.0, 200_000, 12 * 200_000),
            (2, 1, 0.0, 160_000, 9 * 160_000),
            (4, 1, 0.0, 200_000, 38 * 200_000),
            (3, 3, 0.05, 200_000, 32 * 200_000),
            (3, 3, 0.5, 200_000, 80 * 200_000),
        ):
            c = random_circuit(n, depth, standard_gate_set(), 9)
            dev = Device(DeviceProfile(n, depth, Fraction(1), c), NoiseConfig(depolarizing_p=p))
            tracemalloc.start()
            try:
                rs = _shot_record_set(
                    dev, depth, identity_circuit(n), shots, np.random.default_rng(10)
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(rs) == shots
            assert peak < bound, f"n={n}: peak {peak / 2**20:.1f} MB, {peak / shots:.1f} B/shot"


def per_shot_trajectories(hidden, p, prefix, k, settings, rng, ledger):
    """Reference: the noisy shot path one shot at a time, from the documented noise stream.

    The call's sites are the (gate, touched qubit) pairs of ``hidden[:k]``, S
    per shot, numbered shot-major over the call's shots: site s of shot i is
    i * S + s. The hit sites are the running sums, minus one, of geometric(p)
    gaps drawn in blocks of int(m + 4 sqrt(m)) + 16 (m = sites * p) until a
    running sum passes the last site; one int8 ``integers(1, 4)`` per hit then
    picks X, Y or Z. A shot without a hit runs the noiseless circuit; a hit
    shot runs every gate, each of its sites' Paulis right after it.
    """
    n = hidden.n
    prep, axes, counts = (settings[name].astype(np.int64) for name in ("prep", "axes", "shots"))
    noise_rng = np.random.default_rng(int(rng.integers(2**63)))
    u01 = rng.random(int(counts.sum()))
    gates = [
        (block, gate)
        for layer in hidden.layers[:k]
        for block, gate in zip(layer.blocks, layer.gates)
    ]
    width = sum(len(block) for block, _ in gates)
    grid = len(u01) * width
    hits = {}
    if grid and p:
        block_size = int(grid * p + 4 * math.sqrt(grid * p)) + 16
        sites = [-1]
        while sites[-1] < grid:
            for gap in noise_rng.geometric(p, size=block_size).tolist():
                sites.append(sites[-1] + gap)
        sites = [site for site in sites[1:] if site < grid]
        codes = noise_rng.integers(1, 4, size=len(sites), dtype=np.int8)
        hits = {site: PAULIS["IXYZ"[code]] for site, code in zip(sites, codes)}
    clean = compose_unitary(hidden, k) @ compose_unitary(prefix)
    columns = []
    for i, row in enumerate(np.repeat(prep, counts, axis=0)):
        psi = reduce(np.kron, PREP_VECTORS[row])
        if not any(i * width + s in hits for s in range(width)):
            columns.append(clean @ psi)
            continue
        psi = compose_unitary(prefix) @ psi
        site = i * width
        for block, gate in gates:
            psi = apply_unitary_array(psi, gate.matrix, block, n)
            for q in block:
                if site in hits:
                    psi = apply_unitary_array(psi, hits[site], (q,), n)
                site += 1
        columns.append(psi)
    states = np.stack(columns, axis=1) if columns else np.zeros((1 << n, 0), complex)
    rotated = rotate_to_z(states, np.repeat(axes, counts, axis=0))
    ledger.add_shots(prefix.depth + k, len(u01))
    return _sample(rotated, np.arange(len(u01)), u01)


class TestBatchedTrajectories:
    """One trajectory pass per chunk gives the per-shot reference's outcomes."""

    def test_matches_per_setting_loop(self):
        c = random_circuit(3, 3, standard_gate_set(), 21)
        prefix = random_circuit(3, 1, standard_gate_set(), 22).inverse()
        settings = random_table(3, 60, 24)
        noise = NoiseConfig(depolarizing_p=0.1)
        dev = Device(DeviceProfile(3, 3, Fraction(1), c), noise)
        ref_ledger = TimeLedger(Fraction(1))
        for seed in (25, 26):
            out = dev.execute_settings(prefix, 2, settings, np.random.default_rng(seed))
            ref = per_shot_trajectories(
                c, 0.1, prefix, 2, settings, np.random.default_rng(seed), ref_ledger
            )
            assert np.array_equal(out, ref)
        assert dev.ledger == ref_ledger
        clean = Device(DeviceProfile(3, 3, Fraction(1), c))
        clean_out = clean.execute_settings(prefix, 2, settings, np.random.default_rng(26))
        assert not np.array_equal(out, clean_out)

    @pytest.mark.parametrize("case", ["nearly every shot hit", "zero-shot rows", "k=0"])
    def test_distinct_trajectories_match_per_setting_loop(self, case, monkeypatch):
        import qverify.device

        c = random_circuit(3, 3, standard_gate_set(), 27)
        prefix = random_circuit(3, 1, standard_gate_set(), 28).inverse()
        settings = random_table(3, 40, 30)
        p, k = 0.1, 2
        if case == "nearly every shot hit":
            p = 0.9
        elif case == "zero-shot rows":
            settings["shots"][[0, 1, 7, 8, 9, 39]] = 0
        else:
            k = 0
        widths, rotate = [], qverify.device.rotate_to_z

        def counted_rotate(states, axes):
            widths.append(states.shape[1])
            return rotate(states, axes)

        monkeypatch.setattr(qverify.device, "rotate_to_z", counted_rotate)
        dev = Device(DeviceProfile(3, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))
        ref_ledger = TimeLedger(Fraction(1))
        for seed in (31, 32):
            out = dev.execute_settings(prefix, k, settings, np.random.default_rng(seed))
            ref = per_shot_trajectories(
                c, p, prefix, k, settings, np.random.default_rng(seed), ref_ledger
            )
            assert len(out) == settings["shots"].sum()
            assert np.array_equal(out, ref)
        assert dev.ledger == ref_ledger
        # one column per setting, plus one per shot that drew an error
        extra = {w - len(settings) for w in widths}
        if case == "nearly every shot hit":
            assert min(extra) > 0.99 * settings["shots"].sum()
        elif case == "k=0":
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
    """A device keeps no state between calls but its ledger."""

    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_reused_unitary_is_never_stale(self, p):
        c = random_circuit(3, 3, standard_gate_set(), 31)
        gs = standard_gate_set()
        prefix_a = random_circuit(3, 1, gs, 32).inverse()
        prefix_b = random_circuit(3, 1, gs, 33).inverse()
        settings = random_table(3, 40, 36)

        def device():
            return Device(DeviceProfile(3, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))

        shared = device()
        before = dict(vars(shared))
        calls = [(prefix_a, 2), (prefix_b, 2), (prefix_a, 2), (prefix_a, 2), (prefix_a, 1)]
        for seed, (prefix, k) in enumerate(calls):
            out = shared.execute_settings(prefix, k, settings, np.random.default_rng(seed))
            fresh = device().execute_settings(prefix, k, settings, np.random.default_rng(seed))
            assert np.array_equal(out, fresh)
        # the calls added to the ledger and changed nothing else on the device
        assert vars(shared).keys() == before.keys()
        assert all(vars(shared)[name] is value for name, value in before.items())
        assert shared.ledger.per_shot_layers == {3: 4 * settings["shots"].sum(),
                                                 2: settings["shots"].sum()}
        # consecutive calls that differ give different outcomes at one seed
        distinct = [calls[0], calls[1], calls[2], calls[4]]
        same_seed = [
            device().execute_settings(prefix, k, settings, np.random.default_rng(0))
            for prefix, k in distinct
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
        _dedicated_record_set(dev, 3, prefix, 64, np.random.default_rng(37))
        # the nine rounds run as one call, which composes hidden[:k] and the
        # prefix once whether or not the device is noisy
        assert len(calls) == 1
        assert composed == [1] * 2


class TestBlackBox:
    def test_public_surface_hides_the_circuit(self):
        dev, _ = demo_device(1)
        public = [name for name in dir(dev) if not name.startswith("_")]
        assert "hidden_circuit" not in public
        assert all("hidden" not in name for name in public)
        assert {"n", "d", "t", "ledger"} <= set(public)
        methods = {name for name in public if callable(getattr(dev, name))}
        assert methods == {"execute_settings", "ideal_choi_state"}

    def test_execute_settings_takes_one_query(self):
        """A call runs a prefix, then the hidden circuit up to k, then measures."""
        dev, _ = demo_device(1)
        params = list(inspect.signature(dev.execute_settings).parameters)
        assert params == ["inverse_prefix", "k", "settings", "rng"]
        undo = Layer(((0, 1),), (builtin_gate("CNOT"),))
        blank = settings_table(np.zeros((1, 2), dtype=int), axis_codes("ZZ"), [1])
        rng = np.random.default_rng(3)
        with pytest.raises(TypeError):
            dev.execute_settings(identity_circuit(2), 1, blank, rng, undo=undo)
        assert dev.ledger.layer_count == 0


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

    def test_outcomes_match_depolarizing_channel(self):
        """One noisy call's outcome frequencies follow the exact density-matrix channel."""
        n, k, p, shots = 3, 3, 0.1, 400_000
        gs = standard_gate_set()
        c = random_circuit(n, 3, gs, 51)
        # the prefix undoes hidden[:k], so without noise every shot reads
        # 000; the noise that the gates spread makes the other outcomes
        prefix = LayeredCircuit(n, c.layers[:k]).inverse()
        prep, axes = (0, 0, 0), (2, 2, 2)
        # one setting repeated over 100 rows, so the call runs in many chunks
        settings = settings_table([prep] * 100, [axes] * 100, [shots // 100] * 100)
        dev = Device(DeviceProfile(n, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))
        out = dev.execute_settings(prefix, k, settings, np.random.default_rng(54))

        def conjugate(rho, m, qubits):  # m rho m^dagger
            left = apply_unitary_array(rho, m, qubits, n)
            return apply_unitary_array(left.conj().T, m, qubits, n).conj().T

        psi = compose_unitary(prefix) @ reduce(np.kron, PREP_VECTORS[list(prep)])
        rho = np.outer(psi, psi.conj())
        for layer in c.layers[:k]:
            for block, gate in zip(layer.blocks, layer.gates):
                rho = conjugate(rho, gate.matrix, block)
                for q in block:
                    flips = sum(conjugate(rho, PAULIS[name], (q,)) for name in "XYZ")
                    rho = (1 - p) * rho + p / 3 * flips
        for q, axis in enumerate(axes):
            rho = conjugate(rho, AXIS_ROTATIONS["XYZ"[axis]], (q,))
        expected = shots * np.real(np.diag(rho))
        assert expected.min() > 5
        counts = np.bincount(out, minlength=1 << n)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # the 0.001 critical value of chi-squared on 7 degrees of freedom
        assert chi2 < 24.3, f"chi2 {chi2:.1f}"

    @pytest.mark.parametrize("p", [0.002, 0.1, 0.9])
    def test_hit_counts_are_binomial(self, p, monkeypatch):
        """Every site is hit with probability p, and each hit's Pauli is uniform."""
        import qverify.device

        c = random_circuit(3, 3, standard_gate_set(), 55)
        sites = 40_000 * 9  # every layer touches each of the 3 qubits once
        settings = random_table(3, 40, 56)
        settings["shots"] = 1000
        paulis = np.array([PAULIS[name] for name in "XYZ"])
        tally, apply = np.zeros(3, int), qverify.device._apply_per_column

        def counted_apply(states, mats, q):
            # readout rotations (H, H S^dagger, I) are no Pauli, so only noise counts
            match = np.all(np.isclose(mats[:, None], paulis[None]), axis=(2, 3))
            if match.any(axis=1).all():
                tally[:] += match.sum(axis=0)
            return apply(states, mats, q)

        monkeypatch.setattr(qverify.device, "_apply_per_column", counted_apply)
        dev = Device(DeviceProfile(3, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))
        prefix = random_circuit(3, 1, standard_gate_set(), 57).inverse()
        dev.execute_settings(prefix, 3, settings, np.random.default_rng(58))
        hits = tally.sum()
        assert abs(hits - sites * p) < 5 * math.sqrt(sites * p * (1 - p))
        assert all(abs(tally - hits / 3) < 5 * math.sqrt(hits * 2 / 9))

    def test_call_without_hits_reads_the_noiseless_columns(self):
        c = random_circuit(3, 3, standard_gate_set(), 59)
        prefix = random_circuit(3, 1, standard_gate_set(), 60).inverse()
        settings = random_table(3, 3000, 62)
        outs = []
        for p in (0.0, 1e-12):  # about 7e-8 hits expected at 1e-12
            dev = Device(DeviceProfile(3, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))
            rng = np.random.default_rng(63)
            outs.append(dev.execute_settings(prefix, 3, settings, rng))
        assert outs[0].dtype == outs[1].dtype
        assert np.array_equal(*outs)

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
