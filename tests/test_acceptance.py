"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines as they complete.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
from mpmath import mp

from qverify.benchmarks import benchmark_suite
from qverify.circuits import (
    Layer,
    LayeredCircuit,
    choi_state,
    identity_circuit,
    layer_unitary,
    same_circuit,
)
from qverify.core import PauliBasis, exact_pauli_distribution, trace_distance_array
from qverify.device import Device, DeviceProfile, device_time_for_learning
from qverify.gates import GateSet, builtin_gate
from qverify.reconstruction import (
    _shot_record_set,
    exact_pseudo_joint,
    learn_multi,
)
from qverify.resolution import cached_resolution
from qverify.rng import stream
from qverify.tomography import estimate_window, required_samples

from conftest import haar_unitary


def announce(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] {criterion}" + (f" - {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def acceptance_gate_set() -> GateSet:
    cnot = builtin_gate("CNOT")
    return GateSet(
        singles=tuple(builtin_gate(g) for g in ("I", "H", "X", "Y", "Z")),
        doubles=(cnot, cnot.reversed()),
    )


def test_criterion_1_end_to_end_benchmark_circuits():
    """Benchmark circuits reconstruct gate-for-gate at 8192 shots per setting."""
    trials = 20
    details = []
    all_ok = True
    for name, circuit, gs in benchmark_suite():
        successes = 0
        worst_time = 0.0
        for trial in range(trials):
            device = Device(DeviceProfile(circuit.n, circuit.depth, Fraction(1), circuit))
            start = time.perf_counter()
            report = learn_multi(
                device, 8192, gs, 0.2, stream(40_000 + trial), mode="hardware"
            )
            worst_time = max(worst_time, time.perf_counter() - start)
            if same_circuit(report.circuit, circuit):
                successes += 1
        details.append(f"{name}: {successes}/{trials} in <= {worst_time:.1f}s")
        all_ok &= successes >= 19 and worst_time < 60.0
    announce("criterion 1 (benchmark-circuit reconstruction)", all_ok, "; ".join(details))


def test_criterion_2_soundness_at_resolution():
    """Every strict 2-qubit layer is recovered exactly from exact records."""
    gs = acceptance_gate_set()
    eps = 0.9 * cached_resolution(gs)
    layers = []
    for g0, g1 in itertools.product(gs.singles, repeat=2):
        layers.append(Layer(((0,), (1,)), (g0, g1)))
    for g in gs.doubles:
        layers.append(Layer(((0, 1),), (g,)))
    failures = []
    for layer in layers:
        circuit = LayeredCircuit(2, (layer,))
        device = Device(DeviceProfile(2, 1, Fraction(1), circuit))
        learned = learn_multi(device, 0, gs, eps, 0, mode="strict-exact").circuit.layers[0]
        if learned != layer:
            failures.append(tuple(g.name for g in layer.gates))
    announce(
        "criterion 2 (soundness at resolution)",
        not failures,
        f"{len(layers) - len(failures)}/{len(layers)} layers exact, eps={eps:.4f}",
    )


def test_criterion_3_pseudo_measurement_equivalence():
    """Ancilla-free and full-Choi joint distributions coincide exactly."""
    worst = 0.0
    rng = np.random.default_rng(20_240_817)
    for n in (1, 2, 3):
        for _ in range(20):
            u = haar_unitary(1 << n, rng)
            for axes in itertools.product("XYZ", repeat=2 * n):
                principal = PauliBasis(axes[:n])
                ancilla = PauliBasis(axes[n:])
                free = exact_pseudo_joint(u, principal, ancilla)
                # 2n-qubit oracle: prepare Bell pairs, apply u x I, measure all
                omega = choi_state(u, n)
                joint = exact_pauli_distribution(
                    omega, PauliBasis(tuple(principal.axes) + tuple(ancilla.axes))
                )
                full = {}
                for key, p in joint.items():
                    full[(key[:n], key[n:])] = full.get((key[:n], key[n:]), 0.0) + p
                tv = 0.5 * sum(
                    abs(free.get(k, 0.0) - full.get(k, 0.0))
                    for k in set(free) | set(full)
                )
                worst = max(worst, tv)
    announce(
        "criterion 3 (pseudo-measurement equivalence)",
        worst < 1e-10,
        f"worst total variation {worst:.2e}",
    )


def test_criterion_4_tomography_scaling():
    """Median window error follows the 1/sqrt(N) convergence rate."""
    start = time.perf_counter()
    circuit = LayeredCircuit(
        2, (Layer(((0, 1),), (builtin_gate("CNOT"),)),)
    )
    ideal = choi_state(layer_unitary(circuit.layers[0], 2), 2)
    ideal_rho = np.outer(ideal.amplitudes, ideal.amplitudes.conj())
    shot_counts = [100, 1_000, 10_000, 100_000]
    medians = []
    for n_shots in shot_counts:
        dists = []
        for seed in range(50):
            device = Device(DeviceProfile(2, 1, Fraction(1), circuit))
            rs = _shot_record_set(
                device, 1, identity_circuit(2), n_shots, stream(7_000 + seed, n_shots)
            )
            est = estimate_window(rs, (0, 1, 2, 3))
            dists.append(trace_distance_array(est.matrix.entries, ideal_rho))
        medians.append(float(np.median(dists)))
    slope = float(np.polyfit(np.log10(shot_counts), np.log10(medians), 1)[0])
    elapsed = time.perf_counter() - start
    announce(
        "criterion 4 (tomography scaling)",
        -0.6 <= slope <= -0.4 and elapsed < 300,
        f"log-log slope {slope:.3f}, medians {['%.4f' % m for m in medians]}, {elapsed:.0f}s",
    )


def test_criterion_5_sample_bound_value():
    """The m=4 bound matches an independent high-precision evaluation."""
    mp.dps = 60
    exact = (
        mp.mpf(2) ** 5
        * mp.mpf(10) ** 4
        * mp.mpf("0.1") ** -2
        * mp.log(mp.mpf(2) * 1 * math.comb(2, 2) / mp.mpf("0.05"))
    )
    want = int(mp.ceil(exact))
    got = required_samples(m=4, n=2, d=1, eps=0.1, delta=0.05)
    announce(
        "criterion 5 (sample-bound evaluation)",
        abs(got - want) <= 1,
        f"required_samples = {got}, high-precision ceil = {want}",
    )


def test_criterion_6_time_accounting():
    """learn_multi's ledger equals N * d^2 * t on the whole grid."""
    ident = builtin_gate("I")
    gs = GateSet(singles=(ident,))
    layer = Layer(((0,), (1,)), (ident, ident))
    mismatches = []
    for d in range(1, 11):
        circuit = LayeredCircuit(2, (layer,) * d)
        for n_shots in (1, 10, 100, 1000):
            device = Device(DeviceProfile(2, d, Fraction(1), circuit))
            learn_multi(device, n_shots, gs, 10.0, 3, mode="strict")
            want = device_time_for_learning(d, device.t, n_shots)
            if device.ledger.total_time != want:
                mismatches.append((d, n_shots))
    announce(
        "criterion 6 (time accounting)",
        not mismatches,
        "ledger == N*d^2*t on the full grid" if not mismatches else f"failed {mismatches}",
    )


def test_criterion_7_purity_detection():
    """Estimated purities sit within 0.02 of theory; detection is perfect."""
    worst_dev = 0.0
    detection_ok = True
    for name, circuit, gs in benchmark_suite():
        device = Device(DeviceProfile(circuit.n, circuit.depth, Fraction(1), circuit))
        report = learn_multi(device, 8192, gs, 0.2, stream(55_001), mode="hardware")
        for layer, rep in zip(circuit.layers, report.per_layer):
            for reg in rep.purities:
                theory = rep.purities_theory[reg]
                assert min(abs(theory - 1.0), abs(theory - 0.5)) < 1e-9
                worst_dev = max(worst_dev, abs(rep.purities[reg] - theory))
            truly_entangling = len(layer.blocks) == 1
            detection_ok &= rep.cnot_detected == truly_entangling
    announce(
        "criterion 7 (purity-based detection)",
        worst_dev < 0.02 and detection_ok,
        f"worst purity deviation {worst_dev:.4f}, detection 100%: {detection_ok}",
    )


def test_criterion_8_noise_monotonicity(tmp_path):
    """Median fidelity falls with gamma everywhere and trends down in depth."""
    from qverify.cli import main

    tmp = tmp_path
    rc = main([
        "sweep-noise", "--gammas", "0,1,3,5", "--depths", "10",
        "--seeds", "40", "--seed", "20240817", "--out", str(tmp),
    ])
    assert rc == 0
    rows = (tmp / "noise.csv").read_text().strip().splitlines()[1:]
    med = {}
    for row in rows:
        g, k, m, _, _ = row.split(",")
        med[(int(g), int(k))] = float(m)
    gammas = (0, 1, 3, 5)
    gamma_ok = all(
        med[(lo, k)] >= med[(hi, k)] - 1e-12
        for k in range(1, 11)
        for lo, hi in zip(gammas, gammas[1:])
    )
    slopes = {}
    for g in gammas:
        series = [med[(g, k)] for k in range(1, 11)]
        slopes[g] = float(np.polyfit(range(1, 11), series, 1)[0])
    depth_ok = all(slopes[g] <= 1e-12 for g in gammas) and all(
        med[(g, 10)] <= med[(g, 1)] + 1e-12 for g in gammas
    )
    announce(
        "criterion 8 (noise monotonicity)",
        gamma_ok and depth_ok,
        f"slopes {{γ: {', '.join(f'{g}: {s:.2e}' for g, s in slopes.items())}}}",
    )
