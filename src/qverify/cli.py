"""Command-line harness: reconstruction runs, sweeps, and gate-set reports.

Commands
--------

* ``reconstruct`` - build a device from a circuit file, learn every layer,
  and write ``report.json`` plus a per-layer ``report.csv``.
* ``sweep-samples`` - state-tomography accuracy versus sample count for
  window sizes 1-3 and the full-state reference, on a Haar-random state.
* ``sweep-noise`` - two-qubit accuracy versus learned depth when every layer estimate
  is perturbed by a Hermitian noise matrix scaled by 5^gamma * 1e-4.
* ``resolution`` - class inventory and resolution of a gate set.
* ``generate`` - emit a random strict-layer circuit file.

All commands are deterministic given their flags and ``--seed`` (environment
variable ``QVERIFY_SEED`` is the fallback). Exit status is 0 on success, 1 on
a reconstruction failure, and 2 on configuration or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from .circuits import (
    LayeredCircuit,
    _gate_lookup,
    choi_state,
    emit_circuit,
    parse_circuit,
    random_circuit,
)
from .core import AXES, PauliBasis, StateVec, _rotated_probabilities, relative_fidelity_array
from .device import Device, DeviceProfile, NoiseConfig
from .errors import DegenerateGateSet, InvalidParameter, QVerifyError, ReconstructionError
from .gates import GateSet, qft_gate_set, standard_gate_set
from .reconstruction import learn_multi
from .resolution import (
    closest_pair,
    enumerate_config_classes,
    gate_set_resolution,
    raw_class_counts,
)
from .rng import stream
from .tomography import estimate_from, perturb_matrix, project_to_physical, required_samples

EXIT_OK = 0
EXIT_RECONSTRUCTION = 1
EXIT_CONFIG = 2


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("QVERIFY_SEED")
    return int(env) if env else 0


def _load_gate_set(spec: str) -> GateSet:
    if spec == "standard":
        return standard_gate_set()
    if spec == "qft":
        return qft_gate_set()
    text = Path(spec).read_text(encoding="utf-8")
    doc = json.loads(text)
    table = _gate_lookup(doc, "gate_set")
    singles = tuple(g for g in table.values() if g.arity == 1)
    doubles = tuple(g for g in table.values() if g.arity == 2)
    return GateSet(singles=singles, doubles=doubles)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# -- reconstruct -----------------------------------------------------------------


def _report_csv(report, circuit: LayeredCircuit) -> str:
    groups = {}
    if report.circuit.depth == circuit.depth:
        for g_idx, members in enumerate(circuit.groups):
            for layer_idx in members:
                groups[layer_idx + 1] = g_idx
    lines = [
        "layer,group,register,gates,purity,purity_theory,relative_fidelity,distance,residual"
    ]
    for rep in report.per_layer:
        for reg in sorted(rep.purities):
            res = rep.residuals.get(reg, float("nan"))
            lines.append(
                ",".join(
                    [
                        str(rep.index),
                        str(groups.get(rep.index, rep.index - 1)),
                        reg,
                        ";".join(rep.gates),
                        _fmt(rep.purities[reg]),
                        _fmt(rep.purities_theory[reg]),
                        _fmt(rep.fidelities.get(reg, float("nan"))),
                        _fmt(rep.distances.get(reg, float("nan"))),
                        _fmt(res),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def cmd_reconstruct(args) -> int:
    try:
        text = Path(args.circuit).read_text(encoding="utf-8")
        circuit = parse_circuit(text)
        gs = _load_gate_set(args.gateset)
        # circuit files may embed device parameters; flags take precedence
        doc = json.loads(text)
        noise_doc = doc.get("noise", {})
        noise = NoiseConfig(
            depolarizing_p=(
                args.noise_p
                if args.noise_p is not None
                else float(noise_doc.get("depolarizing_p", 0.0))
            ),
        )
        t = Fraction(args.t if args.t is not None else str(doc.get("t", 1)))
        mode = args.mode if not args.exact else "strict-exact"
        # a flag the mode never reads is refused; the ones it reads get defaults
        ignored = {"hardware": ("eps", "delta"), "strict-exact": ("delta",)}.get(mode, ())
        given = [f"--{name}" for name in ignored if getattr(args, name) is not None]
        if given:
            where = "hardware mode" if mode == "hardware" else "--exact"
            raise ValueError(f"no effect with {where}: {' '.join(given)}")
        eps = None if mode == "hardware" else 0.2 if args.eps is None else args.eps
        delta = 0.05 if args.delta is None else args.delta
        if mode == "hardware" and circuit.n != 2:
            raise ValueError(f"hardware mode needs a 2-qubit circuit, got n={circuit.n}")
        device = Device(DeviceProfile(circuit.n, circuit.depth, t, circuit), noise)
        if mode == "strict":
            bound = required_samples(
                4, max(circuit.n, 2), max(circuit.depth, 1), eps, delta
            )
    except (OSError, ValueError, QVerifyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = _default_seed(args.seed)
    if mode == "strict" and 0 < args.shots < bound:
        print(
            f"note: {args.shots} shots per layer is a desk-scale run; the "
            f"eps={eps}, delta={delta} guarantee asks for {bound}"
        )
    try:
        report = learn_multi(device, args.shots, gs, eps, stream(seed), mode=mode)
    except InvalidParameter as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReconstructionError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    out = Path(args.out)
    _write(out / "report.json", report.to_json())
    _write(out / "report.csv", _report_csv(report, circuit))
    _write(out / "reconstructed_circuit.json", emit_circuit(report.circuit))
    print(f"reconstructed {report.circuit.depth} layers; ledger {report.ledger.render()}")
    return EXIT_OK


# -- sweep-samples -----------------------------------------------------------------


def _sample_setting_counts(probs_by_setting: np.ndarray, shots: int, rng) -> np.ndarray:
    """Counts over (settings, outcomes) for uniformly random settings."""
    n_settings, n_out = probs_by_setting.shape
    setting_draws = rng.integers(0, n_settings, size=shots)
    per_setting = np.bincount(setting_draws, minlength=n_settings)
    counts = np.zeros((n_settings, n_out), dtype=np.int64)
    for s in range(n_settings):
        if per_setting[s]:
            counts[s] = rng.multinomial(per_setting[s], probs_by_setting[s])
    return counts


def _state_probs_by_setting(state: np.ndarray, n: int) -> np.ndarray:
    """(3^n, 2^n) readout probabilities, one row per basis, qubit 0's axis slowest."""
    psi = StateVec(n, state)
    out = np.array(
        [_rotated_probabilities(psi, PauliBasis(axes)) for axes in product(AXES, repeat=n)]
    )
    return out / out.sum(axis=1, keepdims=True)


def _marginal_counts(counts: np.ndarray, subset, n: int) -> np.ndarray:
    """Reduce full (3^n, 2^n) cell counts onto an ascending wire subset."""
    m = len(subset)
    tensor = counts.reshape([3] * n + [2] * n)
    keep = list(subset) + [n + w for w in subset]
    drop = tuple(ax for ax in range(2 * n) if ax not in keep)
    return tensor.sum(axis=drop).reshape(3**m, 1 << m)


def _haar_state(n: int, rng) -> np.ndarray:
    z = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return u[:, 0]


def cmd_sweep_samples(args) -> int:
    from itertools import combinations

    from .core import pure_marginal_array

    try:
        shots_list = [int(x) for x in args.shots_list.split(",")]
        if not shots_list or shots_list != sorted(shots_list):
            raise ValueError("shots list must be nonempty ascending")
        if shots_list[0] < 1:
            raise ValueError("every shot level must be at least 1")
        if args.n < 2:
            raise ValueError("need at least two qubits")
        if args.seeds < 1:
            raise ValueError("seeds must be positive")
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = _default_seed(args.seed)
    n = args.n
    window_sizes = [m for m in (1, 2, 3) if m < n] + [n]

    fidelities: dict[tuple[int, int], list[float]] = {
        (m, N): [] for m in window_sizes for N in shots_list
    }
    for trial in range(args.seeds):
        rng = stream(seed, trial)
        state = _haar_state(n, rng)
        probs = _state_probs_by_setting(state, n)
        ideal = {
            subset: pure_marginal_array(state, list(subset), n)
            for m in window_sizes
            for subset in combinations(range(n), m)
        }
        for N in shots_list:
            counts = _sample_setting_counts(probs, N, rng)
            for m in window_sizes:
                for subset in combinations(range(n), m):
                    est = estimate_from(_marginal_counts(counts, subset, n), subset)
                    proj = project_to_physical(est)
                    fidelities[(m, N)].append(
                        relative_fidelity_array(proj.entries, ideal[subset])
                    )
    lines = ["m,N,mean_fidelity,std"]
    for m in window_sizes:
        for N in shots_list:
            vals = np.array(fidelities[(m, N)])
            lines.append(f"{m},{N},{_fmt(vals.mean())},{_fmt(vals.std())}")
    _write(Path(args.out) / "samples.csv", "\n".join(lines) + "\n")
    print(f"wrote {Path(args.out) / 'samples.csv'}")
    return EXIT_OK


# -- sweep-noise ---------------------------------------------------------------------


def nearest_unitary(choi_matrix: np.ndarray, n: int) -> np.ndarray:
    """Unitary closest to a perturbed Choi estimate.

    Takes the dominant eigenvector, reshapes it back into an operator, and
    polar-projects onto the unitary group.
    """
    w, v = np.linalg.eigh(choi_matrix)
    top = v[:, int(np.argmax(w))]
    m = top.reshape(1 << n, 1 << n) * 2 ** (n / 2)
    u_l, _, v_r = np.linalg.svd(m)
    return u_l @ v_r


def _extract_layer_continuous(est: np.ndarray, purity_threshold: float = 0.75) -> np.ndarray:
    """Continuous-gate layer extraction from a two-qubit window estimate.

    Mirrors the layerwise learning loop without a discrete set to snap to:
    entanglement is detected by register purity, a detected CNOT is undone on
    the estimate itself, and the local gates are read off the register
    marginals. The layer is forced back into (CNOT) x local product form, so
    error components outside that family cannot be absorbed and carry over.
    """
    from .core import partial_trace_array, trace_distance_array
    from .gates import builtin_gate

    margs = [partial_trace_array(est, [q, q + 2], 4) for q in range(2)]
    purities = [float(np.einsum("ij,ji->", m, m).real) for m in margs]
    entangler = np.eye(4, dtype=complex)
    if min(purities) < purity_threshold:
        cnot = builtin_gate("CNOT")
        candidates = [cnot.matrix, cnot.reversed().matrix]
        chois = [
            np.outer(choi_state(u, 2).amplitudes, choi_state(u, 2).amplitudes.conj())
            for u in candidates
        ]
        dists = [trace_distance_array(est, c) for c in chois]
        entangler = candidates[int(np.argmin(dists))]
        undo = np.kron(entangler.conj().T, np.eye(4))
        est = undo @ est @ undo.conj().T
        margs = [partial_trace_array(est, [q, q + 2], 4) for q in range(2)]
    local = np.kron(nearest_unitary(margs[0], 1), nearest_unitary(margs[1], 1))
    return entangler @ local


def _haar_single_qubit_layer(n: int, rng) -> np.ndarray:
    u = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    return u


def _random_continuous_circuit(depths: int, rng) -> list[np.ndarray]:
    """Haar single-qubit rounds mixed with CNOT rounds, two qubits."""
    from .gates import builtin_gate

    cnot = builtin_gate("CNOT")
    layers = []
    for _ in range(depths):
        if rng.random() < 0.5:
            layers.append(
                cnot.matrix if rng.random() < 0.5 else cnot.reversed().matrix
            )
        else:
            layers.append(_haar_single_qubit_layer(2, rng))
    return layers


def cmd_sweep_noise(args) -> int:
    try:
        gammas = [int(x) for x in args.gammas.split(",")]
        if any(g not in range(6) for g in gammas):
            raise ValueError("gammas must lie in [0, 5]")
        if args.depths < 1:
            raise ValueError("depths must be positive")
        if args.seeds < 1:
            raise ValueError("seeds must be positive")
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = _default_seed(args.seed)
    depths = args.depths
    n = 2
    fids: dict[tuple[int, int], list[float]] = {
        (g, k): [] for g in gammas for k in range(1, depths + 1)
    }
    for trial in range(args.seeds):
        layers = _random_continuous_circuit(depths, stream(seed, 100, trial))
        layer_chois = [
            np.outer(choi_state(u, n).amplitudes, choi_state(u, n).amplitudes.conj())
            for u in layers
        ]
        for gamma in gammas:
            prefix_u = np.eye(1 << n, dtype=complex)
            full_u = np.eye(1 << n, dtype=complex)
            for k in range(1, depths + 1):
                full_u = layers[k - 1] @ full_u
                u_eff = full_u @ prefix_u.conj().T
                omega = choi_state(u_eff, n)
                raw = np.outer(omega.amplitudes, omega.amplitudes.conj())
                est = perturb_matrix(raw, gamma, stream(seed, trial, gamma, k))
                fids[(gamma, k)].append(
                    relative_fidelity_array(est, layer_chois[k - 1])
                )
                prefix_u = _extract_layer_continuous(est) @ prefix_u
    lines = ["gamma,depth,median_fidelity,mean_fidelity,std"]
    for gamma in gammas:
        for k in range(1, depths + 1):
            vals = np.array(fids[(gamma, k)])
            lines.append(
                f"{gamma},{k},{_fmt(float(np.median(vals)))},"
                f"{_fmt(vals.mean())},{_fmt(vals.std())}"
            )
    _write(Path(args.out) / "noise.csv", "\n".join(lines) + "\n")
    print(f"wrote {Path(args.out) / 'noise.csv'}")
    return EXIT_OK


def cmd_resolution(args) -> int:
    try:
        gs = _load_gate_set(args.gateset)
    except (OSError, ValueError, QVerifyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elements = enumerate_config_classes(gs)
    raw = raw_class_counts(gs)
    distinct = {c: 0 for c in ("C1", "C2", "C3", "C4", "C5")}
    for e in elements:
        distinct[e.class_id] += 1
    print("class inventory (raw / distinct):")
    for c in ("C1", "C2", "C3", "C4", "C5"):
        print(f"  {c}: {raw[c]} / {distinct[c]}")
    try:
        resolution = gate_set_resolution(gs, elements)
    except DegenerateGateSet as exc:
        print(f"degenerate gate set: {exc}")
        return EXIT_RECONSTRUCTION
    if math.isinf(resolution):
        print("resolution: Infinite (single configuration)")
        return EXIT_OK
    a, b, dist = closest_pair(elements)
    print(f"resolution: {_fmt(resolution)}")
    print(
        f"closest pair at distance {_fmt(dist)}: "
        f"[{a.provenance[0].detail}] vs [{b.provenance[0].detail}]"
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.n < 1 or args.depth < 1:
        print("configuration error: n and depth must be positive", file=sys.stderr)
        return EXIT_CONFIG
    try:
        gs = _load_gate_set(args.gateset)
    except (OSError, ValueError, QVerifyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = _default_seed(args.seed)
    circuit = random_circuit(args.n, args.depth, gs, stream(seed))
    _write(Path(args.out), emit_circuit(circuit))
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qverify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="learn a hidden circuit end to end")
    p.add_argument("--circuit", required=True)
    p.add_argument("--gateset", default="standard")
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--eps", type=float, default=None, help="strict modes only (default 0.2)")
    p.add_argument("--delta", type=float, default=None, help="strict mode only (default 0.05)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["strict", "hardware"], default="hardware")
    p.add_argument("--exact", action="store_true", help="infinite-shot oracle estimator")
    p.add_argument("--noise-p", type=float, default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep-samples", help="tomography accuracy vs sample count")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--shots-list", default="100,1000,10000,100000")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_samples)

    p = sub.add_parser("sweep-noise", help="accuracy vs depth under estimate noise")
    p.add_argument("--gammas", default="0,1,3,5")
    p.add_argument("--depths", type=int, default=10)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_noise)

    p = sub.add_parser("resolution", help="gate-set class inventory and resolution")
    p.add_argument("--gateset", default="standard")
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("generate", help="emit a random strict-layer circuit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--gateset", default="standard")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
