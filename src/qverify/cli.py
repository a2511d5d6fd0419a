"""Command-line harness: reconstruction runs, sweeps, and gate-set reports.

Commands
--------

* ``reconstruct`` - build a device from a circuit file, learn every layer at
  failure probability ``--delta``, and write ``report.json`` and ``report.csv``.
* ``sweep-samples`` - state-tomography accuracy versus sample count for
  window sizes 1-3 and the full-state reference, on a Haar-random state.
* ``sweep-noise`` - two-qubit accuracy versus learned depth when every layer estimate
  is perturbed by a Hermitian noise matrix scaled by 5^gamma * 1e-4.
* ``resolution`` - class inventory and resolution of a gate set.
* ``generate`` - emit a random strict-layer circuit file.

All commands are deterministic given their flags and ``--seed`` (environment
variable ``QVERIFY_SEED`` is the fallback). Exit status is 0 on success, 1 on
a reconstruction failure, and 2 on configuration or parse errors. The
computations live in the library (``qverify.sweeps``, ``learn_multi``,
``qverify.resolution``); this module parses arguments, applies the flag
policy, prints, and maps errors to exit codes in :func:`main` only.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .circuits import emit_circuit, parse_circuit_file, parse_gate_set, random_circuit
from .device import Device, DeviceProfile, NoiseConfig
from .errors import DegenerateGateSet, InvalidParameter, QVerifyError, ReconstructionError
from .gates import GateSet, qft_gate_set, standard_gate_set
from .reconstruction import format_float, learn_multi
from .resolution import (
    closest_pair, coefficient_table, enumerate_config_classes, raw_class_counts,
)
from .rng import stream
from .sweeps import sweep_noise, sweep_samples

EXIT_OK = 0
EXIT_RECONSTRUCTION = 1
EXIT_CONFIG = 2

# reconstruct flags each mode never reads; giving one is a configuration error
_IGNORED = {"hardware": ("delta",), "strict-exact": ("delta", "noise_p")}


def _seed(flag: int | None) -> int:
    """``--seed``, else ``QVERIFY_SEED``, else 0; a non-negative integer."""
    if flag is None:
        text = os.environ.get("QVERIFY_SEED") or "0"
        try:
            flag = int(text)
        except ValueError:
            raise InvalidParameter(f"QVERIFY_SEED={text!r} is not an integer") from None
    if flag < 0:
        raise InvalidParameter(f"seed {flag} must be a non-negative integer")
    return flag


def _ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InvalidParameter(f"{flag} {text!r} is not a comma-separated integer list") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not UTF-8 text: {exc.reason}") from None


def _gate_set(spec: str) -> GateSet:
    if spec == "standard":
        return standard_gate_set()
    if spec == "qft":
        return qft_gate_set()
    return parse_gate_set(_read(spec))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_reconstruct(args) -> int:
    seed = _seed(args.seed)
    circuit, t, noise_p = parse_circuit_file(_read(args.circuit))
    gs = _gate_set(args.gateset)
    if args.exact and args.mode == "hardware":
        raise InvalidParameter("--exact runs the strict-exact estimator, not hardware mode")
    mode = "strict-exact" if args.exact else args.mode or "hardware"
    given = [f"--{name.replace('_', '-')}" for name in _IGNORED.get(mode, ())
             if getattr(args, name) is not None]
    if given:
        where = "hardware mode" if mode == "hardware" else "--exact"
        raise InvalidParameter(f"no effect with {where}: {' '.join(given)}")
    if mode == "strict-exact" and noise_p:  # the exact oracle is noiseless
        raise InvalidParameter(
            f"no effect with --exact: {args.circuit} sets noise.depolarizing_p={noise_p}"
        )
    # circuit files may embed device parameters; flags take precedence
    if args.t is not None:
        try:
            t = Fraction(args.t)
        except (ValueError, ZeroDivisionError):
            raise InvalidParameter(f"--t {args.t!r} is not a number") from None
    noise = NoiseConfig(depolarizing_p=noise_p if args.noise_p is None else args.noise_p)
    device = Device(DeviceProfile(circuit.n, circuit.depth, t, circuit), noise)
    delta = 0.05 if args.delta is None else args.delta
    report = learn_multi(device, args.shots, gs, rng=stream(seed), mode=mode, delta=delta)
    out = Path(args.out)
    _write(out / "report.json", report.to_json())
    _write(out / "report.csv", report.to_csv(circuit.groups))
    _write(out / "reconstructed_circuit.json", emit_circuit(report.circuit))
    print(f"reconstructed {report.circuit.depth} layers; ledger {report.ledger.render()}")
    return EXIT_OK


def cmd_sweep_samples(args) -> int:
    shots_list = _ints(args.shots_list, "--shots-list")
    text = sweep_samples(args.n, shots_list, args.seeds, _seed(args.seed))
    _write(Path(args.out) / "samples.csv", text)
    print(f"wrote {Path(args.out) / 'samples.csv'}")
    return EXIT_OK


def cmd_sweep_noise(args) -> int:
    gammas = _ints(args.gammas, "--gammas")
    text = sweep_noise(gammas, args.depths, args.seeds, _seed(args.seed))
    _write(Path(args.out) / "noise.csv", text)
    print(f"wrote {Path(args.out) / 'noise.csv'}")
    return EXIT_OK


def cmd_resolution(args) -> int:
    gs = _gate_set(args.gateset)
    elements = enumerate_config_classes(gs)
    raw = raw_class_counts(elements)
    print("class inventory (raw / distinct):")
    for c in ("C1", "C2", "C3", "C4", "C5"):
        distinct = sum(e.class_id == c for e in elements)
        print(f"  {c}: {raw[c]} / {distinct}")
    try:
        coefficient_table(gs)  # refuses a degenerate set, as the strict decoder does
    except DegenerateGateSet as exc:
        print(f"degenerate gate set: {exc}")
        return EXIT_RECONSTRUCTION
    if len(elements) < 2:
        print("resolution: Infinite (single configuration)")
        return EXIT_OK
    a, b, dist = closest_pair(elements)
    print(f"resolution: {format_float(0.5 * dist)}")
    print(
        f"closest pair at distance {format_float(dist)}: "
        f"[{a.provenance[0].detail}] vs [{b.provenance[0].detail}]"
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.n < 1 or args.depth < 1:
        raise InvalidParameter("n and depth must be positive")
    gs = _gate_set(args.gateset)
    circuit = random_circuit(args.n, args.depth, gs, stream(_seed(args.seed)))
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
    p.add_argument("--delta", type=float, default=None, help="strict mode only (default 0.05)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["strict", "hardware"], default=None,
                   help="default hardware; --exact implies strict")
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
    try:
        return args.func(args)
    except ReconstructionError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    except (QVerifyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
