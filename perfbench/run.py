#!/usr/bin/env python3
"""Benchmark harness for qverify's reconstruction pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload strict-n3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload. Its jobs run one after another in a closed
loop: each ``learn_multi`` call starts only when the previous one returned.
Whole passes over the workload's fixed job list run until the next pass would
end after ``--seconds``; at least one pass always runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
tracing installed. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, including the tracing overhead. The last line
of standard output is one JSON object; the lines before it print every metric
by name and unit. Full results, and the spans of a traced run, are written to
``perfbench/out/``. The exit code is 0 when every job was judged correct,
1 when a correctness check failed and 2 when there is no result: the library
sources are missing, or no job reconstructed its circuit.
``--workload all`` runs every workload, each in its own process, and prints
one table.
"""

from __future__ import annotations

import os

# Before numpy is imported: every workload runs single-threaded.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("hardware-suite", "strict-n3", "exact-n6", "shots-ladder")
SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "reconstruct_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import qverify from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "qverify" / "__init__.py").is_file():
        fail(f"no qverify sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qverify

    if Path(qverify.__file__).resolve().parent != SRC / "qverify":
        fail(f"imported qverify from {qverify.__file__}, not from {SRC}")


def provenance() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():  # not a repository of its own: no SHA, not a parent's
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qverify").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
    }


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh processes that import qverify and set the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_REPS):
        # No timeout: waiting with one polls the child in steps of up to 50 ms.
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
    return out


def run_pass(workloads, jobs, devices, tracer, index):
    outcomes = []
    with tracer.installed() if tracer else nullcontext():
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job = f"{index}/{i}"
            outcomes.append(workloads.run_job(job, devices[i] if devices else job.device()))
    return outcomes


def tail(times: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, if it exceeds the median."""
    count = len(times)
    if count < 20:
        return None
    q = (100 * (count - 10)) // count
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    setups = time_setups(workload, seed)
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        if tracer:
            tracer.job = "setup"
        jobs, devices = workloads.setup(workload, seed)
    main_setup_s = time.perf_counter() - start

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(plain) + len(traced)
        in_trace = trace and index % 2 == 1
        pass_start = time.perf_counter()
        outcomes = run_pass(workloads, jobs, devices if index == 0 else None,
                            tracer if in_trace else None, index)
        pass_s = time.perf_counter() - pass_start
        (traced if in_trace else plain).append(outcomes)
        done = index + 1 >= (2 if trace else 1)
        if done and time.perf_counter() - start + pass_s > seconds:
            break
    measured_s = time.perf_counter() - start

    first = [o.key() for o in plain[0]]
    repeatable = all([o.key() for o in p] == first for p in plain + traced)
    flat = [o for p in plain for o in p]
    failed = sum(o.failed for o in flat) + sum(o.failed for p in traced for o in p)
    attempted = len(flat) + sum(len(p) for p in traced)
    exact_s = [o.seconds for o in flat if o.exact]
    if not exact_s:
        fail(f"no job of {workload} reconstructed its circuit")
    busy_s = sum(o.seconds for o in flat)

    summary = {
        "jobs_per_pass": len(jobs),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "measured_s": measured_s,
        "main_setup_s": main_setup_s,
        "setup_runs_s": setups,
        "reconstruct_tail": tail(exact_s),
        "exact_jobs_timed": len(exact_s),
        "shots_per_s": sum(o.device_shots for o in flat) / busy_s,
        "device_time_t": sum(o.layer_count for o in plain[0]),
        "success_by_shots": workloads.success_by_shots(plain[0]),
        "shots_to_success": workloads.shots_to_success(plain[0]),
        "repeatable": repeatable,
    }
    end_to_end = {
        "setup_s": statistics.median(setups),
        "reconstruct_s": statistics.median(exact_s),
        "success_rate": workloads.success_rate(plain[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and repeatable,
        "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "summary": summary,
        "outcomes": [[vars(o) for o in p] for p in plain + traced],
    }
    if trace:
        layer, entries, self_sum_ok = per_layer(tracer, traced, summary)
        traced_exact = [o.seconds for p in traced for o in p if o.exact]
        layer["trace.overhead_s"] = statistics.median(traced_exact) - end_to_end["reconstruct_s"]
        result["per_layer"] = layer
        summary["entry_points"] = entries
        summary["self_times_add_up"] = self_sum_ok
        result["correct"] = result["correct"] and self_sum_ok
        result["spans"] = tracer.dump()
    return result


LAYERS = ("device", "circuits", "tomography", "reconstruction", "core", "resolution")
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "device.execute_settings.calls": "count",
    "device.settings": "count",
    "device.shots": "count",
    "device.shots_per_setting": "count",
    "device.time_t": "t",
    "circuits.compose_unitary.calls": "count",
    "tomography.estimate_window.calls": "count",
    "reconstruction.match_two_qubit.calls": "count",
    "reconstruction.layers_learned": "count",
    "reconstruction.errors": "count",
    "reconstruction.shots_to_success": "count",
    "core.partial_trace_array.calls": "count",
    "core.trace_distance_array.calls": "count",
    "trace.overhead_s": "s",
}


def per_layer(tracer, traced, summary) -> tuple[dict, dict, bool]:
    """Per-job means over the traced passes: layer metrics, and self seconds and
    calls of every traced entry point; checks self times against each root span."""
    roots, self_s, calls = spans.by_job(tracer.spans)
    jobs = [job for job in roots if job != "setup"]
    self_sum_ok = all(abs(sum(self_s[job].values()) - roots[job]) <= 1e-9 * (1 + roots[job])
                      for job in roots)
    names = sorted({name for job in jobs for name in self_s[job]})
    entries = {name: (sum(self_s[job][name] for job in jobs) / len(jobs),
                      sum(calls[job][name] for job in jobs) / len(jobs)) for name in names}
    out = {f"{layer}.self_s": sum(own for name, (own, _) in entries.items()
                                  if name.startswith(layer + "."))
           for layer in LAYERS}
    out["resolution.self_s"] = sum(self_s["setup"].values())
    for name in PER_LAYER_UNITS:
        if name.endswith(".calls"):
            out[name] = entries.get(name[:-len(".calls")], (0.0, 0.0))[1]
    settings, shots = (sum(tracer.counts[(job, key)] for job in jobs) / len(jobs)
                       for key in ("device.settings", "device.shots"))
    outcomes = [o for p in traced for o in p]
    out.update({
        "device.settings": settings,
        "device.shots": shots,
        "device.shots_per_setting": shots / settings if settings else 0.0,
        "device.time_t": sum(o.layer_count for o in outcomes) / len(outcomes),
        "reconstruction.layers_learned": sum(o.layers_learned for o in outcomes) / len(outcomes),
        "reconstruction.errors": sum(o.error is not None and not o.failed
                                     for o in outcomes) / len(outcomes),
        "reconstruction.shots_to_success": summary["shots_to_success"],
    })
    return {name: out[name] for name in PER_LAYER_UNITS if name in out}, entries, self_sum_ok


def report(result: dict) -> dict:
    """Print the run's metrics by name and unit; return the JSON result line."""
    prov = result["provenance"]
    summary = result["summary"]
    print(f"# workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}"
          f"  trace {result['trace']}")
    print(f"# git {prov['git_sha']}  source {prov['source_sha256'][:12]}  numpy {prov['numpy']}"
          f"  python {prov['python']}  nproc {prov['nproc']}")
    print(f"# jobs failed/attempted {result['failed']}/{result['attempted']}"
          f"  repeatable {summary['repeatable']}  passes {summary['passes']}")
    for name, value in result["end_to_end"].items():
        print(f"{name:40s} {value:14.6g} {END_TO_END_UNITS[name]}")
    if summary["reconstruct_tail"]:
        q, value = summary["reconstruct_tail"]
        print(f"{'reconstruct_s p' + str(q):40s} {value:14.6g} s")
    else:
        print(f"# reconstruct_s: no tail percentile over {summary['exact_jobs_timed']} jobs"
              " (needs 20)")
    print(f"{'shots_per_s':40s} {summary['shots_per_s']:14.6g} 1/s")
    print(f"{'device_time_t':40s} {summary['device_time_t']:14d} t per pass")
    print(f"{'shots_to_success':40s} {summary['shots_to_success']:14d} shots")
    curve = ", ".join(f"{shots}: {exact}/{jobs}"
                      for shots, (exact, jobs) in summary["success_by_shots"].items())
    print(f"# exact reconstructions by shot level: {curve}")
    units = END_TO_END_UNITS
    metrics = result["end_to_end"]
    if result["trace"]:
        print(f"# every job's self times add up to its root span: {summary['self_times_add_up']}")
        for name, (own, count) in summary["entry_points"].items():
            print(f"# {name:38s} {own:14.6g} s self {count:10.6g} calls per job")
        units, metrics = PER_LAYER_UNITS, result["per_layer"]
        for name, value in metrics.items():
            print(f"{name:40s} {value:14.6g} {units[name]}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another; then one table."""
    status = 0
    rows = []
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = 1
        if proc.returncode not in (0, 1):  # the run could not start: there is no result
            continue
        line = json.loads(lines[-1])
        for name, metric in line["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "failed/attempted", f"{line['failed']}/{line['attempted']}", ""))
    print()
    for workload, name, value, unit in rows:
        shown = f"{value:14.6g}" if isinstance(value, float) else f"{value!s:>14}"
        print(f"{workload:16s} {name:40s} {shown} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    import_library()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import workloads

        workloads.setup(args.workload, args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["provenance"] = provenance()
    line = report(result)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_doc = result.pop("spans", None)
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    if spans_doc is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans_doc))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
