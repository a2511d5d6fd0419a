#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 perfbench/selftest.py``. It checks
that every metric named in BENCHMARK.json is emitted with its unit, that self
times of nested spans add up to the root span, that a wrong circuit counts as
a failure, and that the harness refuses to run without the library sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
import unittest
from unittest import mock

import run

run.import_library()

import qverify  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _strict(gen, n, d, shots, mode="strict"):
    gs = qverify.standard_gate_set()
    circuit = qverify.random_circuit(n, d, gs, gen)
    return workloads.Job(f"tiny/n{n}/{shots}", circuit, gs, mode, shots, 0.0, 7)


TINY = {
    "hardware-suite": lambda gen: [
        dataclasses.replace(job, shots=4096) for job in workloads.hardware_suite(gen)[:2]
    ],
    "strict-n3": lambda gen: [_strict(gen, 2, 1, 40_000)],
    "exact-n6": lambda gen: [_strict(gen, 3, 2, 0, "strict-exact")],
    "shots-ladder": lambda gen: [_strict(gen, 2, 1, 2_000), _strict(gen, 2, 1, 40_000)],
}


def tiny_run(workload: str, trace: bool) -> dict:
    with mock.patch.dict(workloads.WORKLOADS, TINY), mock.patch.object(run, "SETUP_REPS", 1):
        result = run.measure(workload, seed=3, seconds=1, trace=trace)
    result["provenance"] = run.provenance()
    return result


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for workload in (w["name"] for w in BENCHMARK["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    with contextlib.redirect_stdout(io.StringIO()):
                        line = run.report(tiny_run(workload, trace))
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    got = {k: m["unit"] for k, m in line["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in line["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree_adds_up_to_root(self):
        tree = [  # name, start, end, parent, job
            ["root", 0.0, 10.0, None, "j"],
            ["a", 1.0, 4.0, 0, "j"],
            ["a.a", 1.5, 3.0, 1, "j"],
            ["a.b", 3.0, 3.5, 1, "j"],
            ["b", 5.0, 9.0, 0, "j"],
            ["b.a", 6.0, 8.5, 4, "j"],
        ]
        selfs = spans.self_times(tree)
        self.assertEqual(selfs, [3.0, 1.0, 1.5, 0.5, 1.5, 2.5])
        roots, self_s, calls = spans.by_job(tree)
        self.assertAlmostEqual(sum(self_s["j"].values()), roots["j"])
        self.assertEqual(calls["j"]["a.b"], 1)

    def test_wrapped_calls_add_up_to_root(self):
        tracer = spans.Tracer()

        def leaf():
            time.sleep(0.002)

        def middle():
            wrapped_leaf()
            time.sleep(0.001)
            wrapped_leaf()

        wrapped_leaf = tracer.wrap(leaf, "leaf")
        root = tracer.wrap(lambda: [tracer.wrap(middle, "middle")() for _ in range(2)], "root")
        tracer.job = "j"
        root()
        roots, self_s, calls = spans.by_job(tracer.spans)
        self.assertEqual(dict(calls["j"]), {"root": 1, "middle": 2, "leaf": 4})
        self.assertAlmostEqual(sum(self_s["j"].values()), roots["j"], places=12)
        self.assertGreater(self_s["j"]["leaf"], 0.007)

    def test_installed_wrappers_are_removed(self):
        original = qverify.device.Device.execute_settings
        with spans.Tracer().installed():
            self.assertIsNot(qverify.device.Device.execute_settings, original)
        self.assertIs(qverify.device.Device.execute_settings, original)


class Failures(unittest.TestCase):
    def test_wrong_circuit_is_a_failure(self):
        job = TINY["strict-n3"](workloads.np.random.default_rng(5))[0]
        other = qverify.random_circuit(2, 1, job.gate_set, workloads.np.random.default_rng(6))
        self.assertFalse(qverify.same_circuit(other, job.circuit))
        outcome = workloads.run_job(dataclasses.replace(job, circuit=other), job.device())
        self.assertTrue(outcome.failed)
        self.assertFalse(outcome.exact)

    def test_failed_check_makes_the_run_incorrect(self):
        real = qverify.same_circuit
        calls = iter(range(1000))
        # The first job judged reads as a wrong circuit; the second stays exact.
        two_jobs = {"strict-n3": lambda gen: [_strict(gen, 2, 1, 40_000) for _ in range(2)]}
        with mock.patch.dict(TINY, two_jobs), mock.patch.object(
            workloads.qverify, "same_circuit", side_effect=lambda a, b: next(calls) > 0 and real(a, b)
        ):
            result = tiny_run("strict-n3", trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "strict-n3", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
