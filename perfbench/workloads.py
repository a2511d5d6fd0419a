"""Workloads of the qverify benchmark: their jobs, and how a job is run and judged.

A workload is a fixed list of jobs made from the workload seed alone; one
pass runs every job of the list once. Every job reconstructs one hidden
circuit with ``learn_multi`` on a fresh ``Device`` and is judged against that
circuit with ``same_circuit``.

A job that raises ``ReconstructionError`` is a measured outcome: the verifier
declined to certify a circuit, which ``success_by_shots`` counts. A job that
returns a circuit other than the hidden one, or raises anything else, is a
failure, and so is a complete strict job whose ledger differs from
``device_time_for_learning``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import qverify
from qverify import benchmarks, reconstruction
from qverify.device import DeviceProfile, NoiseConfig
from qverify.errors import ReconstructionError

EPS = 0.2
LADDER = (5_000, 10_000, 20_000, 40_000, 80_000, 160_000)
LADDER_SHARE = 0.9


@dataclass(frozen=True)
class Job:
    label: str
    circuit: qverify.LayeredCircuit
    gate_set: qverify.GateSet
    mode: str
    shots: int
    noise_p: float
    seed: int

    def device(self) -> qverify.Device:
        """Fresh device hiding the job's circuit, with an empty ledger."""
        c = self.circuit
        profile = DeviceProfile(c.n, c.depth, Fraction(1), c)
        return qverify.Device(profile, NoiseConfig(depolarizing_p=self.noise_p))


@dataclass
class Outcome:
    label: str
    shots: int
    seconds: float
    exact: bool
    failed: bool
    layers_learned: int
    layer_count: int
    device_shots: int
    error: str | None

    def key(self) -> tuple:
        """The parts of an outcome that a fixed seed must repeat exactly."""
        return (self.label, self.exact, self.failed, self.layers_learned,
                self.layer_count, self.device_shots, self.error)


def _draw_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(2**63))


def hardware_suite(gen):
    jobs = []
    for name, circuit, gs in benchmarks.benchmark_suite():
        for p in (0.0, 0.002):
            jobs.append(Job(f"{name}/p={p}", circuit, gs, "hardware", 8192, p, _draw_seed(gen)))
    return jobs


def strict_n3(gen):
    gs = qverify.standard_gate_set()
    return [
        Job(f"n3/{i}", qverify.random_circuit(3, 3, gs, gen), gs, "strict", 80_000, 0.0,
            _draw_seed(gen))
        for i in range(3)
    ]


def exact_n6(gen):
    gs = qverify.standard_gate_set()
    return [
        Job(f"n6/{i}", qverify.random_circuit(6, 3, gs, gen), gs, "strict-exact", 0, 0.0,
            _draw_seed(gen))
        for i in range(10)
    ]


def shots_ladder(gen):
    gs = qverify.standard_gate_set()
    jobs = []
    for i in range(10):
        circuit = qverify.random_circuit(2, 3, gs, gen)
        for shots in LADDER:
            jobs.append(Job(f"n2/{i}/{shots}", circuit, gs, "strict", shots, 0.0, _draw_seed(gen)))
    return jobs


# Why each workload is in the benchmark is written in BENCHMARK.json.
WORKLOADS = {
    "hardware-suite": hardware_suite,
    "strict-n3": strict_n3,
    "exact-n6": exact_n6,
    "shots-ladder": shots_ladder,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; circuits and job seeds derive from ``seed`` only."""
    index = list(WORKLOADS).index(workload)
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    return WORKLOADS[workload](gen)


def setup(workload: str, seed: int):
    """Everything a run does before its first timed job."""
    jobs = make_jobs(workload, seed)
    for gs in {job.gate_set for job in jobs}:
        qverify.resolution.cached_resolution(gs)
    return jobs, [job.device() for job in jobs]


def run_job(job: Job, device: qverify.Device) -> Outcome:
    """Reconstruct on ``device`` in a timed call and judge against ``job.circuit``."""

    def outcome(exact, failed, learned, error):
        return Outcome(job.label, job.shots, seconds, exact, failed, learned,
                       device.ledger.layer_count, _shots(device), error)

    start = time.perf_counter()
    try:
        report = reconstruction.learn_multi(
            device, shots=job.shots, gs=job.gate_set, eps=EPS, rng=job.seed, mode=job.mode
        )
    except ReconstructionError as exc:
        seconds = time.perf_counter() - start
        return outcome(False, False, (exc.layer or 1) - 1, type(exc).__name__)
    except Exception:  # any other exception is a failed job, recorded with its traceback
        seconds = time.perf_counter() - start
        return outcome(False, True, 0, traceback.format_exc())
    seconds = time.perf_counter() - start
    if not qverify.same_circuit(report.circuit, job.circuit):
        return outcome(False, True, len(report.per_layer), "wrong circuit")
    if job.mode == "strict" and device.ledger.total_time != qverify.device_time_for_learning(
        device.d, device.t, job.shots
    ):
        return outcome(False, True, len(report.per_layer), "ledger differs from N*d^2*t")
    return outcome(True, False, len(report.per_layer), None)


def _shots(device: qverify.Device) -> int:
    return sum(device.ledger.per_shot_layers.values())


def success_by_shots(outcomes: list[Outcome]) -> dict[int, tuple[int, int]]:
    """Exact reconstructions and jobs at each shot level, in ascending order."""
    out = {}
    for shots in sorted({o.shots for o in outcomes}):
        level = [o for o in outcomes if o.shots == shots]
        out[shots] = (sum(o.exact for o in level), len(level))
    return out


def success_rate(outcomes: list[Outcome]) -> float:
    """Share of jobs at the workload's largest shot level that reconstruct exactly."""
    exact, jobs = list(success_by_shots(outcomes).values())[-1]
    return exact / jobs


def shots_to_success(outcomes: list[Outcome]) -> int:
    """Smallest shot level at which ``LADDER_SHARE`` of circuits reconstruct; -1 if none."""
    for shots, (exact, jobs) in success_by_shots(outcomes).items():
        if exact >= LADDER_SHARE * jobs:
            return shots
    return -1
