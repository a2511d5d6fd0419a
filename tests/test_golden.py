"""Golden digests of seeded device output.

The digests pin the exact records, outcomes and device time that a seed
produces, so any change to the shot path that alters the order of random
draws, the sampling rule or the setting order shows up here. They were
computed from the per-setting device loop that the batched path replaced,
and must not be regenerated to make a change pass.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from qverify.benchmarks import demo_circuit
from qverify.circuits import Layer, LayeredCircuit, random_circuit
from qverify.device import Device, DeviceProfile, NoiseConfig
from qverify.gates import builtin_gate, standard_gate_set
from qverify.reconstruction import _dedicated_record_set, _shot_record_set


def _digest(rs) -> str:
    return hashlib.sha256(rs.bases.tobytes() + rs.outcomes.tobytes()).hexdigest()


def _strict_device(n: int, circuit_seed: int) -> tuple[Device, LayeredCircuit]:
    c = random_circuit(n, 3, standard_gate_set(), circuit_seed)
    return Device(DeviceProfile(n, 3, Fraction(1), c)), c


# (n, k, shots, seed) -> (digest, ledger layer_count)
STRICT_CASES = {
    (2, 1, 3000, 11): (
        "bf88261de6ae5f41c3579df743dddbfb3ba52c2ae8242768790a72b140e83e34",
        3000,
    ),
    (3, 2, 4000, 12): (
        "9d6cd06dc5aa62a8cafed2b161574d0c4e1026349cd5f1c64bbd1ec7a18dacea",
        12000,
    ),
    (4, 3, 2500, 13): (
        "44b09aa1c5e8320da91800925afe4547eef8692bc9aca7ef93c9909761e4abae",
        12500,
    ),
    (6, 2, 1500, 14): (
        "8476efa37db75a9ac8c535e11068ccf5160e3c177268ae8e403d9d1b14a396ac",
        4500,
    ),
}


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_shot_record_set_digest(case):
    n, k, shots, seed = case
    dev, c = _strict_device(n, 100 + seed)
    # the prefix a successful reconstruction would apply: the learned inverse
    # of the layers before k
    prefix = LayeredCircuit(n, c.layers[: k - 1]).inverse()
    rs = _shot_record_set(dev, k, prefix, shots, np.random.default_rng(seed))
    assert (_digest(rs), dev.ledger.layer_count) == STRICT_CASES[case]


# (p, with undo) -> (digest, ledger layer_count)
DEDICATED_CASES = {
    (0.0, False): (
        "62837652418dbc9abf4c7df7ea9223a926edba6a294068dd3e783eef49e50f3a",
        8100,
    ),
    (0.0, True): (
        "829c4ef7cfba600c8d13666cac8b3376a7aef83fc93bbe87f7940c54e06e835d",
        10800,
    ),
    (0.002, False): (
        "3ce54714d4e7466538a082be6caebd3aebee7e10e65ffacefe030481221d70f8",
        8100,
    ),
    (0.002, True): (
        "144f5f451e0c756e2f8d9c8dd28e7bdabeb8584b05b493a896bbed8399e58516",
        10800,
    ),
}


@pytest.mark.parametrize("case", sorted(DEDICATED_CASES))
def test_dedicated_record_set_digest(case):
    p, with_undo = case
    c = demo_circuit(2)
    dev = Device(DeviceProfile(2, c.depth, Fraction(1), c), NoiseConfig(depolarizing_p=p))
    prefix = LayeredCircuit(2, c.layers[:1]).inverse()
    undo = Layer(((0, 1),), (builtin_gate("CNOT"),)) if with_undo else None
    rs = _dedicated_record_set(dev, 2, prefix, 300, np.random.default_rng(21), undo=undo)
    assert (_digest(rs), dev.ledger.layer_count) == DEDICATED_CASES[case]
