"""Golden digests of seeded device output and of the window estimates.

The record digests pin the exact records, outcomes and device time that a
seed produces, so any change to the shot path that alters the order of random
draws, the sampling rule or the setting order shows up here. They were
computed from the per-setting device loop that the batched path replaced; the
cases of 20k shots and more were computed from the code that drew every
setting code and every uniform of a layer in one array, before draws and
device chunks were bounded by shots, and cross both bounds.
The estimate digests pin every window matrix, compatible-shot count and
low-count list estimated from those records; they were computed from the
per-string coefficient loop that the single contraction replaced. The CLI
digests pin the files that ``qverify reconstruct`` and the two sweeps write;
they were computed before the sweeps and report formats left ``cli.py``. The
report digests pin ``report.json`` and ``report.csv`` of strict reconstructions
at n >= 3, where the gate decoder and the per-window diagnostics run on more
than one window. No digest may be regenerated to make a change pass.
"""

import hashlib
import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from qverify.benchmarks import demo_circuit
from qverify.circuits import Layer, LayeredCircuit, random_circuit, same_circuit
from qverify.cli import main
from qverify.device import Device, DeviceProfile, NoiseConfig
from qverify.errors import NoMatch
from qverify.gates import builtin_gate, standard_gate_set
from qverify.reconstruction import _dedicated_record_set, _shot_record_set, learn_multi
from qverify.tomography import estimate_window, pair_windows


def _digest(rs) -> str:
    return hashlib.sha256(rs.bases.tobytes() + rs.outcomes.tobytes()).hexdigest()


def _estimate_digest(estimates) -> str:
    h = hashlib.sha256()
    for est in estimates:
        h.update(est.matrix.entries.tobytes())
        compat = [list(est.compat_counts.items()), list(est.low_count_strings)]
        h.update(json.dumps(compat).encode())
    return h.hexdigest()


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
    (2, 1, 40000, 15): (
        "ee9b2c2be63c0b470124d2cadd141f94f9589560d6b554b8c6fc9ef942d0d958",
        40000,
    ),
    (3, 2, 20000, 16): (
        "ebb4829a64e7ce67aaec5bd783a18652b7012dfc190c00bc76f19ad6959a51c4",
        60000,
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


# (n, k, shots, seed, depolarizing p) -> (digest, ledger layer_count)
NOISY_STRICT_CASES = {
    (2, 2, 40000, 17, 0.01): (
        "0c18ad2c6affb14b68de73cee341dbbe28e8b130b5e3b7956fd8696c046bae31",
        120000,
    ),
    (3, 3, 20000, 18, 0.01): (
        "bdc1844b8907f79115e4175b2566b36536b31813e3d882d64a3ae626de6c1787",
        100000,
    ),
}


@pytest.mark.parametrize("case", sorted(NOISY_STRICT_CASES))
def test_noisy_shot_record_set_digest(case):
    n, k, shots, seed, p = case
    c = random_circuit(n, 3, standard_gate_set(), 100 + seed)
    dev = Device(DeviceProfile(n, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))
    prefix = LayeredCircuit(n, c.layers[: k - 1]).inverse()
    rs = _shot_record_set(dev, k, prefix, shots, np.random.default_rng(seed))
    assert (_digest(rs), dev.ledger.layer_count) == NOISY_STRICT_CASES[case]


# (n, k, shots, seed) of STRICT_CASES -> digest of every pair window's estimate
STRICT_ESTIMATES = {
    (2, 1, 3000, 11): "c57dc84eb84c75872085c34b5dff0083b9f80e9a3e9d7b87dd5efd05692877b1",
    (3, 2, 4000, 12): "6219041544ee9d0427f57ea33b7121eb7d4037e0988c768654c2f115a1035cc4",
    (4, 3, 2500, 13): "3b7466e93ad89e597dde9ec281bac04df25e7216d0ecc949f4dc544dfd1ba617",
    (6, 2, 1500, 14): "86285f2daeacff1a48741330257fc24d33e149bf205001d0077722e62c81eff9",
}


@pytest.mark.parametrize("case", sorted(STRICT_ESTIMATES))
def test_pair_window_estimate_digest(case):
    n, k, shots, seed = case
    dev, c = _strict_device(n, 100 + seed)
    prefix = LayeredCircuit(n, c.layers[: k - 1]).inverse()
    rs = _shot_record_set(dev, k, prefix, shots, np.random.default_rng(seed))
    estimates = [estimate_window(rs, subset) for subset in pair_windows(n)]
    assert _estimate_digest(estimates) == STRICT_ESTIMATES[case]


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


# (p, with undo) of DEDICATED_CASES -> digest of the (q, q + n) register windows
DEDICATED_ESTIMATES = {
    (0.0, False): "ff4941d5f6d2ab4893fbf2577e09e5752db0dca76933347cd8aed75a30b8f088",
    (0.0, True): "8009a2b3da4ee3561a9cdcb75a30b2f09cff37d0477c812aa0eacf217fc9e286",
    (0.002, False): "a163eac5b40f955fb9da66a34fa52d0f081b0f35e12c31dd77dcc10fafcbff34",
    (0.002, True): "c53513e49e199e0d5199614e202af89c650b041c9738ccc0c74e161c3d13160f",
}


@pytest.mark.parametrize("case", sorted(DEDICATED_ESTIMATES))
def test_register_window_estimate_digest(case):
    p, with_undo = case
    c = demo_circuit(2)
    dev = Device(DeviceProfile(2, c.depth, Fraction(1), c), NoiseConfig(depolarizing_p=p))
    prefix = LayeredCircuit(2, c.layers[:1]).inverse()
    undo = Layer(((0, 1),), (builtin_gate("CNOT"),)) if with_undo else None
    rs = _dedicated_record_set(dev, 2, prefix, 300, np.random.default_rng(21), undo=undo)
    estimates = [estimate_window(rs, (q, q + 2)) for q in range(2)]
    assert _estimate_digest(estimates) == DEDICATED_ESTIMATES[case]


def _data_file(name: str) -> str:
    return str(resources.files("qverify").joinpath(f"data/{name}"))


# command -> {written file: sha256 of its bytes}. The hardware-d3 reports were
# computed from the certified hardware mode, which decodes the nine dedicated
# settings' pair windows with the strict decoder and runs no undo round.
CLI_CASES = {
    "hardware-d3": (
        ["reconstruct", "--circuit", _data_file("demo_d3.json"), "--noise-p", "0.002",
         "--shots", "2048", "--seed", "4"],
        {
            "report.json": "12117ecf9dc64798a2e7f082ab67af0c122ea01c578be5a72611c777d9bb9755",
            "report.csv": "e8ae8a533216129f306ef380f625479d74ed0abea1942578ca340ca34960aa11",
            "reconstructed_circuit.json":
                "0698597f8d3249507142e43ef8c3b0b5b96aac426b3b2867a89c192c013c4090",
        },
    ),
    "exact-d2": (
        ["reconstruct", "--circuit", _data_file("demo_d2.json"), "--mode", "strict-exact",
         "--seed", "3"],
        {
            "report.json": "20a0c136880643c3f6a2765cb0c0b4356adf0e8c9ad788a6129d61e79a7c6b31",
            "report.csv": "f46fa3f6e39caa99221e55f88518b1aab5cc215ed3f7bd201805d9eef17b21ce",
            "reconstructed_circuit.json":
                "8453cb507bf378c6df3502b427e0012b90f5c52b41668da3fd17a4b301630785",
        },
    ),
    "sweep-samples": (
        ["sweep-samples", "--n", "4", "--shots-list", "100,1000,10000", "--seeds", "3",
         "--seed", "5"],
        {"samples.csv": "6e770bd72261600587abf93017d5141d40c297b13e09730d651f004c114e1f53"},
    ),
    "sweep-noise": (
        ["sweep-noise", "--depths", "6", "--seeds", "3", "--seed", "5"],
        {"noise.csv": "3aeea1a7643f93dbf9832c159737149d8e2af4999bee7e65a50bab03b5540c95"},
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_digest(tmp_path, case):
    argv, expected = CLI_CASES[case]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    written = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
    }
    assert written == expected


def _learn_random(n: int, mode: str, shots: int, p: float, seed: int):
    """Reconstruct random_circuit(n, 3, standard, seed) with eps=0.2 and the same seed."""
    gs = standard_gate_set()
    c = random_circuit(n, 3, gs, seed)
    dev = Device(DeviceProfile(n, 3, Fraction(1), c), NoiseConfig(depolarizing_p=p))
    return learn_multi(dev, shots, gs, 0.2, seed, mode=mode), c


# (n, mode, shots per layer, p, seed) -> sha256 of (report.json, report.csv).
# Seed 34 was one of the few n=3 circuits that reconstructed at 20k shots
# under the earlier trace-distance rule, with and without noise. The n=2 case
# at 2500 shots reconstructs with low-count strings, so it pins those warnings.
REPORT_CASES = {
    (4, "strict-exact", 0, 0.0, 0): (
        "bc718321921c0713cbe166154b4a2316d959e15e9ec84348d107498917b6509b",
        "9bd767372b1dd9588d821a614b565ea17e6d5c379c2e0c8e34db26f383c4c44e",
    ),
    (4, "strict-exact", 0, 0.0, 1): (
        "967aaf62434e4cc2423bef638499d351c092e611be9f4612180d293b714344e0",
        "82d18b58cf193308b87db10347932d8123e120eb923b2dcafdb634595e2dbe4a",
    ),
    (5, "strict-exact", 0, 0.0, 0): (
        "f496d515c83cb4abca2d7f6eb37a0f7b615690727fc6153481466bda8e7f7cde",
        "618de9ac7998c6648a626bedc3a30c349daa377d4124b1f4ca85f45d09d50fe5",
    ),
    (5, "strict-exact", 0, 0.0, 2): (
        "cd5b7adfb6ef469cc59424cf26c52e1473fa641cc5bc5c6350d17ef57c9319e2",
        "4f61cea2e68bbe8dec9973961aae22d2b39583147fcb9c15506a0fcbdffabc1c",
    ),
    (3, "strict", 20000, 0.0, 34): (
        "e829c837f38ae84ae749bcc0939da4fcc7864dcf625da8d0c3ac74a95c0dcffd",
        "0b756f8fc83438c23e4ebb71f1e816d0f7763de39d2bcce71aa7e25567edf3eb",
    ),
    (3, "strict", 20000, 0.01, 34): (
        "d218c9ff95a6f118131430148b228dbf94bc5f97f08dbc502cf7704f6bf082b9",
        "4a298c7a69de8945db068f95aaff6a6d1d255dad8e124e2260c0238d8026c7ce",
    ),
    (2, "strict", 2500, 0.0, 1): (
        "a6497d17fc621d6ce8f5bc4a12d6982dcfe8b8a203eda2fc74ac9767e6f737d3",
        "1cac3640b56eb262fa148ba353234eac3cef0184dd41fa15edef81ebfc6da7d7",
    ),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_digest(case):
    report, c = _learn_random(*case)
    files = (report.to_json(), report.to_csv(c.groups))
    assert tuple(hashlib.sha256(f.encode()).hexdigest() for f in files) == REPORT_CASES[case]


def test_no_match_message_at_n3():
    # the certified decoder reconstructs this 20k-shot job, which the earlier
    # trace-distance rule declined; at 300 shots the boxes still decline it
    report, c = _learn_random(3, "strict", 20000, 0.0, 0)
    assert same_circuit(report.circuit, c)
    with pytest.raises(NoMatch) as err:
        _learn_random(3, "strict", 300, 0.0, 0)
    assert (err.value.layer, err.value.qubits) == (1, (0,))
    assert str(err.value) == (
        "layer 1: no certified window settles qubit 0: window 0,1 admitted 10 elements, "
        "window 0,2 admitted 3 elements; nearest candidates: I: 0.5845, Z: 0.6963, "
        "H: 1.0154, CNOT on window 0,1: 2.6539, CNOT_rev on window 0,2: 3.2367"
    )
