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
than one window. The digests of noisy runs were computed from the sparse-hit
noise stream, which draws each call's hit sites once, from geometric gaps,
instead of two draws per (setting, gate, qubit); noiseless runs draw no noise
and kept their digests. No digest may be regenerated to make a change pass.
"""

import hashlib
import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from qverify.benchmarks import demo_circuit
from qverify.circuits import LayeredCircuit, random_circuit, same_circuit
from qverify.cli import main
from qverify.device import Device, DeviceProfile, NoiseConfig
from qverify.errors import NoMatch
from qverify.gates import standard_gate_set
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
    # from the sparse-hit noise stream, which draws a call's hit sites once
    (2, 2, 40000, 17, 0.01): (
        "d6721ec5ce93b1d1757d2b1a941ed56e2501a273ddd68526e29cf510d18fc21a",
        120000,
    ),
    # from the sparse-hit noise stream
    (3, 3, 20000, 18, 0.01): (
        "b4758efb3c57997ed40c761feb2df8a5ccc9833e0f5cf7cdb0f0d607d4eba279",
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


# p -> (digest, ledger layer_count), from the one-call round, which draws
# every round's ancilla bits at once and runs the nine settings in one device
# call, on the sparse-hit noise stream
DEDICATED_CASES = {
    0.0: (
        "33685b47606d1cb2f919e07e9eb66caeef2a80dfc4f513d92c5f3fd2a040199a",
        8100,
    ),
    0.002: (
        "5a391d7845300a154d06bcaa05f664c6e062008074df8f341502e2c600124da6",
        8100,
    ),
}


@pytest.mark.parametrize("case", sorted(DEDICATED_CASES))
def test_dedicated_record_set_digest(case):
    c = demo_circuit(2)
    dev = Device(DeviceProfile(2, c.depth, Fraction(1), c), NoiseConfig(depolarizing_p=case))
    prefix = LayeredCircuit(2, c.layers[:1]).inverse()
    rs = _dedicated_record_set(dev, 2, prefix, 300, np.random.default_rng(21))
    assert (_digest(rs), dev.ledger.layer_count) == DEDICATED_CASES[case]


# p of DEDICATED_CASES -> digest of the (q, q + n) register windows, from the
# same records
DEDICATED_ESTIMATES = {
    0.0: "c2087b2a6c0abf62915fb01ba7d641f6e777f199b5b4cd71d51a9b24bee520cf",
    0.002: "ba446b9fd5e9f55441f1940dd1624c03865ccf48daf2522f5518f71cb01f48e3",
}


@pytest.mark.parametrize("case", sorted(DEDICATED_ESTIMATES))
def test_register_window_estimate_digest(case):
    c = demo_circuit(2)
    dev = Device(DeviceProfile(2, c.depth, Fraction(1), c), NoiseConfig(depolarizing_p=case))
    prefix = LayeredCircuit(2, c.layers[:1]).inverse()
    rs = _dedicated_record_set(dev, 2, prefix, 300, np.random.default_rng(21))
    estimates = [estimate_window(rs, (q, q + 2)) for q in range(2)]
    assert _estimate_digest(estimates) == DEDICATED_ESTIMATES[case]


def _data_file(name: str) -> str:
    return str(resources.files("qverify").joinpath(f"data/{name}"))


# command -> {written file: sha256 of its bytes}. The hardware-d3 reports were
# computed from the certified hardware mode, which decodes the nine dedicated
# settings' pair windows with the strict decoder, with each layer's nine
# settings run as one device call on the sparse-hit noise stream; the
# reconstructed circuit predates that stream. Both report.json digests were
# computed from diagnostics whose ideals are the learned gates' own Choi
# states (see REPORT_CASES); their report.csv digests did not move.
CLI_CASES = {
    "hardware-d3": (
        ["reconstruct", "--circuit", _data_file("demo_d3.json"), "--noise-p", "0.002",
         "--shots", "2048", "--seed", "4"],
        {
            "report.json": "082cc634cc08168f4e2356036f5574e434c7f7ab84fd311e3a254ffe44c16a55",
            "report.csv": "ab220c9c3fc148e13432bf6cbd4bc15eb8f7f8561a3539b540758a48a415b319",
            "reconstructed_circuit.json":
                "0698597f8d3249507142e43ef8c3b0b5b96aac426b3b2867a89c192c013c4090",
        },
    ),
    "exact-d2": (
        ["reconstruct", "--circuit", _data_file("demo_d2.json"), "--mode", "strict-exact",
         "--seed", "3"],
        {
            "report.json": "b9fca76c4987795a7b0314a03efa93bf99c6fe8e9b5d80715c923849927d7234",
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
# The report.json digests, and the report.csv digests of the strict-exact
# cases, were computed from diagnostics whose window and register ideals are
# built from the learned gates' own Choi states (at most 16 x 16) instead of
# marginals of the layer's 2n-qubit Choi state: every reported float moved by
# at most 9e-16, and keys, gates, warnings and circuits stayed the same.
REPORT_CASES = {
    (4, "strict-exact", 0, 0.0, 0): (
        "2f3bd29fcd2d555dfbee568d4004e836e7b548e63d26eed272cd8e3a8ae82711",
        "046e04647add9090b6ee09e1ba31ce172c0739135db6cf35de95229f930eb9fe",
    ),
    (4, "strict-exact", 0, 0.0, 1): (
        "8103d498f98f0711d01215ded7715844e965bce1058256e4bf487f9a7e9fc5d7",
        "015ff360bc0eb125d60d33a93a3f13b98b362777b1d36e0f75cf7338544d7978",
    ),
    (5, "strict-exact", 0, 0.0, 0): (
        "69311b3cc3888c864dc5df7677c5a2d01299d4200990532dd25b67e7213a8803",
        "176737019336a45c7e69f25f520217314320f177aef6a34bb8841c22ae01a90e",
    ),
    (5, "strict-exact", 0, 0.0, 2): (
        "e2d754ada3754528df13ee71a5653829cc930e332dfc864e97241cd419902026",
        "e24d12afa6c551d59374174e66eecaa3de1f0eeb640dea1ab2101c44e30ba9ef",
    ),
    (3, "strict", 20000, 0.0, 34): (
        "e9f4ac5495caf5db5703470bae5546361dd38d73c2b2310d6625bb81e2e35ed6",
        "0b756f8fc83438c23e4ebb71f1e816d0f7763de39d2bcce71aa7e25567edf3eb",
    ),
    # from the sparse-hit noise stream, which draws a call's hit sites once
    (3, "strict", 20000, 0.01, 34): (
        "5a4989fed6e607406beec0f0a6c0f228aadded162ea34e39fbcb4a54244b3c8a",
        "93a6b80247902880593fa9e8b18f52d9cf5c0f5d0a4bddaee186ffb4509f2eb5",
    ),
    (2, "strict", 2500, 0.0, 1): (
        "632560d0e2783e59d6d5ed915c61861561b2f9032c3e0d12942439f91b64d6e2",
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
