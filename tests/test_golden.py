"""Golden digests of seeded device output and of the window estimates.

The record digests pin the exact records, outcomes and device time that a
seed produces, so any change to the shot path that alters the order of random
draws, the sampling rule or the setting order shows up here. The dedicated
(hardware) digests were computed from the per-setting device loop that the
batched path replaced. The strict digests were computed from the one-integer
setting draw, which draws each shot's setting as one integer below 18^n (one
``integers`` call per layer) instead of 3n digits; the cases of 20k shots and
more cross a device chunk, and their ledgers did not move.
The estimate digests pin every window matrix, compatible-shot count and
low-count list estimated from those records; they were computed from the
per-string coefficient loop that the single contraction replaced, and the
strict ones from the one-integer setting draw. The CLI
digests pin the files that ``qverify reconstruct`` and the two sweeps write;
they were computed before the sweeps and report formats left ``cli.py``. The
report digests pin ``report.json`` and ``report.csv`` of reconstructions at
n >= 3, where the gate decoder and the per-window diagnostics run on more
than one window; the strict ones were computed from the one-integer setting
draw. The digests of noisy runs were computed from the sparse-hit
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


# (n, k, shots, seed) -> (digest, ledger layer_count), from the one-integer
# setting draw; every ledger stayed the same
STRICT_CASES = {
    (2, 1, 3000, 11): (
        "920f9aa77508e788bcfff5b471a34b84719b2383ef0bf480ca94e1532e3241ce",
        3000,
    ),
    (3, 2, 4000, 12): (
        "66a1e3e6165f61b2349709c55c4ee092c4ac184b3ef819e7d5ba05a78cd8a04f",
        12000,
    ),
    (4, 3, 2500, 13): (
        "1a8afb4c91da7371494f94b1a7fefe33cde33ead79d681a4fbeac2d4d63c5aa5",
        12500,
    ),
    (6, 2, 1500, 14): (
        "c0c24fe2272cb72d738105942e92ac853dad3476f91fd2cb329fff1e717fd3e1",
        4500,
    ),
    (2, 1, 40000, 15): (
        "05e752acd7c0ce5e862a5aa7088baa212038524cc550bde89505001ba62f2052",
        40000,
    ),
    (3, 2, 20000, 16): (
        "f9d3cb8eb491b953579faeec13818a8c72df0741826468f77d0087d58e90e917",
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
    # from the one-integer setting draw on the sparse-hit noise stream, which
    # draws a call's hit sites once; the ledger stayed the same
    (2, 2, 40000, 17, 0.01): (
        "e00f25d865969a91860ff6ac4c56332a09409cc1b4ee5299c9d2312a47f568c0",
        120000,
    ),
    # from the one-integer setting draw on the sparse-hit noise stream
    (3, 3, 20000, 18, 0.01): (
        "1a6c1893386dba6a9c8c785f42c5be08bd99a6a3fcb89d16b7d43c8134e7833e",
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


# (n, k, shots, seed) of STRICT_CASES -> digest of every pair window's estimate,
# from the one-integer setting draw's records
STRICT_ESTIMATES = {
    (2, 1, 3000, 11): "7a2035549290b55fd4ebc1b362e858d04ecb6e2b07d0de0a114d44bb7e993354",
    (3, 2, 4000, 12): "dfd2850bbba8c57be4e3515ebc8bcf704bf58fce6acd7b7948332cecabfa80d0",
    (4, 3, 2500, 13): "a028a2d6efed8239c555bcde0e3abc383941b1a1e9639bafa76daa359795ef4d",
    (6, 2, 1500, 14): "bd6e4e1c8a35b84010cda2a338f9f0a68e75f6364509b4bc4aa7e96950d2c8fa",
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
# The strict-exact digests were computed from diagnostics whose window and
# register ideals are built from the learned gates' own Choi states (at most
# 16 x 16) instead of marginals of the layer's 2n-qubit Choi state: every
# reported float moved by at most 9e-16, and keys, gates, warnings and
# circuits stayed the same. The strict digests were computed from the same
# diagnostics on the one-integer setting draw.
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
    # from the one-integer setting draw; the circuit and ledger stayed the same
    (3, "strict", 20000, 0.0, 34): (
        "829287765431d712ba5691c8d58d23815ea80c78418cf61ef09cb0375b3bc0c5",
        "092fe1dafb047b563d0e48a10bc865b7336906ba505cf053c5fd6efc510d2b57",
    ),
    # from the one-integer setting draw on the sparse-hit noise stream, which
    # draws a call's hit sites once; the circuit and ledger stayed the same
    (3, "strict", 20000, 0.01, 34): (
        "20d9134ef9ac97ecf19a7cf87e16ff0000e4baf9cc84feaa6972bfda99b44826",
        "184e34c28752ea719e3ebdde13603acf635f411c3165241c44cdc0ea142d4c3c",
    ),
    # from the one-integer setting draw: the circuit and ledger stayed the same,
    # and the layers' low-count strings went from 36, 32, 32 to 33, 34, 37
    (2, "strict", 2500, 0.0, 1): (
        "f0d8ff67bb4d16f702f39833c1511fed2997287af996e0abda9dfbefea1b6a2f",
        "f486c7feaa4a51f116d5a1eef9578999e04783f4d084d6a5359d170c20e077c2",
    ),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_digest(case):
    report, c = _learn_random(*case)
    files = (report.to_json(), report.to_csv(c.groups))
    assert tuple(hashlib.sha256(f.encode()).hexdigest() for f in files) == REPORT_CASES[case]


def test_no_match_message_at_n3():
    # the certified decoder reconstructs this 20k-shot job, which the earlier
    # trace-distance rule declined; at 300 shots the boxes still decline it.
    # The nearest candidates, ordered by distance, are from the one-integer
    # setting draw; the layer, qubit and admission counts stayed the same.
    report, c = _learn_random(3, "strict", 20000, 0.0, 0)
    assert same_circuit(report.circuit, c)
    with pytest.raises(NoMatch) as err:
        _learn_random(3, "strict", 300, 0.0, 0)
    assert (err.value.layer, err.value.qubits) == (1, (0,))
    assert str(err.value) == (
        "layer 1: no certified window settles qubit 0: window 0,1 admitted 10 elements, "
        "window 0,2 admitted 3 elements; nearest candidates: Z: 0.5807, I: 0.7068, "
        "H: 0.8584, CNOT on window 0,1: 2.7415, CNOT on window 0,2: 2.9855"
    )
