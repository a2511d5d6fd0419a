import json

import numpy as np
import pytest

from qverify.benchmarks import demo_circuit, qft2_circuit
from qverify.circuits import emit_circuit, parse_circuit, random_circuit, same_circuit
import qverify.cli
import qverify.resolution
from qverify.cli import main
from qverify.gates import standard_gate_set


def run(args):
    return main(args)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo_d1.json"
    path.write_text(emit_circuit(demo_circuit(1)), encoding="utf-8")
    return path


class TestReconstructCommand:
    def test_hardware_run_writes_report(self, tmp_path, demo_file, capsys):
        out = tmp_path / "out"
        rc = run([
            "reconstruct", "--circuit", str(demo_file), "--shots", "2048",
            "--seed", "7", "--mode", "hardware", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_layer"]) == 2
        csv = (out / "report.csv").read_text()
        assert csv.splitlines()[0].startswith("layer,group,register")
        rec = parse_circuit((out / "reconstructed_circuit.json").read_text())
        assert same_circuit(rec, demo_circuit(1))

    def test_exact_strict_run(self, tmp_path, demo_file):
        out = tmp_path / "out"
        rc = run([
            "reconstruct", "--circuit", str(demo_file), "--mode", "strict-exact",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        rec = parse_circuit((out / "reconstructed_circuit.json").read_text())
        assert same_circuit(rec, demo_circuit(1))

    def test_depth_three_demo_reports_six_layers_in_three_groups(self, tmp_path):
        path = tmp_path / "demo_d3.json"
        path.write_text(emit_circuit(demo_circuit(3)), encoding="utf-8")
        out = tmp_path / "out"
        rc = run([
            "reconstruct", "--circuit", str(path), "--mode", "strict-exact",
            "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_layer"]) == 6
        assert all(rep["gates"] for rep in report["per_layer"])
        rows = (out / "report.csv").read_text().strip().splitlines()[1:]
        groups = {row.split(",")[1] for row in rows}
        assert len(groups) == 3
        rec = parse_circuit((out / "reconstructed_circuit.json").read_text())
        assert same_circuit(rec, demo_circuit(3))

    def test_qft_reports_five_groups(self, tmp_path):
        path = tmp_path / "qft2.json"
        path.write_text(emit_circuit(qft2_circuit()), encoding="utf-8")
        out = tmp_path / "out"
        rc = run([
            "reconstruct", "--circuit", str(path), "--gateset", "qft",
            "--mode", "strict-exact", "--seed", "7",
            "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "report.csv").read_text().strip().splitlines()[1:]
        assert len({row.split(",")[1] for row in rows}) == 5
        rec = parse_circuit((out / "reconstructed_circuit.json").read_text())
        assert same_circuit(rec, qft2_circuit())

    def test_device_config_embedded_in_circuit_file(self, tmp_path):
        doc = json.loads(emit_circuit(demo_circuit(1)))
        doc["t"] = 3
        doc["noise"] = {"depolarizing_p": 0.0, "rdm_gamma": 0}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        rc = run([
            "reconstruct", "--circuit", str(path), "--shots", "256",
            "--seed", "2", "--mode", "hardware", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["t"] == "3"

    def test_missing_circuit_file_is_config_error(self, tmp_path, capsys):
        rc = run([
            "reconstruct", "--circuit", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_gateset_file_is_config_error(self, tmp_path, demo_file, capsys):
        rc = run([
            "reconstruct", "--circuit", str(demo_file),
            "--gateset", str(tmp_path / "gs.json"), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, flags",
        [(1, ["--mode", "hardware"]), (1, ["--mode", "strict"]), (1, ["--mode", "strict-exact"]),
         (16, ["--mode", "strict"])],
        ids=["n1-hardware", "n1-strict", "n1-exact", "n16-strict"],
    )
    def test_hardware_mode_off_two_qubits_is_config_error(self, tmp_path, capsys, n, flags):
        path = tmp_path / "c.json"
        path.write_text(emit_circuit(random_circuit(n, 1, standard_gate_set(), 4)), encoding="utf-8")
        out = tmp_path / "out"
        rc = run(["reconstruct", "--circuit", str(path), "--out", str(out)] + flags)
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_one_qubit_refused_before_the_desk_scale_note(self, tmp_path, capsys):
        path = tmp_path / "n1.json"
        path.write_text(emit_circuit(random_circuit(1, 1, standard_gate_set(), 4)), encoding="utf-8")
        rc = run(["reconstruct", "--circuit", str(path), "--mode", "strict",
                  "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "strict mode needs at least 2 qubits" in captured.err

    @pytest.mark.parametrize(
        "mode", [["--mode", "strict"], ["--mode", "strict-exact"]], ids=["shots", "exact"]
    )
    def test_strict_run_prints_one_line(self, tmp_path, demo_file, capsys, mode):
        rc = run(["reconstruct", "--circuit", str(demo_file), "--shots", "5000", "--seed", "1",
                  "--out", str(tmp_path / "out")] + mode)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("reconstructed 2 layers; ledger ")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shots", "0"],
            ["--mode", "strict", "--shots", "-3"],
            ["--mode", "strict", "--delta", "2"],
            ["--mode", "hardware", "--delta", "2"],
            ["--t", "0"],
        ],
        ids=["hardware-shots-0", "strict-shots-neg", "strict-delta-2", "hardware-delta-2", "t-0"],
    )
    def test_bad_parameters_are_config_errors(self, tmp_path, demo_file, capsys, flags):
        out = tmp_path / "out"
        rc = run(["reconstruct", "--circuit", str(demo_file), "--out", str(out)] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("configuration error: ")
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, mode, ignored",
        [
            (["--mode", "strict-exact", "--delta", "0.05"], "strict-exact", "--delta"),
            (["--mode", "strict-exact", "--noise-p", "0.5"], "strict-exact", "--noise-p"),
        ],
        ids=["exact-delta", "exact-noise-p"],
    )
    def test_flags_the_mode_ignores_are_config_errors(
        self, tmp_path, demo_file, capsys, flags, mode, ignored
    ):
        out = tmp_path / "out"
        rc = run([
            "reconstruct", "--circuit", str(demo_file), "--shots", "256", "--out", str(out),
        ] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"configuration error: no effect with --mode {mode}: ")
        assert captured.err.rstrip().endswith(f": {ignored}")
        assert not out.exists()

    @pytest.mark.parametrize("p, rc", [(0.5, 2), (0.0, 0)], ids=["noisy", "noiseless"])
    def test_exact_refuses_a_noisy_circuit_file(self, tmp_path, capsys, p, rc):
        doc = json.loads(emit_circuit(demo_circuit(1)))
        doc["noise"] = {"depolarizing_p": p}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run([
            "reconstruct", "--circuit", str(path), "--mode", "strict-exact", "--seed", "3",
            "--out", str(out),
        ]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("configuration error: no effect with --mode strict-exact: ")
            assert err.rstrip().endswith("sets noise.depolarizing_p=0.5")
        assert out.exists() == (rc == 0)

    def test_strict_default_delta_is_0_05(self, tmp_path, demo_file):
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        base = ["reconstruct", "--circuit", str(demo_file), "--mode", "strict",
                "--shots", "5000", "--seed", "4"]
        assert run(base + ["--out", str(default)]) == 0
        assert run(base + ["--delta", "0.05", "--out", str(explicit)]) == 0
        report = "report.json"
        assert (default / report).read_bytes() == (explicit / report).read_bytes()

    def test_delta_reaches_the_decoder(self, tmp_path, demo_file, capsys):
        base = ["reconstruct", "--circuit", str(demo_file), "--mode", "strict",
                "--shots", "1000", "--seed", "3"]
        assert run(base + ["--out", str(tmp_path / "default")]) == 0
        # a smaller failure probability widens every box: at 1000 shots per
        # layer they no longer single out one configuration
        assert run(base + ["--delta", "1e-9", "--out", str(tmp_path / "wide")]) == 1
        assert "no certified window settles qubit" in capsys.readouterr().err

    def test_exact_mode_ignores_shots(self, tmp_path, demo_file):
        out = tmp_path / "out"
        rc = run([
            "reconstruct", "--circuit", str(demo_file), "--mode", "strict-exact",
            "--shots", "0", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert same_circuit(
            parse_circuit((out / "reconstructed_circuit.json").read_text()), demo_circuit(1)
        )

    def test_gamma_flag_is_gone(self, tmp_path, demo_file):
        with pytest.raises(SystemExit) as exit_:
            run([
                "reconstruct", "--circuit", str(demo_file), "--gamma", "1",
                "--out", str(tmp_path / "out"),
            ])
        assert exit_.value.code == 2

    @pytest.mark.parametrize(
        "mode", [["--mode", "strict"], ["--mode", "strict-exact"], ["--mode", "hardware"]],
        ids=["strict", "exact", "hardware"],
    )
    def test_eps_flag_is_gone(self, tmp_path, demo_file, capsys, mode):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            run(["reconstruct", "--circuit", str(demo_file), "--eps", "0.2", "--out", str(out)]
                + mode)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --eps 0.2" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_flag_is_gone(self, tmp_path, demo_file, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            run(["reconstruct", "--circuit", str(demo_file), "--exact", "--out", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --exact" in capsys.readouterr().err
        assert not out.exists()

    def test_unlearnable_circuit_is_reconstruction_error(self, tmp_path, capsys):
        # hidden S gate is outside the standard matching set
        doc = {"n": 2, "layers": [[{"gate": "S", "qubits": [0]}, {"gate": "I", "qubits": [1]}]]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = run([
            "reconstruct", "--circuit", str(path), "--mode", "strict-exact",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "reconstruction failed" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, demo_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run([
                "reconstruct", "--circuit", str(demo_file), "--shots", "512",
                "--seed", "11", "--mode", "hardware", "--out", str(out),
            ])
            assert rc == 0
            outs.append(
                ((out / "report.json").read_bytes(), (out / "report.csv").read_bytes())
            )
        assert outs[0] == outs[1]


_RECONSTRUCT = ["reconstruct", "--circuit", "{tmp}/demo.json", "--shots", "256"]
_SWEEP_SAMPLES = ["sweep-samples", "--n", "2", "--shots-list", "100", "--seeds", "1"]
_SWEEP_NOISE = ["sweep-noise", "--depths", "1", "--seeds", "1"]
_GENERATE = ["generate", "--n", "2", "--depth", "1"]
_GATE_SET_LIST = ["--gateset", "{tmp}/gs.json"]

# name -> (argv, QVERIFY_SEED or None); "{tmp}" is the test's directory, and
# --out defaults to {tmp}/out for every command that takes it
BAD_INPUT = {
    "reconstruct-seed-neg": (_RECONSTRUCT + ["--seed", "-1"], None),
    "sweep-samples-seed-neg": (_SWEEP_SAMPLES + ["--seed", "-1"], None),
    "generate-seed-neg": (_GENERATE + ["--seed", "-1"], None),
    "reconstruct-env-seed": (_RECONSTRUCT, "abc"),
    "sweep-samples-env-seed": (_SWEEP_SAMPLES, "abc"),
    "sweep-noise-env-seed": (_SWEEP_NOISE, "abc"),
    "generate-env-seed": (_GENERATE, "abc"),
    "reconstruct-gate-set-list": (_RECONSTRUCT + _GATE_SET_LIST, None),
    "generate-gate-set-list": (_GENERATE + _GATE_SET_LIST, None),
    "generate-no-single-qubit-gate": (_GENERATE + ["--gateset", "{tmp}/doubles.json",
                                                   "--seed", "1"], None),
    "resolution-gate-set-list": (["resolution"] + _GATE_SET_LIST, None),
    "circuit-layers-int": (["reconstruct", "--circuit", "{tmp}/layers.json"], None),
    "circuit-noise-int": (["reconstruct", "--circuit", "{tmp}/noise.json"], None),
    "reconstruct-out-under-file": (_RECONSTRUCT + ["--out", "{tmp}/file/out"], None),
    "sweep-noise-out-under-file": (_SWEEP_NOISE + ["--out", "{tmp}/file/out"], None),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_is_config_error(tmp_path, monkeypatch, capsys, case):
    doc = json.loads(emit_circuit(demo_circuit(1)))
    files = {
        "demo.json": doc,
        "gs.json": [],
        "doubles.json": {"singles": [], "doubles": [{"name": "CNOT"}]},
        "layers.json": {**doc, "layers": 5},
        "noise.json": {**doc, "noise": 3},
        "file": "",
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content), encoding="utf-8")
    template, env_seed = BAD_INPUT[case]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in template]
    if argv[0] != "resolution" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    if env_seed is not None:
        monkeypatch.setenv("QVERIFY_SEED", env_seed)
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "file").is_dir()


def test_unexpected_exception_keeps_its_traceback(tmp_path, monkeypatch):
    # LinAlgError is a ValueError: a bug, not a configuration error
    def broken(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(qverify.cli, "sweep_noise", broken)
    with pytest.raises(np.linalg.LinAlgError):
        run(["sweep-noise", "--out", str(tmp_path / "out")])


class TestSweepCommands:
    def test_sweep_samples_monotone_and_deterministic(self, tmp_path):
        args = [
            "sweep-samples", "--n", "4", "--shots-list", "100,1000,10000",
            "--seeds", "2", "--seed", "5",
        ]
        rc = run(args + ["--out", str(tmp_path / "a")])
        assert rc == 0
        text = (tmp_path / "a" / "samples.csv").read_text()
        rc = run(args + ["--out", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "b" / "samples.csv").read_text() == text
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert rows and rows[0] == rows[0]
        series: dict[int, list[float]] = {}
        for m, n_shots, mean, std in rows:
            series.setdefault(int(m), []).append(float(mean))
        for m, vals in series.items():
            assert all(b >= a - 0.02 for a, b in zip(vals, vals[1:])), (m, vals)

    def test_sweep_samples_rejects_bad_list(self, tmp_path, capsys):
        rc = run([
            "sweep-samples", "--shots-list", "1000,100", "--out", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [["--seeds", "0"], ["--shots-list", "-5"], ["--shots-list", "0,100"]],
        ids=["seeds-0", "shots-neg", "shots-0"],
    )
    def test_sweep_samples_rejects_bad_counts(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        rc = run(["sweep-samples", "--n", "2", "--out", str(out)] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    def test_sweep_noise_rejects_zero_seeds(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(["sweep-noise", "--seeds", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    def test_sweep_noise_schema_and_trends(self, tmp_path):
        rc = run([
            "sweep-noise", "--gammas", "0,5", "--depths", "4", "--seeds", "5",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "noise.csv").read_text().strip().splitlines()
        assert lines[0] == "gamma,depth,median_fidelity,mean_fidelity,std"
        assert len(lines) == 1 + 2 * 4
        data = {}
        for line in lines[1:]:
            g, k, med, _, _ = line.split(",")
            data[(int(g), int(k))] = float(med)
        for k in range(1, 5):
            assert data[(0, k)] >= data[(5, k)]

    def test_sweep_noise_rejects_bad_gamma(self, tmp_path):
        rc = run(["sweep-noise", "--gammas", "0,9", "--out", str(tmp_path)])
        assert rc == 2

    def test_sweep_noise_has_no_n_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            run(["sweep-noise", "--n", "2", "--out", str(tmp_path)])
        assert exit_.value.code == 2


class TestResolutionCommand:
    def test_standard_set(self, capsys):
        rc = run(["resolution", "--gateset", "standard"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "C1: 25 / 25" in out
        assert "C2: 2 / 2" in out
        assert "resolution: 0.25" in out
        assert "closest pair" in out

    def test_qft_set_prints_one_closest_pair(self, monkeypatch, capsys):
        calls = []
        real = qverify.resolution.closest_pair

        def counted(elements):
            calls.append(len(elements))
            return real(elements)

        monkeypatch.setattr(qverify.resolution, "closest_pair", counted)
        monkeypatch.setattr(qverify.cli, "closest_pair", counted)
        assert run(["resolution", "--gateset", "qft"]) == 0
        assert calls == [51]
        assert capsys.readouterr().out == (
            "class inventory (raw / distinct):\n"
            "  C1: 25 / 25\n"
            "  C2: 2 / 2\n"
            "  C3: 20 / 10\n"
            "  C4: 20 / 10\n"
            "  C5: 16 / 4\n"
            "resolution: 0.191341716183\n"
            "closest pair at distance 0.382683432365: "
            "[H on w1, Rz(pi/2) on w2] vs [H on w1, T on w2]\n"
        )

    def test_degenerate_set_reported(self, tmp_path, capsys):
        doc = {
            "singles": [
                {"name": "I", "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]},
                {"name": "I2", "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]},
            ],
            "doubles": [],
        }
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = run(["resolution", "--gateset", str(path)])
        assert rc == 1
        assert "degenerate" in capsys.readouterr().out

    def test_single_gate_set_infinite(self, tmp_path, capsys):
        doc = {"singles": [{"name": "H"}], "doubles": []}
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = run(["resolution", "--gateset", str(path)])
        assert rc == 0
        assert "Infinite" in capsys.readouterr().out


class TestGenerateCommand:
    def test_deterministic_and_parseable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = run([
                "generate", "--n", "3", "--depth", "4", "--seed", "42",
                "--out", str(path),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        circuit = parse_circuit(a.read_text())
        assert circuit.n == 3 and circuit.depth == 4
        for layer in circuit.layers:
            layer.validate_for(3)

    def test_invalid_parameters(self, tmp_path):
        rc = run(["generate", "--n", "0", "--depth", "1", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QVERIFY_SEED", "123")
        a = tmp_path / "a.json"
        rc = run(["generate", "--n", "2", "--depth", "2", "--out", str(a)])
        assert rc == 0
        monkeypatch.setenv("QVERIFY_SEED", "124")
        b = tmp_path / "b.json"
        rc = run(["generate", "--n", "2", "--depth", "2", "--out", str(b)])
        assert rc == 0
        assert a.read_bytes() != b.read_bytes()
