import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import qverify


def test_every_exported_name_resolves():
    assert [name for name in qverify.__all__ if not hasattr(qverify, name)] == []
    assert len(set(qverify.__all__)) == len(qverify.__all__)


def test_every_trace_target_resolves():
    """Each entry point the benchmark's tracer wraps still exists by that name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr, name, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        *parents, leaf = attr.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, leaf, None)):
            missing.append(f"{module}.{attr} ({name})")
    assert missing == []


def test_readme_quick_start_runs(monkeypatch):
    """README.md's one ``python`` block runs from the repository root."""
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(root)
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cli_only_parses_arguments():
    """The CLI imports no numpy and no private name of a library module."""
    tree = ast.parse(Path(qverify.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    modules, private = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            if node.level or (node.module or "").startswith("qverify"):
                private += [alias.name for alias in node.names if alias.name.startswith("_")]
    numpy = [m for m in modules if m.split(".")[0] == "numpy"]
    assert (numpy, private) == ([], [])


def test_import_loads_only_the_library_core():
    """A fresh ``import qverify`` loads ten package modules and, past the stdlib, only numpy.

    The sweeps, the CLI and the benchmark circuits load when first imported,
    so the package's own import does no work that only they need.
    """
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(qverify.__file__).parents[1])!r})\n"
        "before = set(sys.modules)\n"
        "import qverify\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    loaded = json.loads(run.stdout)
    package = [m for m in loaded if m.split(".")[0] == "qverify"]
    assert package == ["qverify"] + [f"qverify.{name}" for name in (
        "circuits", "core", "device", "errors", "gates", "reconstruction", "resolution", "rng",
        "tomography")]
    outside = {m.split(".")[0] for m in loaded} - set(sys.stdlib_module_names)
    assert outside == {"numpy", "qverify"}


def test_failing_property_test_prints_its_example(tmp_path):
    """Under the suite's warning filters, a failing Hypothesis test keeps its report."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n",
        encoding="utf-8",
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
