import ast
import importlib
import importlib.util
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
