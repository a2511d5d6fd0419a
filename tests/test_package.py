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
