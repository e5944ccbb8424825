"""The benchmark's tracer names functions of the package; a rename must
fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


@pytest.mark.skipif(not TRACE.exists(), reason="perfbench/ is absent")
def test_trace_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for layer, names in trace.LAYERS.items():
        module = importlib.import_module(f"quartic_galois.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    from quartic_galois.linalg import Matrix
    for meth in trace.MATRIX_METHODS:
        assert meth in Matrix.__dict__, f"Matrix.{meth}"
