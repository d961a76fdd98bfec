"""What the benchmark in perfbench/ reads from the package: every function
its tracer wraps, and every name its output check calls. Renaming or
deleting one of them breaks the benchmark, so it fails here first."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from rnncast.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    """perfbench/<name>.py as a module, with sys.path left as it was (the
    worker puts src/ in front)."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _, _
                                         in _load("tracer")._targets()])
def test_every_traced_target_exists_and_is_callable(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_output_check_passes_on_a_tiny_run(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--dataset", "random-walk", "--series", "2", "--length", "200",
                 "--window", "8", "--horizons", "1,3", "--test-len", "30",
                 "--epochs", "1", "--units", "4", "--seed", "1",
                 "--out", str(out), "--quiet"]) == 0
    checked = _load("worker").check_outputs(out)
    assert checked["errors"] == []
    assert math.isfinite(checked["rmse_ratio"]) and checked["train_windows"] > 0
