"""Self-test of tools/parentcheck.py: a tree compared with itself on a tiny
`run` shows no difference, a changed flag shows in the comparison, and so
does a one-ulp change to the gradients or to the forecasts under --grads."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("parentcheck", ROOT / "tools" / "parentcheck.py")
parentcheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parentcheck)

TINY = ["run", "--dataset", "random-walk", "--length", "120", "--series", "2",
        "--window", "8", "--horizons", "1", "--test-len", "30", "--epochs", "1",
        "--units", "2", "--models", "gru,baseline", "--seed", "1", "--quiet"]


def test_tree_against_itself_has_no_difference(tmp_path):
    report = parentcheck.compare_trees(ROOT, ROOT, {"tiny": TINY}, tmp_path)
    assert report["tiny"]["files"] > 5
    assert report["tiny"]["differing"] == []
    assert parentcheck.failures(report) == 0


def test_changed_output_and_failed_run_are_counted(tmp_path):
    first = parentcheck.run_tree(ROOT, {"tiny": TINY, "refused": TINY}, tmp_path / "a")
    second = parentcheck.run_tree(ROOT, {"tiny": [*TINY, "--seed", "2"],
                                         "refused": [*TINY, "--epochs", "0"]},
                                  tmp_path / "b")
    assert second["refused"].startswith("exit 2: error: ")
    report = parentcheck.compare(first, second)
    assert "dataset.csv" in report["tiny"]["differing"]
    assert "error" in report["refused"]
    assert parentcheck.failures(report) == len(report["tiny"]["differing"]) + 1


def changed_copy(tmp_path, name, code):
    """A copy of this tree's package with `code` appended to its cells.py."""
    shutil.copytree(ROOT / "src", tmp_path / name / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / name / "src" / "rnncast" / "cells.py", "a", encoding="utf-8") as cells:
        cells.write(code)
    return tmp_path / name


def test_gradient_bytes_of_a_changed_tree_differ(tmp_path):
    # A copy whose backward_batch moves one gradient by one ulp differs in
    # every case's digest, the forecast cases' through their Adam steps; a
    # copy whose forecast moves by one ulp differs in every forecast case's
    # and in no gradient case's; the tree compared with itself in none.
    grads_moved = changed_copy(tmp_path, "grads", "\n\n_exact = backward_batch\n\n\n"
                               "def backward_batch(state, inputs, targets):\n"
                               "    loss, grads = _exact(state, inputs, targets)\n"
                               "    grads['b_out'] = np.nextafter(grads['b_out'], np.inf)\n"
                               "    return loss, grads\n")
    forecast_moved = changed_copy(tmp_path, "forecast", "\n\n_exact = ModelState.forecast\n"
                                  "ModelState.forecast = lambda self, inputs: np.nextafter(\n"
                                  "    _exact(self, inputs), np.inf)\n")
    here = parentcheck.grad_digests(ROOT)
    forecasts = sorted(case for case in here if " forecast " in case)
    grads = sorted(here.keys() - set(forecasts))
    assert len(grads) == 2 * len(parentcheck.GRAD_SHAPES)
    assert len(forecasts) == 2 * len(parentcheck.FORECAST_SHAPES)
    assert all(len(d) == 64 for d in here.values())
    assert parentcheck.compare_grads(here, parentcheck.grad_digests(ROOT))["differing"] == []
    for tree, differing in ((grads_moved, sorted(here)), (forecast_moved, forecasts)):
        changed = parentcheck.compare_grads(here, parentcheck.grad_digests(tree))
        assert changed["differing"] == differing, tree.name
