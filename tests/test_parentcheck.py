"""Self-test of tools/parentcheck.py: a tree compared with itself on a tiny
`run` shows no difference, a changed flag shows in the comparison, and so
does a one-ulp change to the gradients under --grads."""

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


def test_gradient_bytes_of_a_changed_tree_differ(tmp_path):
    # A copy whose backward_batch moves one gradient by one ulp differs in
    # every case's digest; the tree compared with itself differs in none.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "rnncast" / "cells.py", "a", encoding="utf-8") as cells:
        cells.write("\n\n_exact = backward_batch\n\n\n"
                    "def backward_batch(state, inputs, targets):\n"
                    "    loss, grads = _exact(state, inputs, targets)\n"
                    "    grads['b_out'] = np.nextafter(grads['b_out'], np.inf)\n"
                    "    return loss, grads\n")
    here = parentcheck.grad_digests(ROOT)
    assert len(here) == 2 * len(parentcheck.GRAD_SHAPES)
    assert all(len(d) == 64 for d in here.values())
    assert parentcheck.compare_grads(here, parentcheck.grad_digests(ROOT))["differing"] == []
    changed = parentcheck.compare_grads(here, parentcheck.grad_digests(tmp_path))
    assert changed["differing"] == sorted(here)
