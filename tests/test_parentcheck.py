"""Self-test of tools/parentcheck.py: a tree compared with itself on a tiny
`run` shows no difference, and a changed flag shows in the comparison."""

import importlib.util
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
