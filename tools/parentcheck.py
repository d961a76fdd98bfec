"""Check that a change leaves the artifacts of `rnncast run` byte-identical.

    python tools/parentcheck.py REV|DIR [--label L]

REV is a git revision of this repository, exported with `git archive` into a
temporary directory that is removed afterwards; DIR is a checkout used as it
is. This tree and that one each make the same six `rnncast run`s, each in a
fresh interpreter with PYTHONPATH=<tree>/src and one BLAS thread:

    default-train, desk-train, csv-eval   perfbench/run.py's flags at seed 1
    default-train-clip                    default-train with --grad-clip 0.5
    csv-eval-raw                          csv-eval with --report-units raw
                                          --fit-bounds-on-train
    desk-train-walk                       desk-train on --dataset random-walk

The flags come from `workload_argv` in this tree's perfbench/run.py, and both
trees read one csv-eval input file. The sha256 of every artifact except
manifest.json, which holds wall-clock times, is compared per run. The script
prints the file count and the differing names of each run and exits 1 on any
difference or failed run, else 0. --label L also writes PARENTCHECK_L.json
at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
# Run name -> (perfbench workload, flags added after the workload's own).
RUNS = {"default-train": ("default-train", []),
        "desk-train": ("desk-train", []),
        "csv-eval": ("csv-eval", []),
        "default-train-clip": ("default-train", ["--grad-clip", "0.5"]),
        "csv-eval-raw": ("csv-eval", ["--report-units", "raw", "--fit-bounds-on-train"]),
        "desk-train-walk": ("desk-train", ["--dataset", "random-walk"])}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# `cli.main` through -c rather than `-m rnncast`, which older trees lack.
MAIN = "import sys; from rnncast.cli import main; sys.exit(main(sys.argv[1:]))"


def workload_argvs(work: Path) -> dict[str, list[str]]:
    """Run name -> `rnncast` argv without --out, built by perfbench/run.py's
    `workload_argv`; csv-eval's input CSV is written once into `work`."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports its tracer
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      ROOT / "perfbench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    base = {name: bench.workload_argv(name, SEED, work) for name in bench.WORKLOADS}
    return {run: base[workload] + extra for run, (workload, extra) in RUNS.items()}


def digest(out: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under `out` but manifest.json."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def run_tree(tree: Path, argvs: dict[str, list[str]], out: Path) -> dict:
    """Each argv with `tree`'s package into out/<run>; run name -> the digest
    of its artifacts, or the error text of a run that did not exit 0."""
    env = {**os.environ, **{name: "1" for name in BLAS_THREAD_VARS},
           "PYTHONPATH": str(tree / "src")}
    results = {}
    for name, argv in argvs.items():
        done = subprocess.run([sys.executable, "-c", MAIN, *argv, "--out", str(out / name)],
                              env=env, capture_output=True, text=True)
        results[name] = (digest(out / name) if done.returncode == 0 else
                         f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return results


def compare(parent: dict, change: dict) -> dict:
    """Per run: the number of files compared and the names whose sha256
    differs or that only one tree wrote, or the error of a failed run."""
    report = {}
    for name in parent:
        a, b = parent[name], change[name]
        if isinstance(a, str) or isinstance(b, str):
            report[name] = {"error": {"parent": a, "change": b}}
            continue
        report[name] = {"files": len(a.keys() | b.keys()),
                        "differing": sorted(k for k in a.keys() | b.keys()
                                            if a.get(k) != b.get(k))}
    return report


def compare_trees(parent: Path, change: Path, argvs: dict[str, list[str]],
                  work: Path) -> dict:
    """Run `argvs` on both trees under `work` and compare their artifacts."""
    return compare(run_tree(parent, argvs, work / "parent"),
                   run_tree(change, argvs, work / "change"))


def failures(report: dict) -> int:
    """Differing files plus failed runs."""
    return sum(len(r.get("differing", ())) + ("error" in r) for r in report.values())


def export_revision(rev: str, into: Path) -> str:
    """Write the files of revision `rev` into `into`; returns its commit."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="git revision or directory of the parent tree")
    parser.add_argument("--label", help="write PARENTCHECK_<label>.json at the repo root")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="parentcheck-") as tmp:
        work = Path(tmp)
        if Path(args.parent).is_dir():
            parent, commit = Path(args.parent).resolve(), None
        else:
            parent = work / "tree"
            commit = export_revision(args.parent, parent)
        (work / "inputs").mkdir()
        report = compare_trees(parent, ROOT, workload_argvs(work / "inputs"), work)

    for name, r in report.items():
        if "error" in r:
            print(f"{name}: run failed: {r['error']}")
        else:
            print(f"{name}: {r['files']} files, {len(r['differing'])} differ"
                  + "".join(f"\n  {k}" for k in r["differing"]))
    total = sum(r.get("files", 0) for r in report.values())
    print(f"total: {total} files, {failures(report)} differing files or failed runs")
    if args.label:
        result = {"parent": args.parent, "parent_commit": commit, "seed": SEED,
                  "runs": {name: {"workload": RUNS[name][0], "extra_flags": RUNS[name][1],
                                  **r} for name, r in report.items()},
                  "files": total, "differing": failures(report)}
        path = ROOT / f"PARENTCHECK_{args.label}.json"
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 1 if failures(report) else 0


if __name__ == "__main__":
    sys.exit(main())
