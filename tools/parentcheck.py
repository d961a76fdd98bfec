"""Check that a change leaves the artifacts of `rnncast run` byte-identical.

    python tools/parentcheck.py REV|DIR [--label L] [--grads] [--time]

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

--grads also compares, per tree, the sha256 of the loss and gradient bytes
of `backward_batch` for lstm and gru at (units, batch) = (32, 16), (128, 32)
and (3, 1), window 60: parameters drawn from a seeded numpy generator, three
Adam steps (learning rate 0.01) so the biases are non-zero, then one more
batch; inputs hold exact zeros. A differing digest counts as a difference.

--time also times `backward_batch` in-process, lstm and gru at (32, 16),
(16, 32) and (128, 32): TIME_ROUNDS rounds, each a fresh interpreter per
tree, in alternating order, reporting each tree's median of per-call times;
it prints the median and quartiles of those round medians and the rounds
each tree won. Timings never count as a difference.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import statistics
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
GRAD_SHAPES = ((32, 16), (128, 32), (3, 1))
TIME_SHAPES = ((32, 16), (16, 32), (128, 32))
TIME_ROUNDS, TIME_CALLS = 9, 25
# Both programs run in the tree under test. Trees before `ba7cacd` return the
# loss alone and leave the gradients in `state.grad_tensors()`.
CHILD_PRELUDE = """
import hashlib, json, statistics, sys, time
import numpy as np
from rnncast.cells import backward_batch, init_model, tensor_shapes
from rnncast.numkit import Rng
from rnncast.training import AdamState, adam_step

def loss_and_grads(state, xs, ys):
    out = backward_batch(state, xs, ys)
    return out if isinstance(out, tuple) else (out, state.grad_tensors())
"""
GRADS_CODE = CHILD_PRELUDE + """
out = {}
for kind in ("lstm", "gru"):
    for units, batch in SHAPES:
        rng = np.random.default_rng(units * 1000 + batch)
        state = init_model(kind, units, 60, 20, Rng(0))
        params, scale = state.tensors(), 1.0 / np.sqrt(units)
        for name, shape in tensor_shapes(kind, units, 20).items():
            params[name][...] = rng.uniform(-scale, scale, shape)
        adam = AdamState(learning_rate=0.01)
        for step in range(4):
            xs = rng.uniform(-1.0, 1.0, (batch, 60))
            xs[rng.random((batch, 60)) < 0.05] = 0.0
            loss, grads = loss_and_grads(state, xs, rng.uniform(-1.0, 1.0, (batch, 20)))
            if step < 3:
                adam_step(adam, params, {k: v.copy() for k, v in grads.items()})
        digest = hashlib.sha256(np.float64(loss).tobytes())
        for name in tensor_shapes(kind, units, 20):
            digest.update(np.ascontiguousarray(grads[name]).tobytes())
        out[f"{kind} U={units} B={batch}"] = digest.hexdigest()
print(json.dumps(out))
"""
TIME_CODE = CHILD_PRELUDE + """
out = {}
for kind in ("lstm", "gru"):
    for units, batch in SHAPES:
        rng = np.random.default_rng(units * 1000 + batch)
        state = init_model(kind, units, 60, 20, Rng(units + batch))
        xs, ys = rng.uniform(-1.0, 1.0, (batch, 60)), rng.uniform(-1.0, 1.0, (batch, 20))
        loss_and_grads(state, xs, ys)  # first call: allocations and caches
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            loss_and_grads(state, xs, ys)
            times.append(time.perf_counter() - start)
        out[f"{kind} U={units} B={batch}"] = statistics.median(times) * 1e3
print(json.dumps(out))
"""


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


def tree_env(tree: Path) -> dict[str, str]:
    """The environment of a child that imports `tree`'s package, one BLAS thread."""
    return {**os.environ, **{name: "1" for name in BLAS_THREAD_VARS},
            "PYTHONPATH": str(tree / "src")}


def run_child(tree: Path, code: str) -> dict:
    """The JSON that `code` prints in a fresh interpreter on `tree`'s package."""
    done = subprocess.run([sys.executable, "-c", code], env=tree_env(tree),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def grad_digests(tree: Path) -> dict[str, str]:
    """Case -> sha256 of the loss and gradient bytes (see --grads)."""
    return run_child(tree, GRADS_CODE.replace("SHAPES", repr(GRAD_SHAPES)))


def compare_grads(parent: dict, change: dict) -> dict:
    """Both trees' digests and the cases whose digest differs."""
    return {"parent": parent, "change": change,
            "differing": sorted(k for k in parent.keys() | change.keys()
                                if parent.get(k) != change.get(k))}


def time_trees(parent: Path, change: Path) -> dict:
    """Per case: each tree's median and quartiles of its round medians (ms)
    and the rounds it won, from TIME_ROUNDS alternating rounds (see --time)."""
    code = TIME_CODE.replace("SHAPES", repr(TIME_SHAPES)).replace("CALLS", str(TIME_CALLS))
    trees = {"parent": parent, "change": change}
    medians = {"parent": [], "change": []}
    for r in range(TIME_ROUNDS):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            medians[side].append(run_child(trees[side], code))
    report = {}
    for case in medians["parent"][0]:
        per_side = {side: [m[case] for m in medians[side]] for side in medians}
        report[case] = {side: dict(zip(("q1", "median", "q3"), statistics.quantiles(v, n=4)))
                        for side, v in per_side.items()}
        report[case]["rounds_won"] = {
            "parent": sum(p < c for p, c in zip(per_side["parent"], per_side["change"])),
            "change": sum(c < p for p, c in zip(per_side["parent"], per_side["change"]))}
    return {"rounds": TIME_ROUNDS, "calls_per_round": TIME_CALLS, "unit": "ms", "cases": report}


def run_tree(tree: Path, argvs: dict[str, list[str]], out: Path) -> dict:
    """Each argv with `tree`'s package into out/<run>; run name -> the digest
    of its artifacts, or the error text of a run that did not exit 0."""
    env = tree_env(tree)
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
    parser.add_argument("--grads", action="store_true",
                        help="also compare loss and gradient bytes of backward_batch")
    parser.add_argument("--time", action="store_true",
                        help="also time backward_batch on both trees, interleaved")
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
        grads = compare_grads(grad_digests(parent), grad_digests(ROOT)) if args.grads else None
        timing = time_trees(parent, ROOT) if args.time else None

    for name, r in report.items():
        if "error" in r:
            print(f"{name}: run failed: {r['error']}")
        else:
            print(f"{name}: {r['files']} files, {len(r['differing'])} differ"
                  + "".join(f"\n  {k}" for k in r["differing"]))
    total = sum(r.get("files", 0) for r in report.values())
    print(f"total: {total} files, {failures(report)} differing files or failed runs")
    differing = failures(report)
    if grads is not None:
        differing += len(grads["differing"])
        print(f"grads: {len(grads['parent'])} cases, {len(grads['differing'])} differ"
              + "".join(f"\n  {k}" for k in grads["differing"]))
    if timing is not None:
        print(f"backward_batch, ms: median [quartiles] of {timing['rounds']} round medians")
        for case, r in timing["cases"].items():
            print(f"  {case}: parent {r['parent']['median']:.3f} "
                  f"[{r['parent']['q1']:.3f}, {r['parent']['q3']:.3f}], change "
                  f"{r['change']['median']:.3f} [{r['change']['q1']:.3f}, "
                  f"{r['change']['q3']:.3f}]; rounds won: parent {r['rounds_won']['parent']}"
                  f", change {r['rounds_won']['change']}")
    if args.label:
        result = {"parent": args.parent, "parent_commit": commit, "seed": SEED,
                  "runs": {name: {"workload": RUNS[name][0], "extra_flags": RUNS[name][1],
                                  **r} for name, r in report.items()},
                  "files": total, "differing": failures(report)}
        if grads is not None:
            result["grads"] = grads
        if timing is not None:
            result["time"] = timing
        path = ROOT / f"PARENTCHECK_{args.label}.json"
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
