"""rnncast benchmark: whole `rnncast run`s as a single-client closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Each
repeat is one `rnncast run`, called in-process through rnncast.cli.main in
a fresh worker interpreter (perfbench/worker.py); the next repeat starts
when the previous one has ended. Repeats start until the next one would end
after S seconds, with at least two, so every run checks that repeats are
byte-identical. The workload's inputs (flags, and for csv-eval a CSV file)
come from --seed alone. Workers run with one BLAS thread (BLAS_THREADS).

--trace 0 reports the end-to-end metrics. --trace 1 wraps the layers of
every repeat in spans (perfbench/tracer.py) and reports the per-layer
metrics, plus trace.overhead_s, the tracer's estimated own cost.

Every line before the last names a metric with its value and unit, or holds
the environment; the last line is the JSON result. The full result, with
every repeat, is written to perfbench/.work/<workload>-s<seed>-t<trace>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5
MIN_REPEATS = 2
RUN_DEADLINE_S = 170.0
# One BLAS thread: on these shapes a second one adds no speed (default-train
# and csv-eval run as fast with one as with two on 2 vCPUs), while it makes
# every GEMM wait for both vCPUs, so a host that preempts either one slows
# the run; with two, run_s on default-train spread 17-31 % between runs.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Why each workload exists, and which layers it stresses, is in
# BENCHMARK.json. The sizes are cut from the shapes they model so that a
# repeat takes 6-9 s and four or five fit in one run: the repeats of one run
# vary by 5-15 % on a shared host, and their median steadies with more.
COMMON = ["--window", "60", "--horizons", "1,20", "--models", "lstm,gru,baseline",
          "--quiet"]
WORKLOADS = {
    # Criterion 9's shape (units 128, batch 32, test_len 251) at one epoch,
    # on one series of 1000, so training is about 80 % of the run. Training
    # sees one series whatever --series says; fewer series only shorten
    # evaluate and plot, while a shorter series leaves rmse_ratio unsteady.
    "default-train": ["--dataset", "activities", "--series", "1", "--length", "1000",
                      "--test-len", "251", "--units", "128", "--batch-size", "32",
                      "--epochs", "1"],
    # Criteria 6-8's shape (10 series of 1000, units 32, batch 16, lr 0.01)
    # at two epochs instead of their 25+.
    "desk-train": ["--dataset", "activities", "--series", "10", "--length", "1000",
                   "--test-len", "150", "--units", "32", "--batch-size", "16",
                   "--learning-rate", "0.01", "--epochs", "2"],
    # A CSV of mean-reverting random walks with a long test tail: forecasts,
    # plots, checkpoint loads and CSV parsing are about 40 % of the run.
    # Two epochs at batch 32 on 1972 windows, as one epoch, a batch of 64 or
    # a shorter series leaves the networks' RMSE ratio unsteady across seeds.
    "csv-eval": ["--test-len", "1000", "--units", "16", "--learning-rate", "0.02",
                 "--epochs", "2"],
}
CSV_SERIES = 5
CSV_LENGTH = 3032
CSV_LEVEL = 100.0
CSV_PULL = 0.02

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "train_windows_per_s": "1/s",
                    "peak_rss_mb": "MB", "rmse_ratio": "ratio", "ok_run_share": "share"}


def write_random_walks(path: Path, seed: int) -> None:
    """CSV_SERIES mean-reverting random walks (AR(1), phi = 1 - CSV_PULL) of
    CSV_LENGTH steps, drawn from `seed` only. On pure random walks the
    briefly trained networks' RMSE ratio to persistence spreads 15-25% across
    seeds; the pull toward a fixed level keeps each series' range, and with
    it that ratio, steady."""
    rng = random.Random(seed)
    levels = [CSV_LEVEL] * CSV_SERIES
    lines = [",".join(f"walk{i}" for i in range(CSV_SERIES))]
    for _ in range(CSV_LENGTH):
        levels = [v + CSV_PULL * (CSV_LEVEL - v) + rng.gauss(0.0, 1.0) for v in levels]
        lines.append(",".join(repr(v) for v in levels))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def workload_argv(name: str, seed: int, work: Path) -> list[str]:
    flags = list(WORKLOADS[name])
    if name == "csv-eval":
        data = work / "input.csv"
        write_random_walks(data, seed)
        flags += ["--data", str(data)]
    return ["run", *COMMON, *flags, "--seed", str(seed)]


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def measure_setup() -> list[float]:
    """Wall time of a cold interpreter importing rnncast, SETUP_REPEATS
    times after one untimed import that fills the bytecode cache."""
    command = [sys.executable, "-c", "import rnncast"]
    env = child_env()
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - start)
    return times


def tree_digest(out: Path) -> dict:
    """sha256 of every artifact except manifest.json, which holds timings."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def source_identity() -> dict:
    """The commit, when the checkout is a git repository, and a digest of
    the package sources, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), ref)
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_repeat(index: int, argv: list[str], work: Path, trace: bool,
               deadline: float) -> tuple[dict, dict | None]:
    out = work / f"rep{index}"
    spec = {"argv": argv + ["--out", str(out)], "out": str(out), "trace": trace,
            "spans": str(work / f"spans{index}.json"),
            "result": str(work / f"result{index}.json")}
    spec_path = work / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"errors": ["worker timed out"], "wall_s": time.perf_counter() - start}, None
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not Path(spec["result"]).is_file():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {"errors": [f"worker exited {proc.returncode}: {' | '.join(tail)}"],
                "wall_s": wall}, None
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    result["wall_s"] = wall
    if trace:
        recorded = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
        result["layers"] = layer_metrics(recorded["spans"], recorded["wrapper_s"])
    digest = tree_digest(out) if result["exit_code"] == 0 else None
    shutil.rmtree(out, ignore_errors=True)
    return result, digest


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rnncast" / "cli.py").is_file():
        print(f"error: no rnncast package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    argv_run = workload_argv(args.workload, args.seed, work)
    setup_times = [] if args.trace else measure_setup()

    repeats, digests, errors = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        n = len(repeats)
        elapsed = time.perf_counter() - start
        if n >= MIN_REPEATS and elapsed + longest > args.seconds:
            break
        if time.monotonic() + longest > deadline:
            break
        result, digest = run_repeat(n, argv_run, work, bool(args.trace), deadline)
        longest = max(longest, result["wall_s"])
        repeats.append(result)
        errors += [f"repeat {n}: {e}" for e in result["errors"]]
        if digest is not None:
            digests.append((n, digest))
    for n, digest in digests[1:]:
        if digest != digests[0][1]:
            changed = sorted(k for k in set(digest) | set(digests[0][1])
                             if digest.get(k) != digests[0][1].get(k))
            errors.append(f"repeat {n}: artifacts differ from repeat "
                          f"{digests[0][0]}: {changed[:5]}")

    failed = sum(1 for r in repeats if r["errors"])
    ok = [r for r in repeats if not r["errors"]]
    env = {**(repeats[0].get("env") or {}), **source_identity()}

    e2e, layers = {}, {}
    if not args.trace:
        e2e = {
            "run_s": median([r["run_s"] for r in ok]),
            "setup_s": median(setup_times),
            "train_windows_per_s": median([r["train_windows"] / r["train_stage_s"]
                                           for r in ok]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
            "rmse_ratio": median([r["rmse_ratio"] for r in ok]),
            "ok_run_share": (len(repeats) - failed) / len(repeats),
        }
    elif ok:
        for name, (_, unit, note) in ok[0]["layers"].items():
            layers[name] = (median([r["layers"][name][0] for r in ok]), unit, note)

    correct = not errors and bool(ok)
    for e in errors:
        print(f"check failed: {e}")
    print(f"workload {args.workload} seed {args.seed}: {len(repeats)} "
          f"{'traced' if args.trace else 'untraced'} repeats, {failed} failed")
    for name, value in e2e.items():
        count = {"setup_s": SETUP_REPEATS, "ok_run_share": len(repeats)}.get(name, len(ok))
        kind = "share" if name == "ok_run_share" else "median"
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}  ({kind}, n={count})")
    print(f"  failed_run_share = {failed / len(repeats):.6g} share  (share, n={len(repeats)})")
    for name, (value, unit, note) in layers.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")
              + f"  (median, n={len(ok)})")
    print("env " + json.dumps(env, sort_keys=True))

    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "argv": argv_run, "env": env, "correct": correct,
            "errors": errors, "setup_times_s": setup_times,
            "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
            "failed_run_share": failed / len(repeats),
            "per_layer": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in layers.items()},
            "repeats": [{k: v for k, v in r.items() if k not in ("env", "layers")}
                        for r in repeats]}
    (work / "result.json").write_text(json.dumps(full, indent=1, sort_keys=True),
                                      encoding="utf-8")

    metrics = ({k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
               if args.trace else
               {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()})
    print(json.dumps({"correct": correct, "attempted": len(repeats), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
