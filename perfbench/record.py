"""Run every workload on the main and the held-out seed, untraced and traced,
and append the numbers to perfbench/trajectory.json.

    python3 perfbench/record.py --label NAME

Run from the repository root. Prints every run's metric lines as run.py
prints them, then one table of the end-to-end medians per workload and
seed. An entry in the trajectory holds, per workload and seed, the
end-to-end metrics (untraced run) and the per-layer metrics (traced run),
with the environment block of the run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MAIN_SEED = 1
HELDOUT_SEED = 20261017
SEEDS = (MAIN_SEED, HELDOUT_SEED)
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{proc.stderr}")
    result = HERE / ".work" / f"{workload}-s{seed}-t{trace}" / "result.json"
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    entry = {"label": args.label,
             "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "run_seconds": RUN_SECONDS, "main_seed": MAIN_SEED,
             "heldout_seed": HELDOUT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        per_seed = {}
        for seed in SEEDS:
            plain = run_once(workload, seed, 0)
            traced = run_once(workload, seed, 1)
            per_seed[str(seed)] = {
                "correct": plain["correct"] and traced["correct"],
                "repeats": len(plain["repeats"]),
                "failed_run_share": plain["failed_run_share"],
                "end_to_end": {k: v["value"] for k, v in plain["end_to_end"].items()},
                "per_layer": {k: v["value"] for k, v in traced["per_layer"].items()},
            }
            entry["env"] = plain["env"]
        entry["workloads"][workload] = per_seed

    path = HERE / "trajectory.json"
    trajectory = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")

    names = list(next(iter(next(iter(entry["workloads"].values())).values()))["end_to_end"])
    print(f"\n{'workload':<14} {'seed':>9}  " + "  ".join(f"{n:>19}" for n in names))
    for workload, per_seed in entry["workloads"].items():
        for seed, numbers in per_seed.items():
            print(f"{workload:<14} {seed:>9}  " + "  ".join(
                f"{numbers['end_to_end'][n]:>19.6g}" for n in names))
    print(f"appended entry {args.label!r} to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
