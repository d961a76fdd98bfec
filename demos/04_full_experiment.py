"""Drive the whole pipeline through the command-line entry point.

Equivalent to running, in a shell:

    rnncast run --dataset activities --length 500 --series 4 \
        --window 28 --horizons 1,8 --test-len 100 \
        --epochs 10 --units 8 --learning-rate 0.01 --seed 1 --out <dir>

and produces the same artifact set as a full-scale experiment: a dataset CSV,
one checkpoint and loss history per (model, horizon), per-model score
reports, SVG plots with CSV companions, and a manifest tying them together.

The call sits under the `__main__` check because `run` trains in spawned
worker processes, and each of them imports this script's main module.
"""

import json
import tempfile
from pathlib import Path

from rnncast import cli


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "experiment"
        rc = cli.main([
            "run", "--dataset", "activities", "--length", "500", "--series", "4",
            "--window", "28", "--horizons", "1,8", "--test-len", "100",
            "--epochs", "10", "--units", "8", "--learning-rate", "0.01",
            "--seed", "1", "--out", str(out),
        ])
        print(f"\nexit code {rc}")

        manifest = json.loads((out / "manifest.json").read_text())
        print(f"dataset: {manifest['dataset_csv']}")
        print(f"checkpoints: {sorted(manifest['checkpoints'])}")
        print("stage timings:",
              {k: round(v, 2) for k, v in manifest["timings_seconds"].items()})

        files = sorted(p.name for p in out.iterdir())
        print(f"\n{len(files)} files in {out.name}/:")
        for name in files[:12]:
            print(f"  {name}")
        if len(files) > 12:
            print(f"  ... and {len(files) - 12} more")

        # The summary CSV is the flat, machine-friendly view of every score.
        summary = (out / "summary.csv").read_text().splitlines()
        print(f"\nsummary.csv ({len(summary) - 1} rows):")
        for line in summary[:4]:
            print(f"  {line}")


if __name__ == "__main__":
    main()
