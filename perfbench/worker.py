"""One benchmark repeat: a single `rnncast run` in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC.json holds `argv` (the run's command line), `out` (its output
directory), `trace` (wrap the layers in spans), `spans` (where a traced run
writes them) and `result` (where this repeat writes its result as JSON).

The run goes through rnncast.cli.main in this process. Its clock starts
after the import, which setup_s measures on its own. The output check runs
after the clock and the memory reading stop.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

RMSE_REL_TOL = 1e-9


def _blas_libraries() -> list[dict]:
    """Version and thread count of every OpenBLAS this process has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
                entry["threads"] = threads()
        found.append(entry)
    return found


def environment() -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _read_csv_columns(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:] if row])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _flat_forecast(kind: str, t: dict, inputs: np.ndarray) -> np.ndarray:
    """The cell equations written out once more, step by step, for a stack
    of windows; independent of rnncast.cells."""
    n, steps = inputs.shape
    units = t["w_out"].shape[1]
    h = np.zeros((n, units))
    c = np.zeros((n, units))
    for step in range(steps):
        x = inputs[:, step:step + 1]
        if kind == "lstm":
            i = _sigmoid(x * t["w_i"] + h @ t["u_i"].T + t["b_i"])
            f = _sigmoid(x * t["w_f"] + h @ t["u_f"].T + t["b_f"])
            o = _sigmoid(x * t["w_o"] + h @ t["u_o"].T + t["b_o"])
            g = np.tanh(x * t["w_g"] + h @ t["u_g"].T + t["b_g"])
            c = f * c + i * g
            h = o * np.tanh(c)
        else:
            z = _sigmoid(x * t["w_z"] + h @ t["u_z"].T + t["b_z"])
            r = _sigmoid(x * t["w_r"] + h @ t["u_r"].T + t["b_r"])
            cand = np.tanh(x * t["w_n"] + (r * h) @ t["u_n"].T + t["b_n"])
            h = (1.0 - z) * cand + z * h
    return h @ t["w_out"].T + t["b_out"]


def check_outputs(out: Path) -> dict:
    """Check one run directory; returns errors and the scores it reads."""
    from rnncast.training import load_checkpoint

    errors = []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    named = [manifest["dataset_csv"], *manifest["checkpoints"].values(),
             *manifest["loss_histories"].values(), *manifest["plots"]]
    for files in manifest["reports"].values():
        named.extend(files)
    errors += [f"manifest names missing artifact {n}" for n in named
               if not (out / n).is_file()]
    if errors:
        return {"errors": errors}

    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    scores = {}
    for row in rows:
        rmse, da = float(row["rmse"]), float(row["da"])
        if not (math.isfinite(rmse) and math.isfinite(da)):
            errors.append(f"summary.csv: non-finite score in {row}")
        scores[(row["model"], int(row["horizon"]), row["series"])] = rmse

    config = manifest["config"]
    names, data = _read_csv_columns(out / manifest["dataset_csv"])
    length = data.shape[0]
    window, test_len = config["window"], config["test_len"]

    checkpoints = {}
    for pair, name in sorted(manifest["checkpoints"].items()):
        cp = load_checkpoint(out / name)
        checkpoints[pair] = cp
        if (cp.model.window, f"{cp.model.kind}_f{cp.model.horizon}") != (window, pair):
            errors.append(f"{name} reloads as {cp.model.kind}_f{cp.model.horizon}, "
                          f"window {cp.model.window}")

    # Flat-loop RMSE of every pair on the first series against summary.csv.
    # Assumes the normalized reporting and full-series bounds the workloads use.
    values = data[:, 0]
    lo, hi = values.min(), values.max()
    scaled = (values - lo) / (hi - lo)
    for pair, cp in sorted(checkpoints.items()):
        model = cp.model
        f = model.horizon
        starts = range(length - test_len - window, length - window - f + 1)
        inputs = np.array([scaled[s:s + window] for s in starts])
        predicted = _flat_forecast(model.kind, model.tensors(), inputs)
        total, count = 0.0, 0
        for i, s in enumerate(starts):
            for k in range(f):
                err = float(predicted[i, k]) - float(scaled[s + window + k])
                total += err * err
                count += 1
        flat = math.sqrt(total / count)
        reported = scores[(model.kind, f, names[0])]
        if abs(flat - reported) > RMSE_REL_TOL * reported:
            errors.append(f"flat-loop RMSE {flat!r} != summary.csv {reported!r} "
                          f"for {pair} on {names[0]}")

    networks = [(m, h) for (m, h, s) in scores if s == "mean" and m != "baseline"]
    ratios = [scores[(m, h, "mean")] / scores[("baseline", h, "mean")]
              for m, h in networks]
    windows = sum((length - test_len) - window - h + 1 for _, h in networks)
    return {
        "errors": errors,
        "rmse_ratio": sum(ratios) / len(ratios),
        "train_windows": windows * config["epochs"],
        "train_stage_s": manifest["timings_seconds"]["train"],
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from rnncast import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = {
        "exit_code": code,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(spec["spans"])
    if code == 0:
        result.update(check_outputs(Path(spec["out"])))
    else:
        result["errors"] = [f"rnncast run exited with code {code}"]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
