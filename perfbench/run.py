"""End-to-end benchmark of the ckmeans solve paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory.  Set-up time is measured over several fresh interpreters
importing `ckmeans.cli` and `ckmeans.streaming`, each scaled by a
calibration task timed around it.  Then one
fresh child process (thread pools pinned to 1) generates the workload's
inputs from the seed and runs a closed loop of solves, one at a time,
for S seconds, checking every output.  Human-readable lines come first;
the last line of standard output is the JSON result.  With --trace 1
the result carries the per-layer metrics of layertrace.py instead of
the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170   # the whole run must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = "import ckmeans, ckmeans.cli, ckmeans.streaming; print(ckmeans.__file__)"

sys.path.insert(0, str(BENCH))
import layertrace  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"wall_cal": "x", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to the package imported, each
    divided by the calibration task timed around it; the first, untimed
    probe also checks that the package comes from this checkout."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    origin = probe.stdout.strip()
    if probe.returncode != 0 or not origin.startswith(str(SRC)):
        raise RuntimeError(f"ckmeans does not import from {SRC}: "
                           f"{origin or probe.stderr.strip()[-300:]}")
    times, cals = [], [workloads.calibrate()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
        cals.append(workloads.calibrate())
    return times, cals


def calibrated(walls, cals) -> list[float]:
    """Each time divided by the mean of the calibrations just before and
    just after it."""
    return [w / (0.5 * (cals[i] + cals[i + 1])) for i, w in enumerate(walls)]


def machine_info() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = got.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_sha": sha}


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run_child(name, seed, seconds, trace, env, budget) -> dict:
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), name, str(seed), str(seconds),
             str(trace), str(workdir)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(raw, setup) -> dict:
    return {
        "wall_cal": statistics.median(calibrated(raw["walls"], raw["calibrations"])),
        "setup_s": statistics.median(calibrated(*setup)) * workloads.REFERENCE_CALIBRATION_S,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw) -> dict:
    """Median over the traced solves of each layer metric, missing ones
    left out."""
    missing = set(raw["missing"])
    out = {}
    for metric in layertrace.LAYER_METRICS:
        if metric in missing:
            continue
        if metric == "trace.overhead_s":
            out[metric] = (statistics.median(raw["traced_walls"])
                           - statistics.median(raw["walls"]))
        elif metric == "quality.cost_ratio":
            if raw["cost_ratios"]:
                out[metric] = statistics.median(raw["cost_ratios"])
        else:
            out[metric] = statistics.median(s.get(metric, 0) for s in raw["layers"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ckmeans" / "__init__.py").is_file():
        print(f"perfbench: no ckmeans sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps its children on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = time.perf_counter()
    w = workloads.WORKLOADS[args.workload]
    env = child_env()
    setup = measure_setup(env)
    budget = RUN_LIMIT_S - (time.perf_counter() - t_start)
    raw = run_child(w.name, args.seed, args.seconds, args.trace, env, budget)

    info = machine_info()
    print(f"workload {w.name}: n={w.n} d={workloads.DIM} groups={workloads.GROUPS}; {w.why}")
    print("flags: " + " ".join(w.cli_argv("<input.csv>", "<out>") if w.cli
                               else ["full_pipeline", "block=256", "k=3", *w.variant_flags(),
                                     *workloads.SOLVER_FLAGS, "--budget", str(w.budget),
                                     "--seed", str(workloads.SOLVER_SEED)]))
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"solves: {raw['attempted']} attempted, {raw['failed']} failed "
          f"(failed_frac {raw['failed'] / raw['attempted']:.4f}); "
          f"{len(raw['walls'])} untraced, {len(raw['traced_walls'])} traced")
    print("wall samples (s): " + " ".join(f"{x:.4f}" for x in raw["walls"] + raw["traced_walls"]))
    for p in raw["problems"]:
        print(f"check failed: {p}")

    if args.trace:
        values = per_layer(raw)
        units = {m: spec[0] for m, spec in layertrace.LAYER_METRICS.items()}
        for m in raw["missing"]:
            print(f"missing: {m} (its hooked function no longer exists)")
        print(f"spans: {raw['spans_file']}")
    else:
        values = end_to_end(raw, setup)
        units = E2E_UNITS
        print(f"wall_s: {statistics.median(raw['walls']):.6f} s (median wall time of one "
              f"solve over {len(raw['walls'])} solves; host drift moves it, see wall_cal)")
        print(f"setup, raw: {statistics.median(setup[0]):.6f} s (median of {SETUP_REPEATS}; "
              f"setup_s scales it to a host where the calibration takes "
              f"{workloads.REFERENCE_CALIBRATION_S} s)")
        if raw["cost_ratios"]:
            print(f"cost_ratio: {statistics.median(raw['cost_ratios']):.6f} "
                  "(emitted cost / planted cost; per-layer metric quality.cost_ratio)")
        tail = tail_percentile(raw["walls"])
        if tail is not None:
            print(f"wall_s_tail: p{tail[0]} = {tail[1]:.6f} s")
    for m, v in values.items():
        print(f"{m}: {v:.6g} {units[m]}")

    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
