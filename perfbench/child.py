"""One workload in one fresh process: a closed loop of solves.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR

Generates the inputs from SEED, then calls the public entry point
(`ckmeans.cli.main` or `ckmeans.streaming.full_pipeline`) one solve at
a time until SECONDS are used, checks every output, and prints one JSON
line of raw samples for run.py.  With TRACE=1 solves alternate between
untraced and traced, starting untraced, so the two medians give the
tracing overhead.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layertrace
import workloads

import ckmeans.cli
import ckmeans.streaming
from ckmeans.listgen import GoodCentersConfig
from ckmeans.partition import Variant

MIN_SOLVES = 3      # at least two repeats are needed for the determinism check


class Runner:
    """Solves one workload repeatedly and checks each output."""

    def __init__(self, w: workloads.Workload, seed: int, workdir: Path):
        self.w = w
        self.workdir = workdir
        self.inputs = workloads.make_inputs(w.n, seed)
        self.reference = workloads.reference_cost(w, self.inputs)
        self.csv = workdir / "input.csv"
        if w.cli is not None:
            self.csv.write_bytes(workloads.csv_bytes(self.inputs.points))
        self.first = None       # output of the first solve, for the determinism check

    def solve(self, i: int):
        """One timed call into the program; returns (opaque output, code)."""
        if self.w.cli is None:
            desk = workloads.DESK
            cfg = GoodCentersConfig(t=workloads.GROUPS, epsilon=0.5, preset="desk",
                                    eta=desk["eta"], tau=desk["tau"],
                                    repetitions=desk["reps"], subset_budget=self.w.budget)
            src = ckmeans.streaming.ArraySource(self.inputs.points, block=256)
            res = ckmeans.streaming.full_pipeline(
                src, workloads.GROUPS, Variant.classical(), cfg,
                np.random.default_rng(workloads.SOLVER_SEED))
            return res, 0
        prefix = str(self.workdir / f"out{i}")
        argv = self.w.cli_argv(str(self.csv), prefix)
        return prefix, ckmeans.cli.main(argv)

    def check(self, out, code) -> tuple[list[str], float | None]:
        """Output problems and the recomputed real cost."""
        if code != 0:
            return [f"exit code {code}"], None
        if self.w.cli is None:
            summary = {"owners": out.owners, "centers": out.centers, "cost": out.cost,
                       "passes": out.passes_used}
            fingerprint = (np.asarray(out.owners).tobytes(), out.centers.tobytes(),
                           float(out.cost))
        else:
            files = [Path(out + ext) for ext in (".json", ".centers.csv", ".assign.csv")]
            fingerprint = tuple(f.read_bytes() for f in files)
            for f in files:
                f.unlink()
            summary = json.loads(fingerprint[0])
        problems, real = workloads.check_output(
            self.w, self.inputs.points, summary["owners"], summary["centers"],
            summary["cost"], summary.get("passes"))
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            problems.append("output differs from the first solve of the same input")
        return problems, real


def main(argv) -> int:
    name, seed, seconds, traced, workdir = argv
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    runner = Runner(workloads.WORKLOADS[name], seed, Path(workdir))
    tracer = layertrace.Tracer() if traced else None
    walls = {False: [], True: []}
    cals = [workloads.calibrate()]    # cals[i] and cals[i + 1] bracket solve i
    ratios, problems = [], []
    attempted = failed = 0
    peak_rss_kb = None
    t_start = time.perf_counter()
    while True:
        use_trace = traced and attempted % 2 == 1
        if use_trace:
            tracer.begin_solve(attempted)
            tracer.install()
        t0 = time.perf_counter()
        try:
            if use_trace:
                out, code = tracer.call("bench.solve", None, runner.solve, (attempted,), {})
            else:
                out, code = runner.solve(attempted)
        except (Exception, SystemExit) as exc:  # a failing solve is counted, not fatal
            out, code = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if use_trace:
            tracer.uninstall()
        if peak_rss_kb is None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        cals.append(workloads.calibrate())
        attempted += 1
        walls[use_trace].append(wall)
        try:
            bad, real = runner.check(out, code) if out is not None else ([str(code)], None)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output
            bad, real = [f"{type(exc).__name__}: {exc}"], None
        if bad:
            failed += 1
            problems.extend(f"solve {attempted - 1}: {p}" for p in bad)
        else:
            ratios.append(real / runner.reference)
        elapsed = time.perf_counter() - t_start
        expected = statistics.median(walls[False] + walls[True]) + statistics.median(cals)
        if attempted >= MIN_SOLVES + traced and elapsed + expected > seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "walls": walls[False],
        "traced_walls": walls[True],
        "calibrations": cals,
        "cost_ratios": ratios,
        "peak_rss_kb": peak_rss_kb,
    }
    if traced:
        result["missing"] = tracer.missing_metrics()
        result["layers"] = [tracer.solve_metrics(i) for i in sorted(tracer.spans)]
        spans_path = Path(workdir).parent / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
