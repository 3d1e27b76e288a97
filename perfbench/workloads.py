"""Workload definitions, input generation, output checks and the
calibration task.

Numpy and the standard library only: nothing here imports ckmeans, so
the inputs a seed produces, the checks an output must pass and the
calibration task cannot change with the program under test.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import time
from dataclasses import dataclass

import numpy as np

GROUPS = 3          # planted gaussian groups, and the k every workload asks for
DIM = 2
SIGMA = 0.05        # per-coordinate spread of a group around its site
SPREAD = 10.0       # length scale of the site layout
SITES = SPREAD * np.array([[0.0, 0.0], [15.0, 0.0], [4.0, 11.0]])
DESK = {"eta": 16, "tau": 1, "reps": 2}    # candidate-list knobs every workload uses
SOLVER_FLAGS = [arg for k, v in DESK.items() for arg in (f"--{k}", str(v))]
SOLVER_SEED = 1     # part of the program's flags; the workload seed only makes inputs
REFERENCE_CALIBRATION_S = 0.09  # calibrate() on the 2-core Xeon host the baseline used


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    variant: str            # classical | r_gather | fault_tolerant
    budget: int             # candidate tuples per repetition (2 repetitions)
    r: int | None = None
    l: int | None = None
    cli: str | None = None  # CLI subcommand, or None for the library call
    aspect_removal: bool = False
    why: str = ""

    @property
    def owners_per_point(self) -> int:
        return self.l if self.variant == "fault_tolerant" else 1

    @property
    def expected_passes(self) -> int | None:
        if self.cli == "solve":
            return None
        return 5 if self.aspect_removal else 4

    def variant_flags(self) -> list[str]:
        out = ["--variant", self.variant]
        if self.r is not None:
            out += ["--r", str(self.r)]
        if self.l is not None:
            out += ["--l", str(self.l)]
        return out

    def cli_argv(self, csv_path: str, out_prefix: str) -> list[str]:
        argv = [self.cli, csv_path, "--k", str(GROUPS), *self.variant_flags(),
                *SOLVER_FLAGS, "--budget", str(self.budget), "--seed", str(SOLVER_SEED)]
        if self.aspect_removal:
            argv.append("--aspect-removal")
        return argv + ["--out", out_prefix]


# Sizes keep one solve near 1 s on a 2-core Xeon at 2.1 GHz, so a 30 s run
# takes a median over 15 to 30 solves: the shared host's speed drifts by up
# to 1.6x over tens of seconds, and a median of three long solves does not
# hold still.
WORKLOADS = {
    w.name: w for w in (
        Workload("batch-gather", n=200, variant="r_gather", r=50, budget=10, cli="solve",
                 why="`ckmeans solve` n=200 d=2 --k 3 --variant r_gather --r 50 --eta 16 "
                     "--tau 1 --reps 2 --budget 10: the exact-flow path; never touches "
                     "hyperbucket or CSV streaming"),
        Workload("stream-classical", n=20_000, variant="classical", budget=4,
                 why="full_pipeline(ArraySource n=20000 d=2 block=256, k=3, classical, "
                     "eta=16 tau=1 reps=2 budget=4): compression-bound, no CSV and no "
                     "CLI in the path"),
        Workload("cli-stream-aspect", n=6_250, variant="fault_tolerant", l=2, budget=5,
                 cli="stream", aspect_removal=True,
                 why="`ckmeans stream` n=6250 d=2 --k 3 --variant fault_tolerant --l 2 "
                     "--aspect-removal --eta 16 --tau 1 --reps 2 --budget 5: tiny flows, "
                     "CSV parsing, memory"),
    )
}


@dataclass
class Inputs:
    points: np.ndarray      # (n, DIM) float64
    labels: np.ndarray      # (n,) planted group per point, non-decreasing


def make_inputs(n: int, seed: int) -> Inputs:
    """GROUPS tight gaussian groups, stored group after group (the layout
    `ckmeans gen --kind gaussian` writes).  The sites form one fixed
    triangle that the seed rotates and moves, so every seed poses the
    same distance structure and only the noise and placement differ."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    sites = SITES @ rot.T + rng.uniform(0.0, 30 * SPREAD, size=DIM)
    labels = np.sort(np.arange(n) % GROUPS)
    points = sites[labels] + rng.normal(0.0, SIGMA, size=(n, DIM))
    return Inputs(points, labels)


def csv_bytes(points: np.ndarray) -> bytes:
    """Dataset CSV with shortest round-trip floats, so parsing it gives
    back exactly `points`."""
    header = ",".join(f"x{i}" for i in range(points.shape[1]))
    rows = (",".join(repr(float(v)) for v in row) for row in points)
    return ("\n".join([header, *rows]) + "\n").encode()


def reference_cost(w: Workload, inputs: Inputs) -> float:
    """Cost of the planted clustering under the workload's variant: each
    point pays its group's centroid, or its l nearest planted centroids
    for fault_tolerant."""
    P, lab = inputs.points, inputs.labels
    mu = np.stack([P[lab == g].mean(axis=0) for g in range(GROUPS)])
    sq = ((P[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
    if w.variant == "fault_tolerant":
        return float(np.sort(sq, axis=1)[:, :w.l].sum())
    return float(sq[np.arange(len(P)), lab].sum())


def assignment_cost(points: np.ndarray, centers: np.ndarray, owners: np.ndarray) -> float:
    diff = points[:, None, :] - centers[owners]
    return float((diff * diff).sum())


def check_output(w: Workload, points: np.ndarray, owners, centers, cost,
                 passes=None) -> tuple[list[str], float | None]:
    """Problems with one emitted solution, and its cost recomputed from
    owners and centers (None when the owners are malformed)."""
    n = len(points)
    want = w.owners_per_point
    if len(owners) != n:
        return [f"{len(owners)} owner tuples for {n} points"], None
    if any(len(own) != want for own in owners):
        return [f"owner tuples must hold {want} centers each"], None
    O = np.asarray(owners, dtype=np.int64).reshape(n, want)
    C = np.asarray(centers, dtype=np.float64)
    problems = []
    if C.shape != (GROUPS, points.shape[1]):
        return [f"centers have shape {C.shape}"], None
    if O.min() < 0 or O.max() >= GROUPS:
        return ["owner index out of range"], None
    if want > 1 and np.any(np.diff(O, axis=1) <= 0):
        problems.append("owner tuples not sorted and distinct")
    if w.variant == "r_gather":
        counts = np.bincount(O.ravel(), minlength=GROUPS)
        if counts.min() < w.r:
            problems.append(f"r_gather counts {counts.tolist()} below r={w.r}")
    real = assignment_cost(points, C, O)
    if not (abs(float(cost) - real) <= 1e-9 * max(abs(real), 1e-300)):
        problems.append(f"reported cost {cost!r} != recomputed {real!r}")
    if w.expected_passes is not None and passes != w.expected_passes:
        problems.append(f"{passes} passes, expected {w.expected_passes}")
    return problems, real


def calibrate() -> float:
    """Wall seconds of a fixed task shaped like the program's work: heap
    traffic (flow), tuple keys counted in a dict (bucketing), CSV parsing
    and JSON output, small numpy distance blocks.  Timed before and after
    every solve, it tracks the host's current speed.  It keeps under 1 MB
    live, so it does not move peak_rss_mb."""
    t0 = time.perf_counter()
    heap = [((i * 7919) % 100_003, i) for i in range(2_000)]
    heapq.heapify(heap)
    for i in range(60_000):
        heapq.heappushpop(heap, ((i * 7919) % 100_003, i))
    counts = {}
    for i in range(60_000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    text = "\n".join(f"{i * 0.1!r},{i * 0.3!r}" for i in range(5_000))
    rows = [[float(v) for v in row] for row in csv.reader(io.StringIO(text))]
    json.dumps(rows)
    x = np.arange(512.0).reshape(256, 2)
    for _ in range(200):
        ((x[:, None, :] - x[None, :8, :]) ** 2).sum(axis=2).min(axis=1)
    return time.perf_counter() - t0
