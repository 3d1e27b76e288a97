"""A fixed matrix of `ckmeans` runs, each reduced to one digest line.

    PYTHONPATH=src python tests/cli_matrix.py > matrix.tsv

Every run goes through ckmeans.cli.main in this process, inside a fresh
temporary directory that holds the generated inputs, so no path in a
message or a file depends on where it runs.  For each run it prints
`name<TAB>digest`: a blake2b digest of the exit code, stdout, stderr
without the timing line, and every file the run wrote.  Run it on two
trees and `diff` the outputs to see which runs moved.  pytest does not
collect this file; `runs()` and `run()` can be imported to read one
run's outputs.

The matrix:
  - inputs: a 900-point gaussian CSV with 300 colors and planted
    targets, a 600-point d = 3 one with spread 1e6 and a 9,000-point
    one with planted targets, all written by `ckmeans gen`; a centers
    CSV of three rows of the first;
  - solve: six variants x argmin/range x --bits 8/32/62 x seeds 1-2,
    with --candidates;
  - solve at the desk defaults (no knob flags: 800 candidates, so the
    bounds run over many row blocks): classical, fault_tolerant and
    semi_supervised under argmin and range;
  - stream: five variants x aspect removal off/on x --block 7/64/256 x
    argmin/range;
  - partition: six variants;
  - on the d = 3 input: solve with five variants, and stream with five
    variants at --block 64 with aspect removal off and on, each under
    argmin and range;
  - infeasible r_gather(301) under solve and stream, argmin and range;
  - on the 9,000-point input: stream with five variants at --chunk 50
    and --block 64, under argmin and range.  Its 180 seed chunks span
    several stacked runs of chunks, and its sample pass several offers.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ckmeans.cli import main
from ckmeans.data import Dataset, read_dataset_csv, write_dataset_csv

KNOBS = ["--eta", "8", "--tau", "2", "--reps", "2", "--budget", "20"]
VARIANTS = {
    "classical": [],
    "r_gather": ["--r", "100"],
    "r_capacity": ["--r", "400"],
    "chromatic": [],
    "fault_tolerant": ["--l", "2"],
    "semi_supervised": ["--alpha", "0.5"],
}
STREAMED = [v for v in VARIANTS if v != "chromatic"]
DESK_SOLVED = ["classical", "fault_tolerant", "semi_supervised"]
# the 9,000-point input's variants: r_capacity gets room for every row
LONG = {**VARIANTS, "r_capacity": ["--r", "4500"]}
TIMING = re.compile(r"^ckmeans: \d+\.\d+s\n", re.MULTILINE)


def _variant(name, table=VARIANTS):
    return ["--variant", name, *table[name]]


# the `ckmeans gen` runs that write the inputs
INPUTS = [
    ["gen", "--kind", "gaussian", "--n", "900", "--groups", "3", "--colors", "300",
     "--targets-from-labels", "--seed", "3", "--out", "gauss.csv"],
    ["gen", "--kind", "gaussian", "--n", "600", "--groups", "3", "--dim", "3",
     "--spread", "1e6", "--targets-from-labels", "--seed", "5", "--out", "d3.csv"],
    ["gen", "--kind", "gaussian", "--n", "9000", "--groups", "3", "--targets-from-labels",
     "--seed", "7", "--out", "long.csv"],
]


def runs():
    """(name, argv) of the matrix's runs, in order; they write to `run*`."""
    out = []
    for v in VARIANTS:
        for mode in ("argmin", "range"):
            for bits in ("8", "32", "62"):
                for seed in ("1", "2"):
                    out.append((f"solve {v} {mode} bits={bits} seed={seed}",
                                ["solve", "gauss.csv", "--k", "3", "--seed", seed, *KNOBS,
                                 *_variant(v), "--select", mode, "--bits", bits,
                                 "--candidates", "run.cands.csv", "--out", "run"]))
    for v in DESK_SOLVED:
        for mode in ("argmin", "range"):
            out.append((f"solve desk {v} {mode}",
                        ["solve", "gauss.csv", "--k", "3", "--seed", "1", *_variant(v),
                         "--select", mode, "--out", "run"]))
    for v in STREAMED:
        for aspect in ((), ("--aspect-removal",)):
            for block in ("7", "64", "256"):
                for mode in ("argmin", "range"):
                    out.append((f"stream {v} aspect={bool(aspect)} block={block} {mode}",
                                ["stream", "gauss.csv", "--k", "3", "--seed", "1", *KNOBS,
                                 *_variant(v), *aspect, "--block", block, "--select", mode,
                                 "--out", "run"]))
    for v in VARIANTS:
        out.append((f"partition {v}", ["partition", "gauss.csv", "--centers", "centers.csv",
                                       *_variant(v), "--out", "run"]))
    for v in STREAMED:
        for mode in ("argmin", "range"):
            out.append((f"d3 solve {v} {mode}",
                        ["solve", "d3.csv", "--k", "3", "--seed", "1", *KNOBS, *_variant(v),
                         "--select", mode, "--out", "run"]))
            for aspect in ((), ("--aspect-removal",)):
                out.append((f"d3 stream {v} aspect={bool(aspect)} {mode}",
                            ["stream", "d3.csv", "--k", "3", "--seed", "1", *KNOBS,
                             *_variant(v), *aspect, "--block", "64", "--select", mode,
                             "--out", "run"]))
    for command in ("solve", "stream"):
        for mode in ("argmin", "range"):
            out.append((f"{command} r_gather(301) {mode}",
                        [command, "gauss.csv", "--k", "3", "--seed", "1", *KNOBS,
                         "--variant", "r_gather", "--r", "301", "--select", mode,
                         "--out", "run"]))
    for v in STREAMED:
        for mode in ("argmin", "range"):
            out.append((f"long stream {v} {mode}",
                        ["stream", "long.csv", "--k", "3", "--seed", "1", *KNOBS,
                         *_variant(v, LONG), "--chunk", "50", "--block", "64",
                         "--select", mode, "--out", "run"]))
    return out


def run(argv):
    """(exit code, stdout, stderr less its timing line, {file: bytes}) of
    one run in the current directory; the `run*` files it wrote are
    read and removed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-level rejections
            code = exc.code
    files = {}
    for path in sorted(Path().glob("run*")):
        files[path.name] = path.read_bytes()
        path.unlink()
    return code, stdout.getvalue(), TIMING.sub("", stderr.getvalue()), files


def digest(code, stdout, stderr, files):
    h = hashlib.blake2b(digest_size=16)
    for part in (str(code), stdout, stderr):
        h.update(part.encode() + b"\0")
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def write_centers():
    pts = read_dataset_csv("gauss.csv").points
    write_dataset_csv("centers.csv", Dataset(np.ascontiguousarray(pts[[0, 300, 600]])))


@contextlib.contextmanager
def workdir():
    """A fresh directory holding the matrix's inputs, as the cwd."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in INPUTS:
                code = run(argv)[0]
                if code != 0:
                    raise RuntimeError(f"{argv} exited {code}")
            write_centers()
            yield Path(tmp)
        finally:
            os.chdir(here)


def main_matrix():
    with workdir():
        for name in ("gauss.csv", "d3.csv", "long.csv", "centers.csv"):
            h = hashlib.blake2b(Path(name).read_bytes(), digest_size=16)
            print(f"input {name}\t{h.hexdigest()}")
        for name, argv in runs():
            print(f"{name}\t{digest(*run(argv))}", flush=True)


if __name__ == "__main__":
    sys.exit(main_matrix())
