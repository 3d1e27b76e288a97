"""End-to-end command-line behavior: round trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckmeans
from ckmeans.cli import _dump, _jsonable, main
from ckmeans.data import Dataset, read_dataset_csv
from ckmeans.listgen import GoodCentersConfig
from ckmeans import partition
from ckmeans.partition import Variant, partition_cost
from ckmeans.streaming import CSVSource, batch_solve


def run(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse-level rejections
        return int(exc.code)


def gen(tmp_path, *extra, kind="duplicates", n=18, seed=0, name="data.csv"):
    out = tmp_path / name
    info = tmp_path / (name + ".info.json")
    argv = ["gen", "--kind", kind, "--n", n, "--out", out, "--info", info]
    if kind != "gap":
        argv += ["--seed", seed]
    assert run(*argv, *extra) == 0
    return out, json.loads(info.read_text())


SMALL = ["--eta", "4", "--tau", "2", "--reps", "2", "--budget", "40"]


# gen -------------------------------------------------------------------------

def test_gen_writes_csv_and_ground_truth(tmp_path):
    out, info = gen(tmp_path, "--groups", "3")
    ds = read_dataset_csv(out)
    assert ds.n == 18 and ds.dim == 2
    assert info["kind"] == "duplicate-groups"
    assert len(info["labels"]) == 18


def test_gen_gap_sidecar_carries_exact_facts(tmp_path):
    out, info = gen(tmp_path, kind="gap", n=8)
    ds = read_dataset_csv(out)
    assert ds.n == 8 and ds.dim == 9
    assert info["opt_cost"] == 6.0 and info["opt_cost_exact"] == "6"
    assert info["merged_cost"] == pytest.approx(8.16)
    assert info["merged_cost_exact"] == "204/25"
    assert info["labels"] == [0] * 4 + [1] * 4
    assert info["beta_witness"] == 0.5


def test_gen_random_kind_requires_seed(tmp_path):
    code = run("gen", "--kind", "gaussian", "--n", "12",
               "--out", tmp_path / "x.csv")
    assert code == 3


def test_gen_colors_and_targets(tmp_path):
    out, _ = gen(tmp_path, "--colors", "2", "--targets-from-labels")
    ds = read_dataset_csv(out)
    assert ds.colors is not None and set(ds.colors) == {0, 1}
    assert ds.targets is not None
    # uniform data has no planted labels to turn into targets
    code = run("gen", "--kind", "uniform", "--n", "10", "--seed", "1",
               "--targets-from-labels", "--out", tmp_path / "u.csv")
    assert code == 3


@pytest.mark.parametrize("kind,extra,why", [
    ("gaussian", ["--dim", "0"], "need dim >= 1"),
    ("duplicates", ["--dim", "0"], "need dim >= 1"),
    ("grid", ["--dim", "0"], "need dim >= 1"),
    ("grid", ["--groups", "0"], "need 1 <= g <= n"),
    ("grid", ["--n", "2", "--groups", "5"], "need 1 <= g <= n"),
    ("uniform", ["--n", "0"], "need n >= 1 and dim >= 1"),
    ("uniform", ["--dim", "0"], "need n >= 1 and dim >= 1"),
])
def test_gen_rejects_empty_shapes(tmp_path, capsys, kind, extra, why):
    out = tmp_path / "x.csv"
    assert run("gen", "--kind", kind, "--n", "6", *extra, "--seed", "1",
               "--out", out) == 3
    assert why in capsys.readouterr().err
    assert not out.exists()


# solve -----------------------------------------------------------------------

def test_solve_round_trip_files_and_schema(tmp_path):
    data, _ = gen(tmp_path)
    prefix = tmp_path / "run"
    code = run("solve", data, "--k", "3", "--seed", "5", *SMALL,
               "--out", prefix, "--candidates", tmp_path / "cands.csv")
    assert code == 0
    summary = json.loads(Path(str(prefix) + ".json").read_text())
    for key in ["command", "n", "dim", "k", "variant", "params", "cost",
                "flow_cost", "seed_cost", "selected", "list_size", "centers",
                "owners"]:
        assert key in summary, key
    assert summary["command"] == "solve" and summary["n"] == 18
    assert len(summary["owners"]) == 18
    centers = read_dataset_csv(str(prefix) + ".centers.csv")
    assert centers.points.shape == (3, 2)
    lines = Path(str(prefix) + ".assign.csv").read_text().splitlines()
    assert lines[0] == "point,owners"
    assert len(lines) == 19
    assert (tmp_path / "cands.csv").exists()


def test_solve_same_seed_is_byte_identical(tmp_path):
    data, _ = gen(tmp_path)
    outs = []
    for name in ["a", "b"]:
        prefix = tmp_path / name
        assert run("solve", data, "--k", "3", "--seed", "11", *SMALL,
                   "--out", prefix) == 0
        outs.append({ext: Path(str(prefix) + ext).read_bytes()
                     for ext in [".json", ".centers.csv", ".assign.csv"]})
    assert outs[0] == outs[1]


def test_solve_constrained_variants_and_exit_codes(tmp_path):
    data, _ = gen(tmp_path)
    ok = run("solve", data, "--k", "3", "--seed", "2", *SMALL,
             "--variant", "r_gather", "--r", "6", "--out", tmp_path / "rg")
    assert ok == 0
    owners = json.loads((tmp_path / "rg.json").read_text())["owners"]
    counts = np.bincount([o[0] for o in owners], minlength=3)
    assert counts.min() >= 6
    # missing bound is a validation error, impossible bound is infeasible
    assert run("solve", data, "--k", "3", "--seed", "2", *SMALL,
               "--variant", "r_gather") == 3
    assert run("solve", data, "--k", "3", "--seed", "2", *SMALL,
               "--variant", "r_gather", "--r", "100") == 2


def test_solve_json_equals_batch_solve(tmp_path):
    # the CLI is flag parsing around the library's batch pipeline
    data, _ = gen(tmp_path, kind="gaussian", n=30)
    prefix = tmp_path / "one"
    assert run("solve", data, "--k", "3", "--seed", "9", *SMALL, "--variant", "r_gather",
               "--r", "8", "--select", "range", "--out", prefix) == 0
    summary = json.loads(Path(str(prefix) + ".json").read_text())
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=4, tau=2,
                            repetitions=2, subset_budget=40)
    res = batch_solve(read_dataset_csv(data), 3, Variant.r_gather(8), cfg,
                      np.random.default_rng(9), select_mode="range")
    assert summary["centers"] == res.centers.tolist()
    assert summary["owners"] == [list(own) for own in res.owners]
    for key in ("cost", "flow_cost", "selected", "list_size"):
        assert summary[key] == getattr(res, key), key


def test_solve_and_stream_reject_fewer_points_than_k(tmp_path, capsys):
    data, _ = gen(tmp_path, kind="gaussian", n=60)
    for command in ("solve", "stream"):
        assert run(command, data, "--k", "70", "--seed", "0", *SMALL) == 3
        assert "stream has 60 points, need at least k=70" in capsys.readouterr().err


def _assert_t_flag_rejected(tmp_path, capsys, t):
    # t must equal k, so there is no flag for it; nor may --t abbreviate --tau
    data, _ = gen(tmp_path, kind="gaussian", n=60)
    for command in ("solve", "stream"):
        prefix = tmp_path / command
        assert run(command, data, "--k", "3", "--t", t, "--seed", "1", *SMALL,
                   "--out", prefix) == 3
        assert f"unrecognized arguments: --t {t}" in capsys.readouterr().err
        assert not list(tmp_path.glob(command + "*"))


def test_solve_and_stream_have_no_t_flag(tmp_path, capsys):
    _assert_t_flag_rejected(tmp_path, capsys, "3")


def test_solve_and_stream_reject_t_above_k(tmp_path, capsys):
    _assert_t_flag_rejected(tmp_path, capsys, "5")


def test_solve_and_stream_reject_t_below_k(tmp_path, capsys):
    _assert_t_flag_rejected(tmp_path, capsys, "2")


@pytest.mark.parametrize("k", ["0", "-2"])
def test_solve_and_stream_name_k_below_one(tmp_path, capsys, k):
    data, _ = gen(tmp_path, kind="gaussian", n=60)
    for command in ("solve", "stream"):
        assert run(command, data, "--k", k, "--seed", "1", *SMALL) == 3
        assert f"--k must be >= 1, got {k}" in capsys.readouterr().err


def test_validation_error_leaves_no_output_files(tmp_path):
    data, _ = gen(tmp_path)
    prefix = tmp_path / "nope"
    assert run("solve", data, "--k", "3", "--seed", "2", *SMALL,
               "--variant", "r_gather", "--out", prefix) == 3
    assert not list(tmp_path.glob("nope*"))


def test_missing_input_file_is_io_error(tmp_path):
    assert run("solve", tmp_path / "ghost.csv", "--k", "2", "--seed", "0") == 4


def test_unknown_flag_is_validation_error(tmp_path):
    data, _ = gen(tmp_path)
    assert run("solve", data, "--k", "3", "--seed", "0", "--bogus") == 3


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_coordinate_is_validation_error(tmp_path, capsys, bad):
    data, _ = gen(tmp_path)
    lines = data.read_text().splitlines()
    lines[4] = f"{bad},{lines[4].split(',')[1]}"
    data.write_text("\n".join(lines) + "\n")
    for argv in (["solve", data, "--k", "3", "--seed", "0", *SMALL],
                 ["stream", data, "--k", "3", "--seed", "0", *SMALL]):
        assert run(*argv) == 3
        assert f"{data}:5: non-finite coordinate" in capsys.readouterr().err
    with pytest.raises(ValueError, match="point 1 has a non-finite"):
        Dataset(np.array([[0.0, 1.0], [float(bad), 0.0]]))


@pytest.mark.parametrize("variant,params", [("classical", []), ("r_gather", ["--r", "2"]),
                                            ("fault_tolerant", ["--l", "2"])],
                         ids=["classical", "r_gather", "fault_tolerant"])
def test_partition_rejects_an_overflowing_distance(tmp_path, capsys, variant, params):
    # 30 points near the origin, 30 at (1e200, 1e200): every squared
    # distance between the two groups overflows float64, which is invalid
    # input, not an edge to leave out
    rng = np.random.default_rng(3)
    data, centers = tmp_path / "far.csv", tmp_path / "far.centers.csv"
    near = [f"{x!r},{y!r}" for x, y in rng.normal(size=(30, 2)).tolist()]
    data.write_text("\n".join(["x0,x1", *near, *["1e200,1e200"] * 30]) + "\n")
    centers.write_text("x0,x1\n0.0,0.0\n1e200,1e200\n")
    assert run("partition", data, "--centers", centers, "--variant", variant, *params,
               "--out", tmp_path / "out") == 3
    assert "a squared distance overflows float64" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


# stream ------------------------------------------------------------------------

def test_stream_summary_reports_passes_and_space(tmp_path):
    data, _ = gen(tmp_path, n=30)
    prefix = tmp_path / "st"
    assert run("stream", data, "--k", "3", "--seed", "4", *SMALL,
               "--block", "8", "--out", prefix) == 0
    summary = json.loads(Path(str(prefix) + ".json").read_text())
    assert summary["passes"] == 4 and summary["d_star"] is None
    assert summary["space"]["peak_points"] > 0
    assert [p["name"] for p in summary["space"]["phases"]] == \
        ["seed", "sample", "graph", "assign"]
    prefix2 = tmp_path / "st5"
    assert run("stream", data, "--k", "3", "--seed", "4", *SMALL,
               "--block", "8", "--aspect-removal", "--out", prefix2) == 0
    summary2 = json.loads(Path(str(prefix2) + ".json").read_text())
    assert summary2["passes"] == 5 and summary2["d_star"] is not None


def test_stream_rejects_paper_preset_and_chromatic(tmp_path, capsys):
    data, _ = gen(tmp_path, n=30)
    # rejected by the stream's list generation before any pass
    assert run("stream", data, "--k", "3", "--seed", "4", "--preset", "formula",
               "--out", tmp_path / "out") == 3
    assert "needs the desk preset" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))
    # also where the formula's own defaults are beyond int64
    assert run("stream", data, "--k", "3", "--seed", "4", "--preset", "formula",
               "--list-alpha", "inf") == 3
    assert "needs the desk preset" in capsys.readouterr().err
    assert run("stream", data, "--k", "3", "--seed", "4", *SMALL,
               "--variant", "chromatic") == 3
    for block in ("0", "-5"):
        assert run("stream", data, "--k", "3", "--seed", "4", *SMALL, "--block", block) == 3
        assert f"block must be >= 1, got {block}" in capsys.readouterr().err


# partition ----------------------------------------------------------------------

def test_partition_against_fixed_centers(tmp_path):
    data, _ = gen(tmp_path)
    prefix = tmp_path / "run"
    assert run("solve", data, "--k", "3", "--seed", "5", *SMALL,
               "--out", prefix) == 0
    code = run("partition", data, "--centers", str(prefix) + ".centers.csv",
               "--variant", "r_capacity", "--r", "12", "--out", tmp_path / "pa")
    assert code == 0
    summary = json.loads((tmp_path / "pa.json").read_text())
    counts = np.bincount([o[0] for o in summary["owners"]], minlength=3)
    assert counts.max() <= 12
    assert summary["cost"] == summary["flow_cost"]


def test_partition_solves_once(tmp_path, monkeypatch):
    data, _ = gen(tmp_path)
    centers, _ = gen(tmp_path, kind="uniform", n=3, name="centers.csv")
    calls = []
    solve = partition._solve_left
    monkeypatch.setattr(partition, "_solve_left", lambda *a: calls.append(1) or solve(*a))
    assert run("partition", data, "--centers", centers, "--variant", "r_gather",
               "--r", "4", "--out", tmp_path / "pa") == 0
    assert len(calls) == 1
    summary = json.loads((tmp_path / "pa.json").read_text())
    assert summary["flow_cost"] == partition_cost(
        read_dataset_csv(data), read_dataset_csv(centers).points, Variant.r_gather(4))


def test_partition_rejects_decorated_centers(tmp_path):
    data, _ = gen(tmp_path, "--colors", "2")
    colored, _ = gen(tmp_path, "--colors", "2", n=3, name="centers.csv")
    assert run("partition", data, "--centers", colored) == 3


def test_partition_rejects_dimension_mismatch(tmp_path):
    data, _ = gen(tmp_path)
    other, _ = gen(tmp_path, kind="gap", n=4, name="gap.csv")
    assert run("partition", data, "--centers", other) == 3


# verify ---------------------------------------------------------------------------

def test_verify_gap_instance_checks(tmp_path):
    data, info = gen(tmp_path, kind="gap", n=8, name="gap.csv")
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(info["labels"]))
    out = tmp_path / "rep"
    code = run("verify", data, "--k", "2", "--labels", labels,
               "--beta", "0.5", "--irreducible", "0.1", "--out", out)
    assert code == 0
    rep = json.loads(Path(str(out) + ".json").read_text())
    assert rep["passed"] is True
    assert rep["checks"]["beta_distributed"]["margin"] == pytest.approx(0.86)
    # the deletion margin is only 0.36, so gamma = 0.5 must fail
    code = run("verify", data, "--k", "2", "--labels", labels,
               "--weak-deletion", "0.5", "--out", out)
    assert code == 2
    rep = json.loads(Path(str(out) + ".json").read_text())
    assert rep["passed"] is False
    assert rep["checks"]["weak_deletion"]["passed"] is False
    assert rep["checks"]["weak_deletion"]["margin"] == pytest.approx(0.36)


def test_verify_sidecar_doubles_as_labels_file(tmp_path):
    data, _ = gen(tmp_path, kind="gap", n=8, name="gap.csv")
    sidecar = tmp_path / "gap.csv.info.json"
    assert run("verify", data, "--labels", sidecar, "--beta", "0.5") == 0


def test_verify_requires_a_check_and_k_for_oracle(tmp_path):
    data, _ = gen(tmp_path, n=8)
    assert run("verify", data) == 3
    assert run("verify", data, "--beta", "0.5") == 3  # no labels, no --k
    assert run("verify", data, "--beta", "0.5", "--k", "3") in (0, 2)


def test_verify_oracle_limit_exit_code(tmp_path):
    data, _ = gen(tmp_path, kind="uniform", n=60, name="big.csv")
    assert run("verify", data, "--k", "2", "--irreducible", "0.1") == 5


def test_stdout_mode_prints_single_json_document(tmp_path, capsys):
    data, info = gen(tmp_path, kind="gap", n=8, name="gap.csv")
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(info["labels"]))
    assert run("verify", data, "--labels", labels, "--beta", "0.5") == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "verify" and parsed["passed"] is True


# README's exit-code paragraph, clause by clause ------------------------------------

def _edit_line(lineno, text):
    def edit(path):
        lines = path.read_text().splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
    return edit


def _edit_bytes(lineno, raw):
    def edit(path):
        lines = path.read_bytes().splitlines()
        lines[lineno - 1] = raw
        path.write_bytes(b"\n".join(lines) + b"\n")
    return edit


def _color_column(lineno, value):
    # adds a color column of 0s, with `value` on line `lineno`
    def edit(path):
        header, *rows = path.read_text().splitlines()
        lines = [header + ",color"] + [row + ",0" for row in rows]
        lines[lineno - 1] = rows[lineno - 2] + "," + value
        path.write_text("\n".join(lines) + "\n")
    return edit


def _far_half(path):
    # moves the second half of the rows to (1e200, 1e200)
    lines = path.read_text().splitlines()
    half = (len(lines) + 1) // 2
    path.write_text("\n".join(lines[:half] + ["1e200,1e200"] * (len(lines) - half)) + "\n")


def _four_rows_two_far(path):
    # 4 rows, so --k 2 seeds on the points themselves and sums no distance
    path.write_text("x0,x1\n0,0\n0.5,0.1\n1e200,1e200\n1e200,1e200\n")


def _far_rows_then_bad_line(path):
    # lines 2-4 overflow the first chunk's distances; line 50 does not parse
    for lineno in (2, 3, 4):
        _edit_line(lineno, "1e200,1e200")(path)
    _edit_line(50, "abc,1")(path)


def _drop_last_row(path):
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def _append_last_row(path):
    text = path.read_text()
    path.write_text(text + text.splitlines()[-1] + "\n")


def _move_last_row(path):
    # every coordinate of the last row + 50
    *lines, last = path.read_text().splitlines()
    lines.append(",".join(repr(float(v) + 50) for v in last.split(",")))
    path.write_text("\n".join(lines) + "\n")


def _labels_file(labels):
    # writes {data}.labels.json beside the data file
    def edit(path):
        Path(f"{path}.labels.json").write_text(json.dumps(labels))
    return edit


# edit marker: the row runs the CLI in a child process under a timeout,
# so a command that never ends fails its row instead of hanging the run
IN_CHILD = "in a child process"
CHILD_TIMEOUT_S = 60


def _run_in_child(argv):
    src = str(Path(ckmeans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys; from ckmeans.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return done.returncode, done.stderr


def _rewrite_on_pass(monkeypatch, path, pass_no, edit):
    # applies edit to the data file as pass pass_no opens it
    blocks = CSVSource._blocks

    def rewriting(self):
        if self.passes == pass_no:
            edit(path)
        return blocks(self)
    monkeypatch.setattr(CSVSource, "_blocks", rewriting)


EXIT_CLAUSES = [
    # (clause, command, extra argv, edit of the data file, what stderr names)
    ("non-finite coordinate", "solve", [], _edit_line(5, "nan,1"), "{data}:5: non-finite coordinate"),
    ("non-finite coordinate", "stream", [], _edit_line(40, "1,inf"),
     "{data}:40: non-finite coordinate"),
    ("wrong field count", "solve", [], _edit_line(7, "1,2,3"), "{data}:7: expected 2 fields, got 3"),
    ("wrong field count", "stream", [], _edit_line(61, "1"), "{data}:61: expected 2 fields, got 1"),
    ("color or target beyond int64", "solve", [], _color_column(9, "99999999999999999999"),
     "{data}:9: colors must be below 2**63"),
    ("color or target beyond int64", "stream", [], _color_column(50, str(2**63)),
     "{data}:50: colors must be below 2**63"),
    ("field past csv's size limit", "solve", [], _edit_line(12, "0" * 140_000 + "1,2"),
     "{data}:12: field larger than field limit (131072)"),
    ("field past csv's size limit", "stream", [], _edit_line(33, "0" * 140_000 + "1,2"),
     "{data}:33: field larger than field limit (131072)"),
    ("invalid UTF-8", "solve", [], _edit_bytes(20, b"1,\xff"), "{data}:20: not valid UTF-8"),
    ("invalid UTF-8", "stream", [], _edit_bytes(61, b"\xc3(,1"), "{data}:61: not valid UTF-8"),
    # the quoted field opened on line 40 runs into the undecodable line 41
    ("quoted field into invalid UTF-8", "stream", [], _edit_bytes(40, b'"1\n\xff,2'),
     "{data}:41: not valid UTF-8"),
    ("--k below 1", "solve", ["--k", "0"], None, "--k must be >= 1, got 0"),
    ("--k below 1", "stream", ["--k", "0"], None, "--k must be >= 1, got 0"),
    ("fewer rows than --k", "solve", ["--k", "70"], None, "stream has 60 points, need at least k=70"),
    ("fewer rows than --k", "stream", ["--k", "70"], None,
     "stream has 60 points, need at least k=70"),
    ("--block below 1", "stream", ["--block", "0"], None, "block must be >= 1, got 0"),
    ("--bits outside 1..62", "solve", ["--bits", "63"], None, "precision_bits out of range"),
    ("--bits outside 1..62", "stream", ["--bits", "0"], None, "precision_bits out of range"),
    ("abbreviated flag", "stream", ["--bloc", "8"], None, "unrecognized arguments: --bloc 8"),
    ("abbreviated flag", "solve", ["--sel", "range"], None, "unrecognized arguments: --sel range"),
    ("source changed between passes", "stream", [], (2, _drop_last_row),
     "stream changed between passes: pass 2 read 59 rows against 60"),
    # the assign pass peels owners before the pass's end compares fingerprints
    ("append before pass 4", "stream", [], (4, _append_last_row),
     "stream changed between passes: pass 4 read 61 rows against 60"),
    ("move before pass 4", "stream", [], (4, _move_last_row),
     "stream changed between passes: pass 4 read other values in its 60 rows"),
    ("squared distance overflows", "solve", [], _far_half, "a squared distance overflows float64"),
    ("squared distance overflows", "stream", [], _far_half, "a squared distance overflows float64"),
    ("squared distance overflows, at most 2k rows", "stream", ["--k", "2"], _four_rows_two_far,
     "a squared distance overflows float64"),
    # the seed pass seeds the chunks it holds before a read error surfaces
    ("squared distance overflows before a bad line", "stream",
     ["--block", "8", "--chunk", "10"], _far_rows_then_bad_line,
     "a squared distance overflows float64"),
    # SMALL gives --eta, --tau and --reps, so the anchor copies overflow
    ("preset default beyond int64", "solve", ["--preset", "formula", "--epsilon", "1e-100"], None,
     "the formula preset's anchor_copies is not a finite integer within int64"),
    ("preset default beyond int64", "stream", ["--epsilon", "1e-100"], None,
     "the desk preset's anchor_copies is not a finite integer within int64"),
    # the formula's own eta, tau and repetitions at epsilon 1e-3, in
    # place of SMALL's: the exact tuple count has millions of digits
    ("formula preset list over the enumeration guard", "solve",
     ["--preset", "formula", "--epsilon", "1e-3", "--eta", "393216000000000000",
      "--tau", "128000", "--reps", "8"], IN_CHILD,
     "formula preset would enumerate more tuples than the guard of 200000"),
    ("NaN --list-alpha", "solve", ["--list-alpha", "nan"], None,
     "alpha is an approximation factor, need alpha >= 1"),
    ("NaN --list-alpha", "stream", ["--list-alpha", "nan"], None,
     "alpha is an approximation factor, need alpha >= 1"),
    # verify reads the planted labels from gen's sidecar
    ("NaN --beta", "verify", ["--labels", "{data}.info.json", "--beta", "nan"], None,
     "beta must be non-negative, got nan"),
    ("NaN --weak-deletion", "verify", ["--labels", "{data}.info.json", "--weak-deletion", "nan"],
     None, "gamma must be non-negative, got nan"),
    ("NaN --irreducible", "verify", ["--k", "2", "--irreducible", "nan"], None,
     "gamma must be non-negative, got nan"),
    # without --labels the flags are checked before a labeling is brute-forced,
    # which 60 points would take past the oracle limit (exit 5)
    ("NaN --beta without --labels", "verify", ["--k", "2", "--beta", "nan"], None,
     "beta must be non-negative, got nan"),
    ("negative --weak-deletion without --labels", "verify",
     ["--k", "2", "--weak-deletion", "-1"], None, "gamma must be non-negative, got -1.0"),
    ("fractional labels", "verify", ["--labels", "{data}.labels.json", "--beta", "0.5"],
     _labels_file([0.4] * 30 + [1.9] * 30),
     "{data}.labels.json: labels must be JSON integers within int64"),
    ("boolean labels", "verify", ["--labels", "{data}.labels.json", "--beta", "0.5"],
     _labels_file([False] * 30 + [True] * 30),
     "{data}.labels.json: labels must be JSON integers within int64"),
    ("labels beyond int64", "verify", ["--labels", "{data}.labels.json", "--beta", "0.5"],
     _labels_file([0] * 30 + [2**63] * 30),
     "{data}.labels.json: labels must be JSON integers within int64"),
]


@pytest.mark.parametrize("clause,command,extra,edit,names", EXIT_CLAUSES,
                         ids=[f"{c[1]}: {c[0]}" for c in EXIT_CLAUSES])
def test_exit_code_paragraph(tmp_path, capsys, monkeypatch, clause, command, extra, edit,
                             names):
    data, _ = gen(tmp_path, kind="gaussian", n=60)
    if isinstance(edit, tuple):
        _rewrite_on_pass(monkeypatch, data, *edit)
    elif edit not in (None, IN_CHILD):
        edit(data)
    solver = [] if command == "verify" else ["--k", "3", "--seed", "1", *SMALL]
    extra = [a.format(data=data) for a in extra]
    argv = [command, data, *solver, *extra, "--out", tmp_path / "out"]
    if edit == IN_CHILD:
        code, err = _run_in_child(argv)
    else:
        code, err = run(*argv), capsys.readouterr().err
    assert code == 3
    assert names.format(data=data) in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["solve", "stream"])
def test_an_overflowing_potential_sum_exits_3_without_a_warning(tmp_path, command):
    # every squared distance is finite and their sum is not; the child
    # prints numpy's warnings to its stderr, as a user's shell would
    X = np.random.default_rng(0).random((2000, 2)) * 1e153
    data = tmp_path / "data.csv"
    data.write_text("x0,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in X.tolist()))
    code, err = _run_in_child([command, data, "--k", "3", "--seed", "1",
                               "--out", tmp_path / "out"])
    assert code == 3
    assert "a squared distance overflows float64" in err
    assert "RuntimeWarning" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("bad", [["--variant", "bogus"], ["--k", "0"]],
                         ids=["rejected by the parser", "rejected after parsing"])
def test_a_call_after_one_that_exits_3_writes_what_it_writes_alone(tmp_path, bad):
    # the process builds its parser once; a failed call must leave it as built
    data, _ = gen(tmp_path, kind="gaussian", n=60)
    argv = ["stream", data, "--k", "3", "--seed", "1", *SMALL, "--variant", "fault_tolerant",
            "--l", "2"]
    assert run(*argv, *bad, "--out", tmp_path / "bad") == 3
    assert run(*argv, "--out", tmp_path / "after") == 0
    assert _run_in_child([*argv, "--out", tmp_path / "alone"])[0] == 0
    after = sorted(tmp_path.glob("after*"))
    assert len(after) == 3 and not list(tmp_path.glob("bad*"))
    for path in after:
        alone = tmp_path / path.name.replace("after", "alone", 1)
        assert path.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("extra,name", [
    (["--list-alpha", "inf"], "eta"),
    (["--epsilon", "1e-100"], "eta"),
    (["--epsilon", "1e-100", "--eta", "4"], "tau"),
])
def test_exit_code_paragraph_formula_defaults(tmp_path, capsys, extra, name):
    # without SMALL's knobs the formula preset computes eta and tau itself
    data, _ = gen(tmp_path, kind="gaussian", n=60)
    assert run("solve", data, "--k", "3", "--seed", "1", "--preset", "formula", *extra,
               "--out", tmp_path / "out") == 3
    assert f"the formula preset's {name} is not a finite integer within int64" in \
        capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_desk_preset_runs_at_list_alpha_inf(tmp_path):
    data, _ = gen(tmp_path, kind="gaussian", n=60)
    assert run("solve", data, "--k", "3", "--seed", "1", *SMALL, "--list-alpha", "inf",
               "--out", tmp_path / "out") == 0
    assert json.loads((tmp_path / "out.json").read_text())["params"]["alpha"] == "inf"


def test_exit_code_paragraph_gen_dim_zero(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run("gen", "--kind", "gaussian", "--n", "6", "--dim", "0", "--seed", "1",
               "--out", out, "--info", tmp_path / "g.json") == 3
    assert "need dim >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("eps", ["1/0", "1e400", "1e200"])
def test_exit_code_paragraph_gen_gap_eps_beyond_float64(tmp_path, capsys, eps):
    assert run("gen", "--kind", "gap", "--n", "8", "--gap-eps", eps,
               "--out", tmp_path / "g.csv", "--info", tmp_path / "g.json") == 3
    assert f"--gap-eps must be a fraction like 1/10 whose gap instance fits float64, " \
           f"got {eps!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_dump_matches_json_indent_path():
    owners = [(0,), (2,), (0,), (1, 2), ()]
    summary = {"owners": owners, "space": {"owners": []}, "centers": np.eye(2),
               "cost": float("inf"), "n": 5}
    want = json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n"
    assert _dump(summary) == want
    assert _dump({**summary, "owners": []}) == \
        json.dumps(_jsonable({**summary, "owners": []}), sort_keys=True, indent=2) + "\n"
