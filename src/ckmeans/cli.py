"""Command-line surface: gen / solve / stream / partition / verify.

Every command is deterministic given (input file, flags, seed): JSON is
emitted with sorted keys and timing goes to stderr only.

Exit codes: 0 success, 2 infeasible constraints or a failed verify
check, 3 validation, 4 I/O, 5 oracle limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from .data import (
    Dataset,
    duplicate_groups,
    gaussian_groups,
    grid_groups,
    random_uniform,
    read_dataset_csv,
    with_colors,
    with_targets,
    write_dataset_csv,
)
from .listgen import DESK_DEFAULTS, GoodCentersConfig
from .oracle import OracleLimit, OracleLimitError, opt_kmeans
from .partition import (
    VARIANT_KINDS,
    VARIANT_PARAMS,
    InfeasiblePartitionError,
    Variant,
    partition_assign,
)
from .stability import (
    check_beta_distributed,
    check_irreducible,
    check_non_negative,
    check_weak_deletion,
    gap_instance,
)
from .streaming import CSVSource, batch_solve, full_pipeline

RANDOM_KINDS = ("duplicates", "gaussian", "grid", "uniform")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: a removed flag must not turn into another
        # one (--t would read as --tau)
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse default exits 2; 2 means infeasible here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _dump(obj) -> str:
    """json.dumps(_jsonable(obj), sort_keys=True, indent=2) and a newline.
    json's indent path runs in Python per element, so a top-level
    "owners" (an owner array or its _OwnerRows) is spliced in from one
    text per distinct owner row."""
    owners = obj.get("owners")
    if owners is None:
        return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"
    text = json.dumps(_jsonable({**obj, "owners": []}), sort_keys=True, indent=2)
    if not len(owners):
        return text + "\n"
    listed = "[\n    " + ",\n    ".join(_OwnerRows.of(owners).texts(_owner_json)) + "\n  ]"
    return text.replace('\n  "owners": []', '\n  "owners": ' + listed, 1) + "\n"


def _owner_json(own) -> str:
    # an owner row as json's indent=2 writes it two levels deep
    return "[\n" + ",\n".join(f"      {j}" for j in own) + "\n    ]"


class _OwnerRows:
    """An (n, l) owner array's rows grouped by value once, for both
    writers: the solvers hand out a few distinct rows for all points.
    Rows are compared, not packed into one integer code, so any k and l
    fit."""

    def __init__(self, owners):
        order = np.lexsort(owners.T)
        S = owners[order]
        starts = np.ones(len(S), dtype=bool)
        starts[1:] = (S[1:] != S[:-1]).any(axis=1)
        which = np.empty_like(order)
        which[order] = np.cumsum(starts) - 1
        self.rows, self.which = S[starts].tolist(), which.tolist()

    @classmethod
    def of(cls, owners) -> "_OwnerRows":
        return owners if isinstance(owners, cls) else cls(owners)

    def __len__(self):
        return len(self.which)

    def texts(self, fmt) -> list[str]:
        """[fmt(row) for row in owners.tolist()], calling fmt once per
        distinct row."""
        text = [fmt(own) for own in self.rows]
        return [text[i] for i in self.which]


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        v = float(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    return v


def _write_text(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _emit(args, summary: dict) -> None:
    if getattr(args, "out", None):
        _write_text(args.out + ".json", _dump(summary))
    else:
        sys.stdout.write(_dump(summary))


def _write_assignment_csv(path, owners) -> None:
    cells = _OwnerRows.of(owners).texts(lambda own: ";".join(map(str, own)))
    _write_text(path, "point,owners\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells)))


def _variant_from(args) -> Variant:
    name = VARIANT_PARAMS[args.variant]
    if name is None:
        return Variant(args.variant)
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{args.variant} needs --{name}")
    return Variant(args.variant, **{name: value})


def _variant_summary(variant: Variant) -> dict:
    name = VARIANT_PARAMS[variant.kind]
    if name is None:
        return {"kind": variant.kind}
    return {"kind": variant.kind, name: getattr(variant, name)}


def _config_from(args) -> GoodCentersConfig:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    return GoodCentersConfig(t=args.k, epsilon=args.epsilon, alpha=args.list_alpha,
                             preset=args.preset, eta=args.eta, tau=args.tau,
                             repetitions=args.reps, subset_budget=args.budget,
                             anchor_copies=args.anchor_copies)


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    if args.kind in RANDOM_KINDS and args.seed is None:
        raise ValueError(f"--seed is required for kind {args.kind!r}")
    rng = None if args.seed is None else np.random.default_rng(args.seed)
    info: dict = {}
    if args.kind == "gap":
        try:
            eps = Fraction(args.gap_eps)
            float(args.n * (1 + 2 * eps**2))    # the instance's largest value, its merged cost
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"--gap-eps must be a fraction like 1/10 whose gap instance "
                             f"fits float64, got {args.gap_eps!r}") from None
        inst = gap_instance(args.n, eps)
        ds = inst.dataset
        info = {
            "kind": "gap",
            "n": args.n,
            "epsilon": str(inst.epsilon),
            "opt_cost": float(inst.opt_cost),
            "opt_cost_exact": str(inst.opt_cost),
            "merged_cost": float(inst.merged_cost),
            "merged_cost_exact": str(inst.merged_cost),
            "labels": list(inst.labels),
            "beta_witness": 0.5,
        }
    elif args.kind == "duplicates":
        ds, info = duplicate_groups(args.n, args.groups, args.dim, args.spread, rng)
    elif args.kind == "gaussian":
        ds, info = gaussian_groups(args.n, args.groups, args.dim, args.sigma,
                                   args.spread, rng)
    elif args.kind == "grid":
        ds, info = grid_groups(args.n, args.groups, args.dim, args.step,
                               args.reach, args.spread, rng)
    elif args.kind == "uniform":
        ds = random_uniform(args.n, args.dim, args.scale, rng)
        info = {"kind": "uniform", "n": args.n, "dim": args.dim, "scale": args.scale}
    else:
        raise ValueError(f"unknown kind {args.kind!r}")

    if args.colors is not None:
        if args.shuffle_colors and args.seed is None:
            raise ValueError("--shuffle-colors needs --seed")
        ds = with_colors(ds, args.colors, rng, contiguous=not args.shuffle_colors)
    if args.targets_from_labels:
        if "labels" not in info:
            raise ValueError(f"kind {args.kind!r} has no planted labels for targets")
        ds = with_targets(ds, info["labels"])

    write_dataset_csv(args.out, ds)
    if args.info:
        _write_text(args.info, _dump(info))
    return 0


# ---------------------------------------------------------------------------
# solve (batch) and stream

def _write_solution(args, variant: Variant, cfg: GoodCentersConfig, res, n: int,
                    **extra) -> None:
    """The summary and files of `solve` and `stream`; `extra` holds a
    command's own summary keys."""
    summary = {
        "command": args.command,
        "n": n,
        "dim": res.centers.shape[1],
        "k": args.k,
        "variant": _variant_summary(variant),
        "params": cfg.resolved(),
        "seed": args.seed,
        "select": args.select,
        "cost": res.cost,
        "flow_cost": res.flow_cost,
        "seed_cost": res.seed_cost,
        "selected": res.selected,
        "list_size": res.list_size,
        "centers": res.centers,
        "owners": _OwnerRows(res.owners),  # grouped once for both writers
        **extra,
    }
    if args.out:
        write_dataset_csv(args.out + ".centers.csv", Dataset(res.centers))
        _write_assignment_csv(args.out + ".assign.csv", summary["owners"])
    if getattr(args, "candidates", None):
        res.candidates.to_csv(args.candidates)
    _emit(args, summary)


def cmd_solve(args) -> int:
    variant = _variant_from(args)
    cfg = _config_from(args)
    ds = read_dataset_csv(args.data)
    res = batch_solve(ds, args.k, variant, cfg, np.random.default_rng(args.seed),
                      select_mode=args.select, precision_bits=args.bits)
    _write_solution(args, variant, cfg, res, ds.n,
                    empty_repetitions=list(res.candidates.empty_repetitions))
    return 0


def cmd_stream(args) -> int:
    variant = _variant_from(args)
    cfg = _config_from(args)
    source = CSVSource(args.data, block=args.block)
    res = full_pipeline(source, args.k, variant, cfg, np.random.default_rng(args.seed),
                        chunk=args.chunk, aspect_removal=args.aspect_removal,
                        select_mode=args.select, precision_bits=args.bits)
    _write_solution(args, variant, cfg, res, res.n, chunk=args.chunk, block=args.block,
                    aspect_removal=args.aspect_removal, passes=res.passes_used,
                    d_star=res.d_star, space=res.space)
    return 0


# ---------------------------------------------------------------------------
# partition (fixed centers)

def cmd_partition(args) -> int:
    variant = _variant_from(args)
    ds = read_dataset_csv(args.data)
    cds = read_dataset_csv(args.centers)
    if cds.colors is not None or cds.targets is not None:
        raise ValueError("centers file must carry coordinates only")
    if cds.dim != ds.dim:
        raise ValueError(f"centers are {cds.dim}-dimensional, data is {ds.dim}")
    asg = partition_assign(ds, cds.points, variant, precision_bits=args.bits)
    summary = {
        "command": "partition",
        "n": ds.n,
        "dim": ds.dim,
        "k": cds.n,
        "variant": _variant_summary(variant),
        "cost": asg.cost,
        "flow_cost": asg.flow_cost,
        "owners": _OwnerRows(asg.owners),  # grouped once for both writers
    }
    if args.out:
        _write_assignment_csv(args.out + ".assign.csv", summary["owners"])
    _emit(args, summary)
    return 0


# ---------------------------------------------------------------------------
# verify (stability report)

def _load_labels(path):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "labels" in data:
        data = data["labels"]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of labels")
    # type() and not isinstance(): a JSON true is a bool, which is an int
    if not all(type(v) is int and -2**63 <= v < 2**63 for v in data):
        raise ValueError(f"{path}: labels must be JSON integers within int64")
    return np.asarray(data, dtype=np.int64)


def cmd_verify(args) -> int:
    ds = read_dataset_csv(args.data)
    if args.beta is None and args.weak_deletion is None and args.irreducible is None:
        raise ValueError("nothing to verify: give --beta, --weak-deletion, "
                         "or --irreducible")
    # before a brute-forced labeling, which can take long or hit the oracle limit
    for name, value in (("beta", args.beta), ("gamma", args.weak_deletion)):
        if value is not None:
            check_non_negative(name, value)
    limit = OracleLimit(max_n=args.oracle_max_n, max_k=args.oracle_max_k)
    labels = None
    if args.labels:
        labels = _load_labels(args.labels)
        if labels.shape != (ds.n,):
            raise ValueError("labels length disagrees with dataset")
    needs_labels = args.beta is not None or args.weak_deletion is not None
    if needs_labels and labels is None:
        if args.k is None:
            raise ValueError("--k is required to brute-force a labeling")
        _cost, labels = opt_kmeans(ds.points, args.k, limit)
    if args.irreducible is not None and args.k is None:
        raise ValueError("--irreducible needs --k")

    checks: dict = {}
    for name, value, check in (
            ("beta_distributed", args.beta,
             lambda v: check_beta_distributed(ds.points, labels, v)),
            ("weak_deletion", args.weak_deletion,
             lambda v: check_weak_deletion(ds.points, labels, v)),
            ("irreducible", args.irreducible,
             lambda v: check_irreducible(ds.points, args.k, v, limit))):
        if value is not None:
            rep = check(value)
            checks[name] = {"requested": value, "passed": rep.passed,
                            "margin": rep.margin, "witnesses": rep.witnesses}
    all_passed = all(c["passed"] for c in checks.values())
    summary = {
        "command": "verify",
        "n": ds.n,
        "k": args.k,
        "checks": checks,
        "passed": all_passed,
    }
    _emit(args, summary)
    return 0 if all_passed else 2


# ---------------------------------------------------------------------------

def _add_variant_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", default="classical", choices=VARIANT_KINDS)
    p.add_argument("--r", type=int, help="bound for r_gather / r_capacity")
    p.add_argument("--l", type=int, help="replica count for fault_tolerant")
    p.add_argument("--alpha", type=float,
                   help="cost mix in [0, 1] for semi_supervised")


_BITS_HELP = ("fixed-point width (1..62) of the r_gather, r_capacity and chromatic flow "
              "solves; the closed forms are summed exactly at any width")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--preset", default="desk", choices=["desk", "formula"])
    for flag, name, text in (("--eta", "eta", "samples per center slot"),
                             ("--tau", "tau", "subset size"),
                             ("--reps", "repetitions", "repetitions"),
                             ("--budget", "subset_budget", "tuples per repetition")):
        p.add_argument(flag, type=int, help=f"{text} (desk default {DESK_DEFAULTS[name]})")
    p.add_argument("--anchor-copies", type=int, dest="anchor_copies")
    p.add_argument("--list-alpha", type=float, default=2.0, dest="list_alpha",
                   help="seed approximation factor used by the formula preset")
    p.add_argument("--select", default="argmin", choices=["argmin", "range"],
                   help="winner rule: the cheapest candidate, or the first one "
                        "within 1/(1 - epsilon) of the cheapest")
    p.add_argument("--bits", type=int, default=32, help=_BITS_HELP)
    p.add_argument("--seed", type=int, required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse state lives in each call's
    namespace and every default is immutable, so calls can share it."""
    top = _Parser(prog="ckmeans",
                  description="constrained k-means: candidate lists, flow "
                              "partitions, streaming compression")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[], help="write a synthetic dataset CSV",
                       description="Synthetic instances; --info writes planted "
                                   "ground truth alongside.")
    g.add_argument("--kind", required=True,
                   choices=["gap", "duplicates", "gaussian", "grid", "uniform"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--groups", type=int, default=3)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--spread", type=float, default=10.0)
    g.add_argument("--sigma", type=float, default=0.05)
    g.add_argument("--step", type=float, default=0.01)
    g.add_argument("--reach", type=int, default=2)
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--gap-eps", default="1/10", dest="gap_eps",
                   help="gap instance epsilon, a fraction like 1/10")
    g.add_argument("--colors", type=int)
    g.add_argument("--shuffle-colors", action="store_true", dest="shuffle_colors")
    g.add_argument("--targets-from-labels", action="store_true",
                   dest="targets_from_labels")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.add_argument("--info")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="batch pipeline on a dataset CSV")
    s.add_argument("data")
    _add_solver_flags(s)
    _add_variant_flags(s)
    s.add_argument("--candidates", help="also dump the candidate list CSV here")
    s.add_argument("--out", help="prefix for .json/.centers.csv/.assign.csv")
    s.set_defaults(func=cmd_solve)

    st = sub.add_parser("stream", help="multi-pass pipeline over a dataset CSV")
    st.add_argument("data")
    _add_solver_flags(st)
    _add_variant_flags(st)
    st.add_argument("--chunk", type=int, default=None)
    st.add_argument("--block", type=int, default=256)
    st.add_argument("--aspect-removal", action="store_true", dest="aspect_removal")
    st.set_defaults(func=cmd_stream)
    st.add_argument("--out", help="prefix for .json/.centers.csv/.assign.csv")

    pa = sub.add_parser("partition", help="assign points to fixed centers")
    pa.add_argument("data")
    pa.add_argument("--centers", required=True, help="centers CSV (x0..xd-1)")
    _add_variant_flags(pa)
    pa.add_argument("--bits", type=int, default=32, help=_BITS_HELP)
    pa.add_argument("--out", help="prefix for .json/.assign.csv")
    pa.set_defaults(func=cmd_partition)

    v = sub.add_parser("verify", help="stability checks, report as JSON")
    v.add_argument("data")
    v.add_argument("--k", type=int)
    v.add_argument("--beta", type=float, help="check beta-distribution")
    v.add_argument("--weak-deletion", type=float, dest="weak_deletion",
                   help="check weak-deletion stability at this gamma")
    v.add_argument("--irreducible", type=float,
                   help="check irreducibility at this gamma")
    v.add_argument("--labels", help="JSON list of reference labels "
                                    "(skips the brute-force oracle)")
    v.add_argument("--oracle-max-n", type=int, default=10, dest="oracle_max_n")
    v.add_argument("--oracle-max-k", type=int, default=3, dest="oracle_max_k")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except InfeasiblePartitionError as exc:
        print(f"ckmeans: infeasible: {exc}", file=sys.stderr)
        return 2
    except OracleLimitError as exc:
        print(f"ckmeans: oracle limit: {exc}", file=sys.stderr)
        return 5
    except (ValueError, KeyError) as exc:
        print(f"ckmeans: invalid input: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ckmeans: i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        elapsed = time.perf_counter() - t0
        print(f"ckmeans: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
