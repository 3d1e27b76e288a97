"""Command-line surface: gen / solve / stream / partition / verify.

Every command is deterministic given (input file, flags, seed): JSON is
emitted with sorted keys and timing goes to stderr only.

Exit codes: 0 success, 2 infeasible constraints or a failed verify
check, 3 validation, 4 I/O, 5 oracle limit.
"""

from __future__ import annotations

import argparse
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
from .listgen import GoodCentersConfig
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
    "owners" list is spliced in from one text per distinct owner tuple."""
    owners = obj.get("owners")
    if not owners:
        return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"
    text = json.dumps(_jsonable({**obj, "owners": []}), sort_keys=True, indent=2)
    listed = "[\n    " + ",\n    ".join(_per_owner_tuple(owners, _owner_json)) + "\n  ]"
    return text.replace('\n  "owners": []', '\n  "owners": ' + listed, 1) + "\n"


def _owner_json(own) -> str:
    # an owner tuple as json's indent=2 writes it two levels deep
    if not own:
        return "[]"
    return "[\n" + ",\n".join(f"      {int(j)}" for j in own) + "\n    ]"


def _per_owner_tuple(owners, fmt) -> list[str]:
    """[fmt(own) for own in owners], calling fmt once per distinct tuple:
    the solvers hand out a few shared tuples for all points."""
    text = {own: fmt(own) for own in dict.fromkeys(owners)}
    return list(map(text.__getitem__, owners))


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
    if isinstance(v, Fraction):
        return str(v)
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
    cells = _per_owner_tuple(owners, lambda own: ";".join(str(int(j)) for j in own))
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


_DESK_DEFAULTS = {"eta": 32, "tau": 4, "reps": 4, "budget": 200}


def _config_from(args) -> GoodCentersConfig:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    kw = dict(t=args.k, epsilon=args.epsilon, alpha=args.list_alpha, preset=args.preset)
    names = {"eta": "eta", "tau": "tau", "reps": "repetitions",
             "budget": "subset_budget"}
    for flag, field in names.items():
        v = getattr(args, flag)
        if v is None and args.preset == "desk":
            v = _DESK_DEFAULTS[flag]
        if v is not None:
            kw[field] = v
    if args.anchor_copies is not None:
        kw["anchor_copies"] = args.anchor_copies
    return GoodCentersConfig(**kw)


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    if args.kind in RANDOM_KINDS and args.seed is None:
        raise ValueError(f"--seed is required for kind {args.kind!r}")
    rng = None if args.seed is None else np.random.default_rng(args.seed)
    info: dict = {}
    if args.kind == "gap":
        inst = gap_instance(args.n, Fraction(args.gap_eps))
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
        "owners": res.owners,
        **extra,
    }
    if args.out:
        write_dataset_csv(args.out + ".centers.csv", Dataset(res.centers))
        _write_assignment_csv(args.out + ".assign.csv", res.owners)
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
    if cfg.preset != "desk":
        raise ValueError("stream needs the desk preset")
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
        "owners": asg.owners,
    }
    if args.out:
        _write_assignment_csv(args.out + ".assign.csv", asg.owners)
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
    return np.asarray(data, dtype=np.int64)


def cmd_verify(args) -> int:
    ds = read_dataset_csv(args.data)
    if args.beta is None and args.weak_deletion is None and args.irreducible is None:
        raise ValueError("nothing to verify: give --beta, --weak-deletion, "
                         "or --irreducible")
    limit = OracleLimit(max_n=args.oracle_max_n, max_k=args.oracle_max_k)
    labels = None
    if args.labels:
        labels = _load_labels(args.labels)
        if labels.shape != (ds.n,):
            raise ValueError("labels length disagrees with dataset")
    checks: dict = {}
    needs_labels = args.beta is not None or args.weak_deletion is not None
    if needs_labels and labels is None:
        if args.k is None:
            raise ValueError("--k is required to brute-force a labeling")
        _cost, labels = opt_kmeans(ds.points, args.k, limit)

    if args.beta is not None:
        rep = check_beta_distributed(ds.points, labels, args.beta)
        checks["beta_distributed"] = {
            "requested": args.beta, "passed": rep.passed,
            "margin": rep.margin, "witnesses": rep.witnesses,
        }
    if args.weak_deletion is not None:
        rep = check_weak_deletion(ds.points, labels, args.weak_deletion)
        checks["weak_deletion"] = {
            "requested": args.weak_deletion, "passed": rep.passed,
            "margin": rep.margin, "witnesses": rep.witnesses,
        }
    if args.irreducible is not None:
        if args.k is None:
            raise ValueError("--irreducible needs --k")
        rep = check_irreducible(ds.points, args.k, args.irreducible, limit)
        checks["irreducible"] = {
            "requested": args.irreducible, "passed": rep.passed,
            "margin": rep.margin, "witnesses": rep.witnesses,
        }
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


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--preset", default="desk", choices=["desk", "formula"])
    p.add_argument("--eta", type=int, help="samples per center slot (desk default 32)")
    p.add_argument("--tau", type=int, help="subset size (desk default 4)")
    p.add_argument("--reps", type=int, help="repetitions (desk default 4)")
    p.add_argument("--budget", type=int, help="tuples per repetition (desk default 200)")
    p.add_argument("--anchor-copies", type=int, dest="anchor_copies")
    p.add_argument("--list-alpha", type=float, default=2.0, dest="list_alpha",
                   help="seed approximation factor used by the formula preset")
    p.add_argument("--select", default="argmin", choices=["argmin", "range"])
    p.add_argument("--bits", type=int, default=32)
    p.add_argument("--seed", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
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
    pa.add_argument("--bits", type=int, default=32)
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
