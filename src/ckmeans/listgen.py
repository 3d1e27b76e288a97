"""Candidate center-tuple generation by D^2 sampling.

Around a bi-criteria seed C, each repetition draws a multiset M of
eta * t D^2 samples and adds ceil(128 t / eps) anchor copies of every
seed center.  Candidate t-tuples are means of t disjoint tau-subsets of
M.  The formula preset enumerates every such tuple (combinatorially huge
except at toy sizes, guarded); the desk preset draws a fixed budget of
random disjoint tuples instead and keeps a prefix property: growing the
budget under the same seed only appends candidates.  candidate_list
turns each repetition's D^2 samples into its tuples; the batch list
(good_centers) and the streaming one (streaming.two_pass_good_centers)
differ only in how the samples are drawn.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .geometry import as_points
from .sampling import d2_sample

ENUM_GUARD = 200_000


@dataclass(frozen=True)
class GoodCentersConfig:
    """Knobs for good_centers.

    formula preset: eta, tau, repetitions default to the analysis values
    eta = ceil(2^16 * alpha * t / eps^4), tau = ceil(128 / eps),
    repetitions = 2^t, and every disjoint tuple is enumerated.  Explicit
    overrides are honored (that is what makes toy-size literal runs
    possible).  desk preset: all three must be given along with
    subset_budget, and tuples are sampled instead of enumerated.
    anchor_copies overrides the ceil(128 t / eps) anchor count in either
    preset.
    """

    t: int
    epsilon: float
    alpha: float = 2.0
    preset: str = "formula"
    eta: int | None = None
    tau: int | None = None
    repetitions: int | None = None
    subset_budget: int | None = None
    anchor_copies: int | None = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("need t >= 1")
        if not (0.0 < self.epsilon <= 0.5):
            raise ValueError("epsilon must lie in (0, 1/2]")
        if self.alpha < 1.0:
            raise ValueError("alpha is an approximation factor, need alpha >= 1")
        if self.preset not in ("formula", "desk"):
            raise ValueError("preset must be 'formula' or 'desk'")
        for name in ("eta", "tau", "repetitions", "subset_budget", "anchor_copies"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1 when given")
        if self.preset == "desk":
            missing = [n for n in ("eta", "tau", "repetitions", "subset_budget")
                       if getattr(self, n) is None]
            if missing:
                raise ValueError(f"desk preset requires explicit {', '.join(missing)}")

    def resolved(self) -> dict:
        """Concrete parameter values after preset defaults."""
        eta = self.eta if self.eta is not None else math.ceil(
            2**16 * self.alpha * self.t / self.epsilon**4)
        tau = self.tau if self.tau is not None else math.ceil(128 / self.epsilon)
        reps = self.repetitions if self.repetitions is not None else 2**self.t
        copies = (self.anchor_copies if self.anchor_copies is not None
                  else math.ceil(128 * self.t / self.epsilon))
        return {
            "t": self.t,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "preset": self.preset,
            "eta": int(eta),
            "tau": int(tau),
            "repetitions": int(reps),
            "copies": int(copies),
            "subset_budget": self.subset_budget,
        }


@dataclass
class CandidateEntry:
    centers: np.ndarray           # (t, d) subset means, in tuple order
    repetition: int
    positions: tuple              # flat positions into that repetition's M

    @property
    def t(self) -> int:
        return self.centers.shape[0]


@dataclass
class CandidateList:
    entries: list
    t: int
    dim: int
    empty_repetitions: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["entry", "repetition", "t", "dim", "positions", "coords"])
            for i, e in enumerate(self.entries):
                w.writerow([
                    i, e.repetition, self.t, self.dim,
                    ";".join(str(p) for p in e.positions),
                    ";".join(repr(float(v)) for v in e.centers.ravel()),
                ])


def multiset_size(cfg: GoodCentersConfig, num_seed_centers: int) -> int:
    p = cfg.resolved()
    return p["eta"] * p["t"] + p["copies"] * num_seed_centers


def list_size_bound(cfg: GoodCentersConfig, num_seed_centers: int) -> int:
    """Upper bound on the number of emitted candidate tuples."""
    p = cfg.resolved()
    m = multiset_size(cfg, num_seed_centers)
    if m < p["tau"] * p["t"]:
        return 0
    if cfg.preset == "desk":
        return p["repetitions"] * p["subset_budget"]
    per_rep = 1
    left = m
    for _ in range(p["t"]):
        per_rep *= math.comb(left, p["tau"])
        left -= p["tau"]
    return p["repetitions"] * per_rep


def _enumerate_tuples(m: int, t: int, tau: int):
    """All ordered tuples of t disjoint tau-subsets of range(m), each
    subset in ascending order, tuples in lexicographic order."""
    def rec(avail, depth, acc):
        if depth == t:
            yield tuple(acc)
            return
        for sub in combinations(avail, tau):
            rest = [a for a in avail if a not in sub]
            yield from rec(rest, depth + 1, acc + list(sub))
    yield from rec(list(range(m)), 0, [])


def repetition_tuples(M, r: int, p: dict, rng) -> list[CandidateEntry] | None:
    """Candidates of repetition r: means of t disjoint tau-subsets of the
    multiset M.  The desk preset draws p["subset_budget"] tuples with rng,
    the formula preset enumerates them all.  p is GoodCentersConfig.resolved().
    None when M holds fewer than tau * t points: the repetition is empty."""
    t, tau = p["t"], p["tau"]
    if tau * t > M.shape[0]:
        return None
    if p["preset"] == "desk":
        flats = (tuple(int(v) for v in rng.choice(M.shape[0], size=tau * t, replace=False))
                 for _ in range(p["subset_budget"]))
    else:
        flats = _enumerate_tuples(M.shape[0], t, tau)
    return [CandidateEntry(M[np.asarray(flat).reshape(t, tau)].mean(axis=1), r, flat)
            for flat in flats]


def candidate_list(samples, C, p: dict, rngs) -> CandidateList:
    """The candidate list around the seed C: repetition r draws its tuples
    with rngs[r] from samples[r] plus p["copies"] anchor copies of every
    seed center.  p is GoodCentersConfig.resolved()."""
    anchor = np.repeat(C, p["copies"], axis=0)
    entries: list[CandidateEntry] = []
    empty_reps: list[int] = []
    for r, (S, rng) in enumerate(zip(samples, rngs)):
        drawn = repetition_tuples(np.vstack([S, anchor]), r, p, rng)
        if drawn is None:
            empty_reps.append(r)
        else:
            entries.extend(drawn)
    return CandidateList(entries, p["t"], C.shape[1], empty_reps)


def good_centers(X, C, cfg: GoodCentersConfig, rng) -> CandidateList:
    """The candidate list: means of disjoint tau-subset tuples drawn
    around the seed C, over `repetitions` independent repetitions."""
    X = as_points(X)
    C = as_points(C)
    if rng is None:
        raise ValueError("rng is required")
    p = cfg.resolved()

    if cfg.preset == "formula":
        bound = list_size_bound(cfg, C.shape[0])
        if bound > ENUM_GUARD:
            raise ValueError(
                f"formula preset would enumerate {bound} tuples, over the guard of "
                f"{ENUM_GUARD}; override eta/tau/repetitions or use the desk preset")

    # each repetition's generator draws its samples, then its tuples
    subs = rng.spawn(p["repetitions"])
    samples = [X[d2_sample(X, C, p["eta"] * p["t"], sub)] for sub in subs]
    return candidate_list(samples, C, p, subs)
