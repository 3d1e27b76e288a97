"""Byte-identity pin of both pipelines on one fixed planted input.

Each run is reduced to a digest of everything a caller can see: the
owners, the emitted centers' bytes, repr of cost and flow_cost, the
selected index, d_star, and the vertices of every graph the stream
solves, item by item in insertion order, each key read back as a
(slots, None) pair, the form keys took when they could carry a group.
Only r_gather and r_capacity streams solve graphs; the closed-form
variants record none.  The recorded digests were taken from the code
before the graph pass keyed blocks by distinct center, the stream
digests again when the sample pass's reservoirs began to jump between
replacements, which draws other uniforms, and the closed-form stream
digests again when those variants began to be scored exactly, with no
graph; a change that moves any output, or the order of any graph's
vertices, moves a digest.
"""

import hashlib
import itertools

import numpy as np
import pytest

from ckmeans import streaming
from ckmeans.data import Dataset, gaussian_groups
from ckmeans.geometry import pairwise_sqdist
from ckmeans.hyperbucket import aspect_floor
from ckmeans.listgen import GoodCentersConfig
from ckmeans.partition import Variant, _running_sum, semi_supervised_cost_terms
from ckmeans.streaming import ArraySource, batch_solve, full_pipeline
from reference import vertex_items

CFG = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                        eta=4, tau=1, repetitions=3, subset_budget=6)
VARIANTS = {
    "classical": Variant.classical(),
    "r_gather": Variant.r_gather(150),
    "r_capacity": Variant.r_capacity(280),
    "fault_tolerant": Variant.fault_tolerant(2),
    "semi_supervised": Variant.semi_supervised(0.5),
}

DIGESTS = {
    ("classical", False): "7dc32092c6b640d3aae009c0a2933dd3",
    ("classical", True): "a478545159258a9aefebc9df3b34c865",
    ("r_gather", False): "e2f35bfe89ca843c56f87d383f71b101",
    ("r_gather", True): "3ea00701f6d0a76e4b88c5c58a2678e2",
    ("r_capacity", False): "a0ba8f13fe512f501bccd4ff683a236e",
    ("r_capacity", True): "e446d32f401a1d139c2a7aef48d850d7",
    ("fault_tolerant", False): "0736d341f23d43cf1a9e5238bfb3cfc0",
    ("fault_tolerant", True): "3459fa4d5facf780c2bf1e9565bbb355",
    ("semi_supervised", False): "a0c0e2f7de0bb6ccd6fae5430f19aa9c",
    ("semi_supervised", True): "b7c397da3dada4463694a26375c78d94",
    ("batch", "r_gather"): "df155204da4f3fa398bc900471d62493",
}
# runs on the planted input in R^5, where the distance kernel's
# coordinate-order sum rounds otherwise than einsum's order: an einsum
# kernel moves both digests
DIGESTS_D5 = {
    ("classical", False): "4dc1e98ab046005b9892bf54b9250810",
    ("batch", "r_gather"): "eedff6f11ddc311e621b906deec3aa8b",
}


def planted(dim=2):
    """Three gaussian groups of 100, 200 and 300 rows in R^dim, wide
    enough that keys take many values, so that r_gather's and
    r_capacity's bounds bind; targets disagree with the groups on every
    seventh row."""
    ds, _info = gaussian_groups(900, 3, dim=dim, sigma=1.5, rng=np.random.default_rng(20))
    rows = np.r_[0:100, 300:500, 600:900]
    targets = np.repeat([0, 1, 2], [100, 200, 300])
    targets[::7] = (targets[::7] + 1) % 3
    return Dataset(ds.points[rows], targets=targets)


def digest(res, graphs) -> str:
    h = hashlib.blake2b(digest_size=16)
    # owners as the list of tuples the digests were recorded on
    owners = list(map(tuple, res.owners.tolist()))
    for part in (repr(owners), res.centers.tobytes(), repr(res.cost),
                 repr(res.flow_cost), repr(res.selected),
                 repr(getattr(res, "d_star", None))):
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"|")
    for items in graphs:
        h.update(repr([((slots, None), c) for slots, c in items]).encode())
        h.update(b"|")
    return h.hexdigest()


def run(kind, option, monkeypatch, dim=2) -> str:
    """One pinned run: ("batch", variant) or (stream variant, aspect_removal)."""
    ds = planted(dim)
    if kind == "batch":
        return digest(batch_solve(ds, 3, VARIANTS[option], CFG, np.random.default_rng(3)), [])
    solved = []
    solve = streaming.compressed_partition

    def recording(graph, variant, **kw):
        solved.append(vertex_items(graph))
        return solve(graph, variant, **kw)

    monkeypatch.setattr(streaming, "compressed_partition", recording)
    res = full_pipeline(ArraySource(ds, block=64), 3, VARIANTS[kind], CFG,
                        np.random.default_rng(3), aspect_removal=option)
    assert len(solved) == (0 if kind in streaming.CLOSED_FORM else res.list_size)
    return digest(res, solved)


@pytest.mark.parametrize("case", list(DIGESTS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_outputs_match_the_recorded_digests(case, monkeypatch):
    assert run(*case, monkeypatch) == DIGESTS[case]


@pytest.mark.parametrize("case", list(DIGESTS_D5), ids=lambda c: f"{c[0]}-{c[1]}")
def test_outputs_in_r5_match_the_recorded_digests(case, monkeypatch):
    assert run(*case, monkeypatch, dim=5) == DIGESTS_D5[case]


def exact_total(ds, centers, variant, aspect) -> float:
    """A candidate's cost summed left to right in point, then owner,
    order: each point's l cheapest costs by a stable sort, zeroed below
    the candidate's aspect floor, and under semi_supervised the
    cheapest matching's sum."""
    sq = pairwise_sqdist(ds.points, centers)
    if aspect:
        floor = aspect_floor(centers, np.sqrt(sq.min(axis=1).max()), ds.n)
        sq = np.where(sq < floor, 0.0, sq)
    l = variant.l if variant.kind == "fault_tolerant" else 1
    sums = []
    for perm in (itertools.permutations(range(len(centers)))
                 if variant.kind == "semi_supervised" else [None]):
        w = sq if perm is None else semi_supervised_cost_terms(sq, ds.targets,
                                                               variant.alpha, perm)
        pick = np.sort(np.argsort(w, axis=1, kind="stable")[:, :l], axis=1)
        sums.append(_running_sum(0.0, np.take_along_axis(w, pick, axis=1).ravel()))
    return min(sums)


@pytest.mark.parametrize("aspect", [False, True])
@pytest.mark.parametrize("kind", ["classical", "fault_tolerant", "semi_supervised"])
def test_closed_form_totals_are_exact_at_any_block(kind, aspect, monkeypatch):
    # every candidate's streamed total, the costs select_best ranks
    ds = planted()
    runs = []
    listed, select = streaming.two_pass_good_centers, streaming.select_best

    def listing(*args, **kw):
        out = listed(*args, **kw)
        runs.append({"cands": out[0]})
        return out

    def recording(costs, *args):
        runs[-1]["costs"] = np.array(costs)
        return select(costs, *args)

    monkeypatch.setattr(streaming, "two_pass_good_centers", listing)
    monkeypatch.setattr(streaming, "select_best", recording)
    for block in (1, 7, 256):
        res = full_pipeline(ArraySource(ds, block=block), 3, VARIANTS[kind], CFG,
                            np.random.default_rng(3), aspect_removal=aspect)
        costs = runs[-1]["costs"]
        want = [exact_total(ds, e.centers, VARIANTS[kind], aspect)
                for e in runs[-1]["cands"].entries]
        assert costs.tobytes() == np.array(want).tobytes()
        assert costs.tobytes() == runs[0]["costs"].tobytes()
        assert res.flow_cost == costs[res.selected]
        if not aspect:
            assert res.flow_cost == res.cost
