"""Byte-identity pin of both pipelines on one fixed planted input.

Each run is reduced to a digest of everything a caller can see: the
owners, the emitted centers' bytes, repr of cost and flow_cost, the
selected index, d_star, and the vertices of every graph the stream
solves, item by item in insertion order.  The recorded digests were
taken from the code before the graph pass keyed blocks by distinct
center; a change that moves any output, or the order of any graph's
vertices, moves a digest.
"""

import hashlib

import numpy as np
import pytest

from ckmeans import streaming
from ckmeans.data import Dataset, gaussian_groups
from ckmeans.listgen import GoodCentersConfig
from ckmeans.partition import Variant
from ckmeans.streaming import ArraySource, batch_solve, full_pipeline

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
    ("classical", False): "83380d24c92ccc3ca9917e963ad0070b",
    ("classical", True): "fe7f043f9d028476818688feb592de88",
    ("r_gather", False): "90a0ed28319f5c19eaa5848187c00024",
    ("r_gather", True): "eba5971cefa5953a55279f9ece86ca91",
    ("r_capacity", False): "fc0fac3f643d393496de9d0d2d2d86e4",
    ("r_capacity", True): "2a1155cd9672f886c6cf67332d893bda",
    ("fault_tolerant", False): "cb08d89e1f332aeaa11b90f91d5b02c2",
    ("fault_tolerant", True): "4b3f5a7401dda50a69d979ed2767d5aa",
    ("semi_supervised", False): "e98a3c5ddcbd57f906be6fa98630374a",
    ("semi_supervised", True): "bb3fa6f8f9e12248581c33834d4242f7",
    ("batch", "r_gather"): "df155204da4f3fa398bc900471d62493",
}


def planted():
    """Three gaussian groups of 100, 200 and 300 rows, wide enough that
    keys take many values, so that r_gather's and r_capacity's bounds
    bind; targets disagree with the groups on every seventh row."""
    ds, _info = gaussian_groups(900, 3, sigma=1.5, rng=np.random.default_rng(20))
    rows = np.r_[0:100, 300:500, 600:900]
    targets = np.repeat([0, 1, 2], [100, 200, 300])
    targets[::7] = (targets[::7] + 1) % 3
    return Dataset(ds.points[rows], targets=targets)


def digest(res, graphs) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in (repr(res.owners), res.centers.tobytes(), repr(res.cost),
                 repr(res.flow_cost), repr(res.selected),
                 repr(getattr(res, "d_star", None))):
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"|")
    for items in graphs:
        h.update(repr(items).encode())
        h.update(b"|")
    return h.hexdigest()


def run(kind, option, monkeypatch) -> str:
    """One pinned run: ("batch", variant) or (stream variant, aspect_removal)."""
    ds = planted()
    if kind == "batch":
        return digest(batch_solve(ds, 3, VARIANTS[option], CFG, np.random.default_rng(3)), [])
    solved = []
    solve = streaming.compressed_partition

    def recording(graph, variant, **kw):
        solved.append(list(graph.vertices.items()))
        return solve(graph, variant, **kw)

    monkeypatch.setattr(streaming, "compressed_partition", recording)
    res = full_pipeline(ArraySource(ds, block=64), 3, VARIANTS[kind], CFG,
                        np.random.default_rng(3), aspect_removal=option)
    assert len(solved) == res.list_size
    return digest(res, solved)


@pytest.mark.parametrize("case", list(DIGESTS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_outputs_match_the_recorded_digests(case, monkeypatch):
    assert run(*case, monkeypatch) == DIGESTS[case]
