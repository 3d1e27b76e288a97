"""Stream sources, pass counting, selection, and pipeline equivalence."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ckmeans import streaming
from ckmeans.data import (
    Dataset,
    duplicate_groups,
    gaussian_groups,
    with_targets,
    write_dataset_csv,
)
from ckmeans.geometry import pairwise_sqdist, phi_cost
from ckmeans import partition as partition_module
from ckmeans.hyperbucket import CompressedGraph, KeyBuilder
from ckmeans.listgen import CandidateEntry, CandidateList, GoodCentersConfig, good_centers
from ckmeans.partition import (
    CompressedSolution,
    InfeasiblePartitionError,
    Variant,
    partition_bounds,
    partition_cost,
    semi_supervised_cost_terms,
)
from ckmeans.sampling import ReservoirBank
from ckmeans.seeding import d2_seed
from ckmeans.streaming import (
    ArraySource,
    CSVSource,
    SpaceMeter,
    batch_solve,
    default_chunk,
    full_pipeline,
    select_best,
    two_pass_good_centers,
)
from reference import batch_solve_scoring_all

CFG = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                        eta=8, tau=2, repetitions=3, subset_budget=60)


def planted(seed, n=48):
    ds, info = gaussian_groups(n, 3, sigma=0.05, rng=np.random.default_rng(seed))
    return ds, info


# sources --------------------------------------------------------------------

def test_array_source_counts_passes_and_blocks():
    ds, _ = planted(0)
    src = ArraySource(ds, block=10)
    assert src.passes == 0
    blocks = list(src.open())
    assert src.passes == 1
    assert sum(len(b[0]) for b in blocks) == 48
    assert all(len(b[0]) <= 10 for b in blocks)
    list(src.open_points())
    assert src.passes == 2


def test_csv_source_replays_identically(tmp_path):
    ds, _ = planted(1)
    ds = Dataset(ds.points, colors=np.sort(np.arange(48) % 2),
                 targets=np.arange(48) % 3)
    path = tmp_path / "pts.csv"
    write_dataset_csv(path, ds)
    src = CSVSource(path, block=7)
    a = np.vstack([b[0] for b in src.open()])
    b = np.vstack([b[0] for b in src.open()])
    assert np.array_equal(a, b)
    assert np.array_equal(a, ds.points)
    assert src.passes == 2
    first = next(iter(src.open()))
    assert first[1] is not None and first[2] is not None


@pytest.mark.parametrize("block", [0, -5])
def test_sources_reject_nonpositive_block(tmp_path, block):
    ds, _ = planted(1)
    with pytest.raises(ValueError, match="block must be >= 1"):
        ArraySource(ds, block=block)
    with pytest.raises(ValueError, match="block must be >= 1"):
        CSVSource(tmp_path / "never_read.csv", block=block)


def _csv_of(path, ds):
    write_dataset_csv(path, ds)
    return path


def test_csv_rewritten_between_passes_is_detected(tmp_path):
    ds, _ = planted(2)
    path = _csv_of(tmp_path / "pts.csv", ds)
    src = CSVSource(path, block=7)
    list(src.open())
    moved = ds.points.copy()
    moved[30, 1] += 1e-9
    write_dataset_csv(path, Dataset(moved))
    with pytest.raises(ValueError, match="stream changed between passes: "
                                         "pass 2 read other values in its 48 rows"):
        list(src.open())


def test_truncated_csv_is_detected(tmp_path):
    ds, _ = planted(2)
    path = _csv_of(tmp_path / "pts.csv", ds)
    src = CSVSource(path, block=7)
    list(src.open())
    list(src.open())
    write_dataset_csv(path, Dataset(ds.points[:40]))
    with pytest.raises(ValueError, match="pass 3 read 40 rows against 48"):
        list(src.open())


def test_array_changed_in_place_between_passes_is_detected():
    ds, _ = planted(2)
    src = ArraySource(ds, block=10)
    list(src.open())
    ds.points[0, 0] = 99.0
    with pytest.raises(ValueError, match="pass 2 read other values"):
        list(src.open())


def colored(seed, n=48):
    ds, info = planted(seed, n)
    return Dataset(ds.points, colors=np.arange(n) % 5, targets=np.asarray(info["labels"]))


def test_sources_hand_out_joins_of_any_size(tmp_path):
    # successive passes at join sizes 1, 7, the block and n: every pass
    # reads the same records, so none trips the fingerprint
    ds = colored(4)
    path = _csv_of(tmp_path / "pts.csv", ds)
    for src in (ArraySource(ds, block=10), CSVSource(path, block=10)):
        for rows in (1, 7, 10, 48, None, 7):
            joins = list(src.open(rows))
            want = rows or 10
            assert [len(j[0]) for j in joins[:-1]] == [want] * (len(joins) - 1)
            assert 0 < len(joins[-1][0]) <= want
            for col, full in zip(zip(*joins), (ds.points, ds.colors, ds.targets)):
                assert np.array_equal(np.concatenate(col), full)
        assert src.passes == 6


@pytest.mark.parametrize("column", ["points", "colors", "targets"])
def test_array_value_changed_in_one_column_is_detected(column):
    ds = colored(5)
    src = ArraySource(ds, block=10)
    list(src.open(7))
    list(src.open(48))
    values = getattr(ds, column)
    values[(31,) + (0,) * (values.ndim - 1)] += 1
    with pytest.raises(ValueError, match="stream changed between passes: "
                                         "pass 3 read other values in its 48 rows"):
        list(src.open(7))


def test_array_source_joins_are_views():
    ds = colored(6)
    for pts, colors, targets in ArraySource(ds, block=10).open(16):
        assert np.shares_memory(pts, ds.points)
        assert np.shares_memory(colors, ds.colors)
        assert np.shares_memory(targets, ds.targets)


STREAM_OWNERS = {"classical": Variant.classical(), "r_gather": Variant.r_gather(10),
                 "r_capacity": Variant.r_capacity(20), "fault_tolerant": Variant.fault_tolerant(2),
                 "semi_supervised": Variant.semi_supervised(0.5)}


def owner_array(owners, n, l):
    assert isinstance(owners, np.ndarray) and owners.dtype == np.intp
    assert owners.shape == (n, l)
    assert np.all(np.diff(owners, axis=1) > 0) and owners.min() >= 0 and owners.max() < 3


@pytest.mark.parametrize("aspect", [False, True])
@pytest.mark.parametrize("kind", sorted(STREAM_OWNERS))
def test_stream_owners_are_one_ascending_array(kind, aspect):
    variant = STREAM_OWNERS[kind]
    pr = full_pipeline(ArraySource(colored(8), block=16), 3, variant, CFG,
                       np.random.default_rng(9), aspect_removal=aspect)
    owner_array(pr.owners, 48, 2 if kind == "fault_tolerant" else 1)


@pytest.mark.parametrize("kind", sorted(STREAM_OWNERS) + ["chromatic"])
def test_batch_owners_are_one_ascending_array(kind):
    ds = colored(8)
    if kind == "chromatic":
        variant, ds = Variant.chromatic(), Dataset(ds.points, colors=np.arange(48) % 16)
    else:
        variant = STREAM_OWNERS[kind]
    res = batch_solve(ds, 3, variant, CFG, np.random.default_rng(9))
    owner_array(res.owners, 48, 2 if kind == "fault_tolerant" else 1)


@pytest.mark.parametrize("aspect", [False, True])
def test_pipeline_on_csv_matches_array_source(tmp_path, aspect):
    ds, _ = planted(3, n=200)
    ds = with_targets(ds, np.arange(200) % 3)
    path = _csv_of(tmp_path / "pts.csv", ds)
    for variant in (Variant.classical(), Variant.fault_tolerant(2),
                    Variant.semi_supervised(0.5)):
        a, c = [full_pipeline(src, 3, variant, CFG, np.random.default_rng(4), chunk=50,
                              aspect_removal=aspect)
                for src in (ArraySource(ds, block=16), CSVSource(path, block=16))]
        assert np.array_equal(c.owners, a.owners)
        assert c.centers.tobytes() == a.centers.tobytes()
        assert repr(c.cost) == repr(a.cost) and c.passes_used == a.passes_used


def test_csv_pipeline_memory_is_bounded(tmp_path):
    # the paper's log-space claim on the CLI's path: with a fixed block
    # and chunk, a stream 4x longer must not need 2x the peak memory
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=4, tau=1,
                            repetitions=2, subset_budget=5)
    peaks = []
    for n in (1000, 4000):
        ds, _ = gaussian_groups(n, 3, sigma=0.05, rng=np.random.default_rng(0))
        src = CSVSource(_csv_of(tmp_path / f"{n}.csv", ds), block=64)
        del ds
        tracemalloc.start()
        try:
            full_pipeline(src, 3, Variant.classical(), cfg, np.random.default_rng(1),
                          chunk=64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_sample_pass_memory_does_not_grow_with_eta():
    # the reservoirs hold eta·t points per repetition; nothing the sample
    # pass keeps besides them may scale with eta times the rows joined
    ds, _ = gaussian_groups(20_000, 3, rng=np.random.default_rng(0))
    peaks = []
    for eta in (16, 256):
        cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=eta, tau=1,
                                repetitions=2, subset_budget=4)
        tracemalloc.start()
        try:
            full_pipeline(ArraySource(ds, block=256), 3, Variant.classical(), cfg,
                          np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_stream_memory_does_not_grow_with_d():
    # the distance kernel sums coordinate by coordinate, so no pass holds
    # a temporary with an axis of length d; the input itself is not traced
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=32, tau=4,
                            repetitions=4, subset_budget=32)
    peaks = []
    for d in (2, 64):
        ds, _ = gaussian_groups(8000, 3, dim=d, rng=np.random.default_rng(7))
        tracemalloc.start()
        try:
            full_pipeline(ArraySource(ds, block=1024), 3, Variant.classical(), cfg,
                          np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_default_chunk_rules():
    assert default_chunk(None, 5) == 4096
    assert default_chunk(10_000, 4) == math.ceil(math.sqrt(40_000))
    assert default_chunk(4, 9) == 9   # never below k


# space meter ------------------------------------------------------------------

def test_space_meter_peaks_and_phases():
    m = SpaceMeter()
    with m.phase("a"):
        m.alloc_points(10)
        m.free_points(4)
    with m.phase("b"):
        m.alloc_points(2)
        m.alloc_words(7)
    rep = m.report()
    assert rep["peak_points"] == 10
    assert rep["peak_words"] == 7
    assert [p["name"] for p in rep["phases"]] == ["a", "b"]
    assert rep["phases"][0]["peak_points"] == 10
    assert rep["phases"][1]["peak_points"] == 8
    with pytest.raises(ValueError):
        m.free_points(1000)


# two-pass candidate generation ----------------------------------------------

def test_two_pass_needs_desk_preset():
    ds, _ = planted(2)
    cfg = GoodCentersConfig(t=2, epsilon=0.5, preset="formula",
                            eta=2, tau=1, repetitions=2)
    with pytest.raises(ValueError):
        two_pass_good_centers(ArraySource(ds), 3, cfg, np.random.default_rng(0))


def test_two_pass_counts_and_passes():
    ds, _ = planted(3)
    src = ArraySource(ds, block=16)
    cands, seed, seen = two_pass_good_centers(src, 3, CFG, np.random.default_rng(1))
    assert src.passes == 2
    assert seen == 48
    assert len(cands) == 3 * 60
    assert seed.centers.shape == (6, 2)
    for e in cands.entries:
        assert e.centers.shape == (3, 2)


def test_two_pass_uniform_fallback_on_zero_potential():
    # seed sits exactly on every site, so all stream weights are zero;
    # the banks then hold uniform samples
    ds, info = duplicate_groups(24, 3, rng=np.random.default_rng(4))
    src = ArraySource(ds, block=8)
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                            eta=4, tau=1, repetitions=2, subset_budget=20)
    cands, seed, _ = two_pass_good_centers(src, 3, cfg, np.random.default_rng(5))
    assert seed.cost == 0.0
    assert len(cands) == 2 * 20
    sites = {tuple(s) for s in info["sites"]}
    for e in cands.entries:
        for c in e.centers:
            assert tuple(c) in sites   # tau=1 means every center is a stream point


@pytest.mark.parametrize("tail", [0, 16])
def test_sample_pass_offers_every_row_to_one_segment_per_repetition(monkeypatch, tail):
    # three heavy sites fill the first blocks; a cluster at the end holds
    # the only positive potential (none at all with tail=0)
    rng = np.random.default_rng(7)
    sites = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    X = np.vstack([np.repeat(sites, 16, axis=0),
                   rng.normal(size=(tail, 2)) + [25.0, 25.0]])
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                            eta=4, tau=1, repetitions=3, subset_budget=20)
    made, offered = [], []
    init, offer = ReservoirBank.__init__, ReservoirBank.offer_block

    def init_spy(bank, *args):
        made.append(bank)
        init(bank, *args)

    def offer_spy(bank, pts, w):
        offered.append(pts)
        offer(bank, pts, w)

    monkeypatch.setattr(ReservoirBank, "__init__", init_spy)
    monkeypatch.setattr(ReservoirBank, "offer_block", offer_spy)
    _cands, seed, _ = two_pass_good_centers(ArraySource(X, block=8), 3, cfg,
                                            np.random.default_rng(8))
    # the premise: six zero-potential blocks, then positive ones
    potential = pairwise_sqdist(X, seed.centers).min(axis=1)
    assert not potential[:48].any()
    assert all(potential[lo:lo + 8].any() for lo in range(48, len(X), 8))
    # one bank, offered every row once, with a segment of 12 reservoirs
    # per repetition, each on its own generator; once the potential is
    # positive no zero-potential row is held
    assert len(made) == 1
    bank = made[0]
    assert np.array_equal(np.vstack(offered), X)
    assert len(set(map(id, bank.rngs))) == 3 and bank.size == 12
    assert all(s.shape == (12, 2) for s in np.split(bank.sampled_points(), 3))
    assert potential[bank.held_index].all() if tail else bank.weight_sum == 0


# select_best ------------------------------------------------------------------

def test_select_argmin():
    assert select_best([3.0, 1.0, 2.0]) == 1
    assert select_best([math.inf, 5.0]) == 1
    with pytest.raises(InfeasiblePartitionError):
        select_best([math.inf, math.inf])
    with pytest.raises(InfeasiblePartitionError):
        select_best([])


def test_select_range_mode_first_within_threshold():
    eps = 0.5
    # the minimum is 0.3, so the threshold is 0.6: index 0 qualifies first
    assert select_best([0.55, 0.3, 1.0], "range", eps) == 0
    assert select_best([0.9, 0.3, 0.26, 1.0], "range", eps) == 1
    # a cost equal to the threshold qualifies
    assert select_best([0.6, 0.3], "range", eps) == 0
    assert select_best([7.0, 0.4], "range", eps) == 1
    # a zero minimum: argmin's index
    assert select_best([0.9, 0.0, 1.0, 0.0], "range", eps) == 1
    assert select_best([0.0, 0.0, 0.0], "range", eps) == 0
    # a subnormal minimum, and costs whose ratio is beyond float range
    assert select_best([1e-320, 1e10], "range", eps) == 0
    assert select_best([1e-300, 1e300], "range", eps) == 0
    # infeasible entries never qualify
    assert select_best([math.inf, 0.9, 1.0], "range", eps) == 1
    assert select_best([math.inf, 0.9, math.inf, 0.2], "range", eps) == 3


def test_select_range_winner_near_optimal():
    rng = np.random.default_rng(6)
    for _ in range(50):
        costs = rng.random(20) * 10
        eps = 0.3
        w = select_best(costs, "range", eps)
        assert costs[w] <= costs.min() / (1 - eps) + 1e-12


def test_select_range_validation():
    with pytest.raises(ValueError):
        select_best([1.0], "range", None)
    with pytest.raises(ValueError):
        select_best([1.0], "bogus")


def test_select_range_rules_without_a_cap():
    # every feasible cost 0: argmin decides
    assert select_best([math.inf, 0.0, 0.0], "range", 0.5) == 1
    # epsilon is checked whatever the costs are
    for costs in ([0.0], [math.inf], [2.0, 1.0]):
        with pytest.raises(ValueError, match="epsilon in"):
            select_best(costs, "range", 1.0)
    with pytest.raises(InfeasiblePartitionError, match="no feasible candidate to select from"):
        select_best([math.inf], "range", 0.5)


# full pipeline ----------------------------------------------------------------

def test_pipeline_pass_counts():
    ds, _ = planted(7)
    pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                       np.random.default_rng(8))
    assert pr.passes_used == 4
    assert pr.d_star is None
    pr2 = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                        np.random.default_rng(8), aspect_removal=True)
    assert pr2.passes_used == 5
    assert pr2.d_star is not None


def test_pipeline_rejects_chromatic():
    ds, _ = planted(9)
    with pytest.raises(ValueError):
        full_pipeline(ArraySource(ds), 3, Variant.chromatic(), CFG,
                      np.random.default_rng(0))


@pytest.mark.parametrize("bits", [0, 63])
def test_precision_bits_are_checked_before_the_first_pass(monkeypatch, bits):
    ds, _ = planted(9)
    source = ArraySource(ds)
    with pytest.raises(ValueError, match="precision_bits out of range"):
        full_pipeline(source, 3, Variant.classical(), CFG, np.random.default_rng(0),
                      precision_bits=bits)
    assert source.passes == 0

    def refuse(*args, **kwargs):
        raise AssertionError("batch_solve seeded before checking precision_bits")
    monkeypatch.setattr(streaming, "d2_seed", refuse)
    with pytest.raises(ValueError, match="precision_bits out of range"):
        batch_solve(ds, 3, Variant.classical(), CFG, np.random.default_rng(0),
                    precision_bits=bits)


def test_the_winner_rule_is_checked_before_the_first_pass(monkeypatch):
    ds, _ = planted(9)
    source = ArraySource(ds)
    with pytest.raises(ValueError, match="unknown selection mode 'rnage'"):
        full_pipeline(source, 3, Variant.classical(), CFG, np.random.default_rng(0),
                      select_mode="rnage")
    assert source.passes == 0

    def refuse(*args, **kwargs):
        raise AssertionError("batch_solve seeded before checking select_mode")
    monkeypatch.setattr(streaming, "d2_seed", refuse)
    with pytest.raises(ValueError, match="unknown selection mode 'rnage'"):
        batch_solve(ds, 3, Variant.classical(), CFG, np.random.default_rng(0),
                    select_mode="rnage")


class _TargetsGoneOnPass(ArraySource):
    """Drops the target column from pass `gone` on."""

    def __init__(self, ds, gone):
        super().__init__(ds, block=16)
        self.gone = gone

    def _joins(self, rows):
        for pts, colors, targets in super()._joins(rows):
            yield pts, colors, None if self.passes >= self.gone else targets


def test_pipeline_semi_supervised_needs_targets():
    """One message for a missing target column: in batch, in the scoring
    pass and in the assign pass."""
    ds, info = planted(10)
    message = "semi_supervised needs a target column"
    with pytest.raises(ValueError, match=message):
        batch_solve(ds, 3, Variant.semi_supervised(0.5), CFG, np.random.default_rng(0))
    labeled = with_targets(ds, info["labels"])
    for gone in (3, 4):         # the scoring pass, then the assign pass
        source = _TargetsGoneOnPass(labeled, gone)
        with pytest.raises(ValueError, match=message):
            full_pipeline(source, 3, Variant.semi_supervised(0.5), CFG,
                          np.random.default_rng(0))
        assert source.passes == gone


def test_pipeline_replay_determinism():
    ds, _ = planted(11)
    a = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                      np.random.default_rng(12))
    b = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                      np.random.default_rng(12))
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.owners, b.owners)
    assert a.cost == b.cost and a.selected == b.selected


def test_pipeline_owner_structure_and_cost_recompute():
    ds, _ = planted(13)
    pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                       np.random.default_rng(14))
    assert len(pr.owners) == 48
    assert all(len(o) == 1 and 0 <= o[0] < 3 for o in pr.owners)
    # peeled cost is the real per-point cost of the emitted owners
    manual = sum(float(np.dot(ds.points[i] - pr.centers[o[0]],
                              ds.points[i] - pr.centers[o[0]]))
                 for i, o in enumerate(pr.owners))
    assert pr.cost == pytest.approx(manual, rel=1e-9)
    # peeled owners can never beat the float Voronoi optimum for these centers
    voronoi = phi_cost(pr.centers, ds.points)
    assert pr.cost >= voronoi - 1e-9
    # and stay within the compression band of the exact partition cost
    exact = partition_cost(Dataset(ds.points), pr.centers, Variant.classical())
    assert pr.cost <= exact * (1 + 3 * CFG.epsilon) + 1e-9


def test_pipeline_constrained_owners_respect_bounds():
    ds, _ = planted(15)
    pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.r_gather(12), CFG,
                       np.random.default_rng(16))
    counts = np.bincount([o[0] for o in pr.owners], minlength=3)
    assert np.all(counts >= 12)
    pr2 = full_pipeline(ArraySource(ds, block=16), 3, Variant.r_capacity(20), CFG,
                        np.random.default_rng(16))
    counts2 = np.bincount([o[0] for o in pr2.owners], minlength=3)
    assert np.all(counts2 <= 20)


def test_pipeline_fault_tolerant_owner_tuples():
    ds, _ = planted(17)
    pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.fault_tolerant(2), CFG,
                       np.random.default_rng(18))
    assert pr.owners.shape == (48, 2)
    for own in pr.owners.tolist():
        assert own == sorted(set(own))


def test_pipeline_semi_supervised_cost_is_a_matching_blend():
    # a few targets disagree with the geometry, so the penalty term is live
    ds, info = planted(31)
    targets = np.array(info["labels"])
    targets[::7] = (targets[::7] + 1) % 3
    ds = with_targets(ds, targets)
    alpha = 0.5
    pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.semi_supervised(alpha), CFG,
                       np.random.default_rng(32))
    assert len(pr.owners) == 48 and all(len(o) == 1 for o in pr.owners)
    own = np.array([o[0] for o in pr.owners])
    sq = pairwise_sqdist(ds.points, pr.centers)[np.arange(48), own]
    blends = [float(np.sum(alpha * sq + (1 - alpha) * (targets != np.array(perm)[own])))
              for perm in itertools.permutations(range(3))]
    assert min(abs(b - pr.cost) for b in blends) <= 1e-9
    assert pr.cost > alpha * sq.sum()   # some emitted owner pays the mismatch


def count_graph_objects(monkeypatch):
    """Count the CompressedGraph, KeyBuilder and CompressedSolution
    objects built from here on, and the compressed_partition calls."""
    built = {"graphs": 0, "builders": 0, "solutions": 0, "solves": 0}
    for cls, key in ((CompressedGraph, "graphs"), (KeyBuilder, "builders"),
                     (CompressedSolution, "solutions")):
        def counting(self, *args, _key=key, _init=cls.__init__, **kw):
            built[_key] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counting)
    solve = streaming.compressed_partition

    def counting_solve(*args, **kw):
        built["solves"] += 1
        return solve(*args, **kw)
    monkeypatch.setattr(streaming, "compressed_partition", counting_solve)
    return built


def test_pipeline_aspect_builds_one_graph_per_candidate(monkeypatch):
    built = count_graph_objects(monkeypatch)
    ds, _ = planted(33)
    pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.r_capacity(48), CFG,
                       np.random.default_rng(34), aspect_removal=True)
    assert built["graphs"] == built["solves"] == pr.list_size


@pytest.mark.parametrize("aspect", [False, True])
@pytest.mark.parametrize("kind", ["classical", "fault_tolerant", "semi_supervised"])
def test_closed_form_streams_build_no_graph(monkeypatch, kind, aspect):
    # scored and assigned by their closed form: no graph, no key builder,
    # no flow solve and no peel
    ds, info = planted(33)
    ds = with_targets(ds, info["labels"])
    variant = {"classical": Variant.classical(), "fault_tolerant": Variant.fault_tolerant(2),
               "semi_supervised": Variant.semi_supervised(0.5)}[kind]
    built = count_graph_objects(monkeypatch)
    pr = full_pipeline(ArraySource(ds, block=16), 3, variant, CFG, np.random.default_rng(34),
                       aspect_removal=aspect)
    assert built == {"graphs": 0, "builders": 0, "solutions": 0, "solves": 0}
    assert pr.passes_used == (5 if aspect else 4) and len(pr.owners) == ds.n


@pytest.mark.parametrize("kind", ["gaussian", "cauchy", "duplicates"])
def test_pipeline_aspect_guess_keeps_every_center_within_2u(monkeypatch, kind):
    """The scale guess u of the aspect floors full_pipeline sets keeps
    every point within 2u of every center of its candidate; aspect
    removal relies on it to need no cut of far centers.  u is read back
    from the floor (u/n^2)^2."""
    guesses = []
    floor = streaming.aspect_floor

    def recording(centers, d_star, n):
        below = floor(centers, d_star, n)
        guesses.append((centers, below * n**4))
        return below

    monkeypatch.setattr(streaming, "aspect_floor", recording)
    rng = np.random.default_rng(41)
    if kind == "gaussian":
        ds, _ = planted(41)
    elif kind == "cauchy":
        ds = Dataset(rng.standard_cauchy(size=(48, 2)))
    else:
        ds, _ = duplicate_groups(48, 3, rng=rng)
    full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                  np.random.default_rng(42), aspect_removal=True)
    assert guesses
    for C, u_squared in guesses:
        assert pairwise_sqdist(ds.points, C).max() <= 4.0 * u_squared * (1 + 1e-12)


def test_pipeline_infeasible_raises():
    ds, _ = planted(19)
    with pytest.raises(InfeasiblePartitionError):
        full_pipeline(ArraySource(ds, block=16), 3, Variant.r_gather(30), CFG,
                      np.random.default_rng(20))


def test_stream_matches_batch_on_duplicates():
    # planted sites are exactly recoverable, so paired runs must both land on 0
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                            eta=16, tau=2, repetitions=4, subset_budget=150)
    hits = 0
    for s in range(5):
        ds, _ = duplicate_groups(36, 3, rng=np.random.default_rng(400 + s))
        br = batch_solve(ds, 3, Variant.classical(), cfg, np.random.default_rng(500 + s))
        pr = full_pipeline(ArraySource(ds, block=12), 3, Variant.classical(), cfg,
                           np.random.default_rng(500 + s))
        if br.cost == 0.0 and pr.cost == 0.0:
            hits += 1
    assert hits >= 4


def test_batch_solve_matches_manual_pipeline():
    ds, _ = planted(21)
    rng = np.random.default_rng(22)
    br = batch_solve(ds, 3, Variant.classical(), CFG, np.random.default_rng(22))
    seed = d2_seed(ds.points, 3, rng=rng)
    cands = good_centers(ds.points, seed.centers, CFG, rng)
    costs = [partition_cost(Dataset(ds.points), e.centers, Variant.classical())
             for e in cands.entries]
    w = int(np.argmin(costs))
    assert br.selected == w
    assert br.flow_cost == costs[w]
    assert np.array_equal(br.centers, cands.entries[w].centers)


# the closed forms in batch: one exact total per candidate, at any --bits

CLOSED = (Variant.classical(), Variant.fault_tolerant(2), Variant.semi_supervised(0.5))
EXACT_CFG = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                              eta=16, tau=1, repetitions=2, subset_budget=4)


def labeled_groups(n, seed):
    """gaussian_groups with its planted labels as targets."""
    ds, info = gaussian_groups(n, 3, rng=np.random.default_rng(seed))
    return Dataset(ds.points, targets=np.asarray(info["labels"]))


def exact_cost(ds, centers, variant) -> float:
    """A closed form's cost, each sum rounded once (math.fsum)."""
    W = pairwise_sqdist(ds.points, centers)
    if variant.kind == "semi_supervised":
        return min(math.fsum(semi_supervised_cost_terms(W, ds.targets, variant.alpha, perm)
                             .min(axis=1)) for perm in itertools.permutations(range(3)))
    return math.fsum(np.sort(W, axis=1)[:, :variant.l or 1].ravel())


def test_batch_closed_forms_score_their_exact_total_at_any_bits():
    ds = labeled_groups(4000, 7)
    for variant in CLOSED:
        runs = [batch_solve(ds, 3, variant, EXACT_CFG, np.random.default_rng(1),
                            precision_bits=bits) for bits in (8, 32, 62)]
        for res in runs:
            # the winner's score is the total its owners' costs sum to
            assert float(res.flow_cost).hex() == float(res.cost).hex(), variant
        assert len({(r.selected, float(r.cost).hex(), r.owners.tobytes()) for r in runs}) == 1


def test_batch_selects_the_exact_argmin_at_8_bits():
    # on 8-bit costs, each candidate quantized on its own scale, candidate 1
    # once scored 0.0 and won at a real cost of 28.33; candidate 4 costs 24.818
    ds = labeled_groups(4000, 7)
    for variant, want in zip(CLOSED, (4, 1, 4)):
        res = batch_solve(ds, 3, variant, EXACT_CFG, np.random.default_rng(1), precision_bits=8)
        exact = [exact_cost(ds, e.centers, variant) for e in res.candidates.entries]
        assert res.selected == int(np.argmin(exact)) == want, variant
        assert res.cost == pytest.approx(exact[want], rel=1e-12)
        if variant.kind == "classical":
            assert res.cost == pytest.approx(24.818208138815, rel=1e-12)


@pytest.mark.parametrize("mode", ["argmin", "range"])
def test_batch_closed_forms_solve_no_candidate_alone(monkeypatch, mode):
    # every candidate's cost comes from the one exact pass, in range mode too
    calls = []
    for name in ("partition_cost", "partition_assign"):
        def spy(*args, _real=getattr(streaming, name), _name=name, **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(streaming, name, spy)
    ds = labeled_groups(300, 5)
    for variant in CLOSED:
        got = batch_solve(ds, 3, variant, SMALL, np.random.default_rng(2), select_mode=mode)
        same_batch_result(got, batch_solve_scoring_all(ds, 3, variant, SMALL,
                                                       np.random.default_rng(2),
                                                       select_mode=mode))
    assert calls == []


# bound-ordered batch scoring: the same winner as solving every candidate

SMALL = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                          eta=8, tau=1, repetitions=2, subset_budget=10)


def same_batch_result(got, want):
    assert got.selected == want.selected
    assert repr(got.cost) == repr(want.cost)
    assert repr(got.flow_cost) == repr(want.flow_cost)
    assert np.array_equal(got.owners, want.owners)
    assert np.array_equal(got.centers, want.centers)


def test_bound_ordered_scoring_matches_scoring_every_candidate():
    for s in range(20):
        ds, _ = planted(600 + s)
        rng = np.random.default_rng(s)
        ds = Dataset(ds.points, colors=np.arange(48) % 16, targets=rng.integers(0, 3, 48))
        bits = (8, 32, 62)[s % 3]
        for variant in (Variant.classical(), Variant.r_gather(12 + s % 5),
                        Variant.r_capacity(16 + s % 3), Variant.chromatic(),
                        Variant.fault_tolerant(1 + s % 3), Variant.semi_supervised(0.5)):
            for mode in ("argmin", "range"):
                def run(solve):
                    return solve(ds, 3, variant, SMALL, np.random.default_rng(700 + s),
                                 select_mode=mode, precision_bits=bits)
                try:
                    want = run(batch_solve_scoring_all)
                except InfeasiblePartitionError as e:
                    with pytest.raises(InfeasiblePartitionError, match=str(e)):
                        run(batch_solve)
                    continue
                same_batch_result(run(batch_solve), want)


def solve_listed(monkeypatch, X, listed, variant, bits=62, mode="argmin"):
    """batch_solve and the full-scoring reference on the candidate list
    `listed` (center arrays, in order), in selection mode `mode`."""
    k, d = listed[0].shape
    cands = CandidateList([CandidateEntry(np.asarray(C, dtype=float), 0, ())
                           for C in listed], k, d)
    monkeypatch.setattr(streaming, "good_centers", lambda *a: cands)
    cfg = GoodCentersConfig(t=k, epsilon=0.5, preset="desk")
    got = batch_solve(X, k, variant, cfg, np.random.default_rng(0), select_mode=mode,
                      precision_bits=bits)
    want = batch_solve_scoring_all(X, k, variant, cfg, np.random.default_rng(0),
                                   select_mode=mode, precision_bits=bits)
    same_batch_result(got, want)
    return got


LINE = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0], [13.0, 0.0]])
TIGHT = np.array([[4.0, 0.0], [5.0, 0.0]])    # row argmin meets r_gather(2): cost 158
LOOSE = np.array([[-2.0, 0.0], [5.0, 0.0]])   # row argmin 151, one repair: cost 158
FAR = np.array([[40.0, 0.0], [50.0, 0.0]])


def test_equal_cost_duplicates_go_to_the_lowest_index(monkeypatch):
    for variant in (Variant.classical(), Variant.r_gather(2)):
        got = solve_listed(monkeypatch, LINE, [FAR, TIGHT, FAR, TIGHT, TIGHT], variant)
        assert got.selected == 1


def test_a_lower_index_whose_bound_equals_the_best_cost_is_solved(monkeypatch):
    v = Variant.r_gather(2)
    assert partition_bounds(LINE, np.stack([TIGHT, LOOSE]), v,
                            precision_bits=62).tolist() == [158.0, 151.0]
    assert partition_cost(LINE, TIGHT, v, precision_bits=62) == 158.0
    assert partition_cost(LINE, LOOSE, v, precision_bits=62) == 158.0
    # LOOSE is solved first, by its lower bound; TIGHT's bound then ties
    # the best cost at a lower index, so TIGHT must be solved and win
    assert solve_listed(monkeypatch, LINE, [TIGHT, LOOSE], v).selected == 0
    assert solve_listed(monkeypatch, LINE, [LOOSE, TIGHT], v).selected == 0


def test_range_mode_walk_skips_high_bounds_and_solves_each_candidate_once(monkeypatch):
    v = Variant.r_gather(2)

    def solves(X, listed, mode):
        # batch_solve's winner and the indices it solved, in order
        solved = []

        def spy(X, C, *args, **kw):
            solved.append(next(i for i, c in enumerate(listed) if np.array_equal(c, C)))
            return partition_cost(X, C, *args, **kw)

        monkeypatch.setattr(streaming, "partition_cost", spy)
        return solve_listed(monkeypatch, X, listed, v, mode=mode).selected, solved

    near, best = np.array([[0.0, 0.0], [11.0, 0.0]]), np.array([[1.0, 0.0], [12.0, 0.0]])
    listed = [FAR, TIGHT, near, best]
    bounds = partition_bounds(LINE, np.stack(listed), v, precision_bits=62).tolist()
    costs = [partition_cost(LINE, C, v, precision_bits=62) for C in listed]
    limit = costs[3] / (1.0 - 0.5)
    # argmin picks `best`; `near` is within the threshold at a lower
    # index; FAR and TIGHT come first, but their bounds exceed it
    assert costs[3] == min(costs) and costs[2] <= limit < min(bounds[:2])
    assert solves(LINE, listed, "argmin") == (3, [3])
    assert solves(LINE, listed, "range") == (2, [3, 2])

    # the argmin search solves `cheap` first, by its bound, then `dear`;
    # the walk passes `cheap` again (bound within the threshold, cost
    # above it) and must not solve it twice
    square = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [10.0, 0.0]])
    cheap, dear = np.array([[0.5, 0.5], [11.0, 0.0]]), np.array([[0.5, 0.5], [5.0, 0.0]])
    bounds = partition_bounds(square, np.stack([cheap, dear]), v, precision_bits=62).tolist()
    costs = [partition_cost(square, C, v, precision_bits=62) for C in (cheap, dear)]
    assert bounds[0] < bounds[1] < costs[1] / (1.0 - 0.5) < costs[0]
    assert solves(square, [cheap, dear], "range") == (1, [0, 1])


def test_an_all_infeasible_list_raises_as_before(monkeypatch):
    with pytest.raises(InfeasiblePartitionError, match="no feasible candidate to select from"):
        solve_listed(monkeypatch, LINE, [TIGHT, LOOSE, FAR], Variant.r_gather(3))
    with pytest.raises(InfeasiblePartitionError, match="no feasible candidate to select from"):
        batch_solve_scoring_all(LINE, 2, Variant.r_gather(3),
                                GoodCentersConfig(t=2, epsilon=0.5, preset="desk"),
                                np.random.default_rng(0))


def test_batch_solve_solves_few_candidates_exactly(monkeypatch):
    # the batch-gather shape: n = 200, r_gather(50), 2 repetitions of budget 10
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                            eta=16, tau=1, repetitions=2, subset_budget=10)
    solved = []

    def spy(*args, **kw):
        solved.append(1)
        return partition_cost(*args, **kw)

    monkeypatch.setattr(streaming, "partition_cost", spy)
    for s in range(3):
        ds, info = gaussian_groups(200, 3, rng=np.random.default_rng(s))
        # the planted labels as targets, which semi_supervised reads
        ds = Dataset(ds.points, targets=np.asarray(info["labels"]))
        # the closed forms solve none: one exact pass scores every candidate
        for variant, most in ((Variant.r_gather(50), 3), (Variant.classical(), 0),
                              (Variant.fault_tolerant(2), 0), (Variant.semi_supervised(0.5), 0)):
            solved.clear()
            res = batch_solve(ds, 3, variant, cfg, np.random.default_rng(1))
            assert res.list_size == 20
            assert min(1, most) <= len(solved) <= most


def test_batch_range_mode_solves_argmins_candidates_and_its_walk(monkeypatch):
    # 200 candidates: range mode solves argmin's candidates, then, in index
    # order up to its winner, each one not yet solved whose bound is within
    # the threshold; nothing else, and nothing twice
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                            eta=16, tau=2, repetitions=2, subset_budget=100)
    solved = []

    def spy(X, C, *args, **kw):
        solved.append(C)
        return partition_cost(X, C, *args, **kw)

    monkeypatch.setattr(streaming, "partition_cost", spy)
    for s in range(3):
        ds, _ = gaussian_groups(600, 3, rng=np.random.default_rng(s))
        variant = Variant.r_gather(100)
        runs = {}
        for mode in ("argmin", "range"):
            solved.clear()
            res = batch_solve(ds, 3, variant, cfg, np.random.default_rng(1), select_mode=mode)
            index = {id(e.centers): i for i, e in enumerate(res.candidates.entries)}
            runs[mode] = res, [index[id(C)] for C in solved]
        (low, by_argmin), (ranged, by_range) = runs["argmin"], runs["range"]
        assert ranged.list_size == 200
        limit = low.flow_cost / (1.0 - cfg.epsilon)
        stack = np.stack([e.centers for e in low.candidates.entries])
        bounds = partition_bounds(ds, stack, variant, precision_bits=32)
        walk = [i for i in range(ranged.selected + 1)
                if bounds[i] <= limit and i not in by_argmin]
        assert by_range == by_argmin + walk
        assert len(by_range) < 20
        same_batch_result(ranged, batch_solve_scoring_all(ds, 3, variant, cfg,
                                                          np.random.default_rng(1),
                                                          select_mode="range"))


def test_pipeline_space_phases_present():
    ds, _ = planted(23)
    meter = SpaceMeter()
    full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                  np.random.default_rng(24), meter=meter)
    names = [p["name"] for p in meter.report()["phases"]]
    assert names == ["seed", "sample", "graph", "assign"]
    assert meter.peak_points > 0 and meter.peak_words > 0


# (block, chunk, aspect removal) -> the space report; the chunks of 33
# rows straddle blocks of 7, and chunks of 10 split blocks of 1,000.
# The graph phase holds one running total per candidate (180 of them),
# the assign phase the winner's
PINNED_SPACE = {
    (7, 33, False): (546, 696, {"seed": (69, 0), "sample": (546, 696), "graph": (546, 180),
                                "assign": (546, 1)}),
    (1000, 10, True): (546, 648, {"seed": (130, 0), "sample": (546, 648), "scale": (546, 0),
                                  "graph": (546, 180), "assign": (546, 1)}),
}


@pytest.mark.parametrize("block,chunk,aspect", sorted(PINNED_SPACE))
def test_pipeline_space_report_is_pinned(block, chunk, aspect):
    ds, _ = planted(31, n=200)
    res = full_pipeline(ArraySource(ds, block=block), 3, Variant.classical(), CFG,
                        np.random.default_rng(32), chunk=chunk, aspect_removal=aspect)
    peak_points, peak_words, phases = PINNED_SPACE[block, chunk, aspect]
    assert res.space == {
        "peak_points": peak_points, "peak_words": peak_words,
        "phases": [{"name": name, "peak_points": pp, "peak_words": pw}
                   for name, (pp, pw) in phases.items()]}


@pytest.mark.parametrize("block", [7, 1000])
def test_sample_phase_charges_its_banks_words(block):
    # each repetition's bank holds a threshold and a draw-row counter per
    # reservoir, eta * t of them, besides its pending draws; all are
    # freed once the list is built
    ds, _ = planted(31, n=200)
    meter = SpaceMeter()
    two_pass_good_centers(ArraySource(ds, block=block), 3, CFG, np.random.default_rng(32),
                          meter=meter)
    p = CFG.resolved()
    phases = {ph["name"]: ph for ph in meter.report()["phases"]}
    assert phases["sample"]["peak_words"] >= p["repetitions"] * 2 * p["eta"] * p["t"]
    assert meter.current_words == 0


def test_sample_phase_charges_each_repetitions_segment_in_turn():
    # after each offer the meter charges the bank's total words once.  Here
    # one segment's pending draws grow in an offer in which another's
    # shrink; charging the segments one repetition at a time would count
    # one's new words with the other's old ones, and peak at 792 words
    ds, _ = gaussian_groups(6000, 3, rng=np.random.default_rng(2))
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=8, tau=1, repetitions=3,
                            subset_budget=4)
    meter = SpaceMeter()
    two_pass_good_centers(ArraySource(ds, block=256), 3, cfg, np.random.default_rng(102),
                          meter=meter)
    assert meter.report()["phases"][1] == {"name": "sample", "peak_points": 78,
                                           "peak_words": 768}


@pytest.mark.parametrize("case", ["segments", "two repetitions"])
def test_sample_phase_peak_is_the_banks_largest_total(monkeypatch, case):
    # the phase reports a state the bank held: the words held before it
    # plus the bank's largest total, read when it is made and after each offer
    meter, base, observed = SpaceMeter(), [], []

    class Watched(ReservoirBank):
        def __init__(self, *args):
            super().__init__(*args)
            base.append(meter.current_words)
            observed.append(self.words)

        def offer_block(self, *args):
            super().offer_block(*args)
            observed.append(self.words)

    monkeypatch.setattr(streaming, "ReservoirBank", Watched)
    if case == "segments":
        ds, _ = gaussian_groups(6000, 3, rng=np.random.default_rng(2))
        cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=8, tau=1,
                                repetitions=3, subset_budget=4)
        source, rng = ArraySource(ds, block=256), np.random.default_rng(102)
    else:
        ds, _ = gaussian_groups(20_000, 3, rng=np.random.default_rng(23))
        source, cfg, rng = ArraySource(ds, block=256), EXACT_CFG, np.random.default_rng(1)
    two_pass_good_centers(source, 3, cfg, rng, meter=meter)
    phases = {ph["name"]: ph for ph in meter.report()["phases"]}
    assert len(base) == 1 and len(observed) > 2
    assert phases["sample"]["peak_words"] == base[0] + max(observed)


def test_graph_phase_charges_each_vertex_key_and_count(monkeypatch):
    # a vertex holds k slots and its count: k + 1 words
    ds, info = gaussian_groups(900, 3, sigma=0.05, rng=np.random.default_rng(3))
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=8, tau=1, repetitions=2,
                            subset_budget=4)
    built, init = [], KeyBuilder.__init__

    def init_spy(kb, graphs):
        built.append(graphs)
        init(kb, graphs)
    monkeypatch.setattr(KeyBuilder, "__init__", init_spy)
    meter = SpaceMeter()
    full_pipeline(ArraySource(ds, block=64), 3, Variant.r_capacity(900), cfg,
                  np.random.default_rng(5), meter=meter)
    (graphs,) = [g for g in built if len(g) > 1]
    phases = {p["name"]: p for p in meter.report()["phases"]}
    assert all(g.words == len(g.vertices) * (g.k + 1) for g in graphs)
    assert phases["graph"]["peak_words"] == sum(g.words for g in graphs) > 0


def test_pipeline_frees_losing_candidates_before_assign():
    ds, _ = planted(23)
    for aspect in (False, True):
        for variant in (Variant.r_capacity(48), Variant.classical()):
            meter = SpaceMeter()
            pr = full_pipeline(ArraySource(ds, block=16), 3, variant, CFG,
                               np.random.default_rng(24), aspect_removal=aspect, meter=meter)
            assert pr.list_size > 1
            phases = {p["name"]: p for p in meter.report()["phases"]}
            if variant.kind == "classical":
                # a running total per candidate; the winner's stays
                assert phases["graph"]["peak_words"] == pr.list_size
                assert phases["assign"]["peak_words"] == 1
                continue
            # the graph phase holds every candidate's graph and sets the global peak
            assert meter.peak_words == phases["graph"]["peak_words"]
            assert 0 < phases["assign"]["peak_words"] < phases["graph"]["peak_words"]


def test_pipelines_reject_t_above_k():
    ds, _ = planted(23)
    with pytest.raises(ValueError, match="t=3 centers per candidate exceeds k=2"):
        full_pipeline(ArraySource(ds, block=16), 2, Variant.classical(), CFG,
                      np.random.default_rng(24))
    with pytest.raises(ValueError, match="exceeds k=2"):
        batch_solve(ds, 2, Variant.classical(), CFG, np.random.default_rng(24))


def test_pipelines_reject_t_below_k():
    # a 3-tuple list cannot answer k=4: the pipelines would emit 3 centers
    ds, _ = planted(23)
    with pytest.raises(ValueError, match="t=3 centers per candidate is below k=4"):
        full_pipeline(ArraySource(ds, block=16), 4, Variant.classical(), CFG,
                      np.random.default_rng(24))
    with pytest.raises(ValueError, match="is below k=4"):
        batch_solve(ds, 4, Variant.classical(), CFG, np.random.default_rng(24))


def test_pipeline_aspect_feasible_and_close():
    ds, _ = planted(25)
    pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(), CFG,
                       np.random.default_rng(26), aspect_removal=True)
    exact = partition_cost(Dataset(ds.points), pr.centers, Variant.classical())
    assert math.isfinite(pr.cost)
    # contraction may only perturb costs at the u^2/n^3 scale
    assert pr.cost <= exact * (1 + 0.5) + 1e-6 and exact <= pr.cost * (1 + 0.5) + 1e-6


def test_range_selection_end_to_end(monkeypatch):
    # the benchmark's stream knobs: in both pipelines the range winner is
    # the first candidate within 1/(1 - eps) of the argmin run's cost
    scored = []

    def spy(costs, *args):
        scored.append(np.asarray(costs, dtype=np.float64).copy())
        return select_best(costs, *args)

    monkeypatch.setattr(streaming, "select_best", spy)
    ds, _ = gaussian_groups(4000, 3, rng=np.random.default_rng(7))
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=16, tau=1,
                            repetitions=2, subset_budget=4)
    bound = 1.0 / (1.0 - cfg.epsilon)
    for seed in range(1, 21):
        for solve in (lambda mode: batch_solve(ds, 3, Variant.classical(), cfg,
                                               np.random.default_rng(seed), select_mode=mode),
                      lambda mode: full_pipeline(ArraySource(ds, block=256), 3,
                                                 Variant.classical(), cfg,
                                                 np.random.default_rng(seed), select_mode=mode)):
            scored.clear()
            ranged, best = solve("range"), solve("argmin")
            assert math.isfinite(ranged.cost)
            assert ranged.flow_cost <= bound * best.flow_cost, seed
            costs = scored[0]
            assert costs.min() == best.flow_cost
            first = int(np.flatnonzero(costs <= best.flow_cost / (1.0 - cfg.epsilon))[0])
            assert ranged.selected == first, seed


# joined passes -----------------------------------------------------------------

JOIN_CFG = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=4, tau=1,
                             repetitions=2, subset_budget=4)


def spread_groups(n, dim=2):
    # wide groups: a block of them holds many distinct slot rows
    ds, info = gaussian_groups(n, 3, dim=dim, sigma=0.5, rng=np.random.default_rng(2))
    return with_targets(ds, info["labels"])


def joined_run(monkeypatch, ds, block, variant, aspect):
    """full_pipeline on ds in `block`-row source blocks, and what its
    scoring and assign passes saw: the rows of each array they measured,
    the row table's size after every bucket_block call (graph variants
    only), and the list's |U|·d."""
    source = ArraySource(ds, block=block)
    scoring = 4 if aspect else 3
    seen = {"graph": [], "assign": [], "table": []}
    measure, bucket = streaming.pairwise_sqdist, KeyBuilder.bucket_block

    def measure_spy(X, C):
        if source.passes == scoring:
            seen["graph"].append(len(X))
            seen["entries"] = np.size(C)
        elif source.passes == scoring + 1:
            seen["assign"].append(len(X))
        return measure(X, C)

    def bucket_spy(kb, sq, bound=None):
        bucket(kb, sq, bound)
        seen["table"].append(len(kb.table))

    with monkeypatch.context() as mp:
        # the graph variants' peel measures its block in partition
        mp.setattr(streaming, "pairwise_sqdist", measure_spy)
        mp.setattr(partition_module, "pairwise_sqdist", measure_spy)
        mp.setattr(KeyBuilder, "bucket_block", bucket_spy)
        pr = full_pipeline(source, 3, variant, JOIN_CFG, np.random.default_rng(5),
                           aspect_removal=aspect)
    return pr, seen


def same_result(a, b):
    assert a.centers.tobytes() == b.centers.tobytes()
    assert np.array_equal(a.owners, b.owners)
    assert (a.cost, a.flow_cost, a.selected, a.d_star) == (b.cost, b.flow_cost, b.selected,
                                                           b.d_star)
    assert a.space == b.space and a.passes_used == b.passes_used


@pytest.mark.parametrize("aspect", [False, True])
@pytest.mark.parametrize("kind", ["classical", "semi_supervised"])
@pytest.mark.parametrize("block", [1, 7, 256])
def test_passes_after_sampling_join_blocks_to_the_budget(monkeypatch, block, kind, aspect):
    ds = spread_groups(3000)
    variant = Variant.classical() if kind == "classical" else Variant.semi_supervised(0.5)
    pr, seen = joined_run(monkeypatch, ds, block, variant, aspect)
    rows = max(block, streaming.ENTRIES // seen["entries"])
    assert rows > block                 # at d = 2 the budget joins blocks
    for got in (seen["graph"], seen["assign"]):
        assert sum(got) == ds.n and len(got) >= 3
        assert all(rows <= r < rows + block for r in got[:-1]), got
    # a budget of one entry joins no blocks, and the outputs do not move
    monkeypatch.setattr(streaming, "ENTRIES", 1)
    alone, seen = joined_run(monkeypatch, ds, block, variant, aspect)
    assert max(seen["graph"] + seen["assign"]) == block
    same_result(pr, alone)


@pytest.mark.parametrize("aspect", [False, True])
def test_a_wide_list_reads_one_source_block_at_a_time(monkeypatch, aspect):
    # at d = 64 the budget is below a block of 64 rows: nothing is joined
    ds = spread_groups(600, dim=64)
    _pr, seen = joined_run(monkeypatch, ds, 64, Variant.classical(), aspect)
    assert streaming.ENTRIES // seen["entries"] < 64
    blocks = [64] * 9 + [24]
    assert seen["graph"] == blocks and seen["assign"] == blocks


@pytest.mark.parametrize("aspect", [False, True])
@pytest.mark.parametrize("block", [7, 64])
def test_pipeline_row_table_stays_within_a_source_block(monkeypatch, block, aspect):
    # at d = 8 a joined array holds more distinct slot rows than a block
    ds = spread_groups(3000, dim=8)
    _pr, seen = joined_run(monkeypatch, ds, block, Variant.r_capacity(3000), aspect)
    assert max(seen["graph"]) > block
    assert max(seen["table"]) <= block
