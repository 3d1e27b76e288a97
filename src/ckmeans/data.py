"""Dataset container, CSV round trip, and synthetic instance generators.

CSV layout: a header row naming the coordinate columns (x0, x1, ...)
optionally followed by literal `color` and/or `target` columns, then
one point per row.  Color and target values are non-negative integers.
There is one reader, iter_dataset_csv, which holds one block of rows at a
time; read_dataset_csv joins its blocks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_points


@dataclass
class Dataset:
    points: np.ndarray
    colors: np.ndarray | None = None
    targets: np.ndarray | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        bad = np.flatnonzero(~np.isfinite(self.points).all(axis=1))
        if bad.size:
            raise ValueError(f"point {int(bad[0])} has a non-finite coordinate")
        for name in ("colors", "targets"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=np.int64)
            if v.shape != (self.points.shape[0],):
                raise ValueError(f"{name} must have one entry per point")
            if np.any(v < 0):
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, v)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def write_dataset_csv(path, ds: Dataset) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = [f"x{i}" for i in range(ds.dim)]
        if ds.colors is not None:
            header.append("color")
        if ds.targets is not None:
            header.append("target")
        w.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.points[i]]
            if ds.colors is not None:
                row.append(int(ds.colors[i]))
            if ds.targets is not None:
                row.append(int(ds.targets[i]))
            w.writerow(row)


def _read_header(path, reader) -> tuple[int, int, list]:
    """(coordinate columns, all columns, trailing column names) of a
    validated header row."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty dataset file")
    header = [h.strip() for h in header]
    extras = [h for h in header if h in ("color", "target")]
    coord_cols = len(header) - len(extras)
    if coord_cols < 1:
        raise ValueError(f"{path}: no coordinate columns in header")
    if header[:coord_cols] != [f"x{i}" for i in range(coord_cols)]:
        raise ValueError(f"{path}: coordinate columns must be named x0..x{coord_cols - 1}")
    if header[coord_cols:] not in ([], ["color"], ["target"], ["color", "target"]):
        raise ValueError(f"{path}: trailing columns must be color and/or target, in that order")
    return coord_cols, len(header), header[coord_cols:]


def _parse_rows(path, columns, records, first_line) -> list:
    """The row-by-row reading of a block: it names the first bad line in
    file order (a wrong field count, a value float() or int() rejects, a
    non-finite coordinate, a color or target below 0 or beyond int64) and
    otherwise gives the block's columns."""
    coord_cols, width, extras = columns
    pts, cols = [], [[] for _ in extras]
    for lineno, row in enumerate(records, start=first_line):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            p = [float(v) for v in row[:coord_cols]]
            ints = [int(v) for v in row[coord_cols:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, p)):
            raise ValueError(f"{path}:{lineno}: non-finite coordinate")
        for name, col, v in zip(extras, cols, ints):
            if v < 0:
                raise ValueError(f"{path}:{lineno}: {name}s must be non-negative")
            if v >= 2**63:
                raise ValueError(f"{path}:{lineno}: {name}s must be below 2**63")
            col.append(v)
        pts.append(p)
    return [np.asarray(pts, dtype=np.float64), *(np.asarray(c, dtype=np.int64) for c in cols)]


def _parse_block(path, columns, records, first_line) -> Dataset:
    """One block's columns from one numpy cast of its fields.  The cast
    calls float() on each string, as the row-by-row reading does, so the
    same files load; any problem hands the block to that reading, which
    names the line."""
    coord_cols, width, extras = columns
    rows = [r for r in records if r]
    try:
        raw = np.array(rows, dtype=np.float64)
        if raw.shape != (len(rows), width):
            raise ValueError("wrong field count")
        pts = np.ascontiguousarray(raw[:, :coord_cols])
        ints = [np.array([int(r[j]) for r in rows], dtype=np.int64)
                for j in range(coord_cols, width)]
        if not np.isfinite(pts).all() or any((c < 0).any() for c in ints):
            raise ValueError("bad value")
    except (ValueError, OverflowError):
        pts, *ints = _parse_rows(path, columns, records, first_line)
    named = dict(zip(extras, ints))
    return Dataset(pts, named.get("color"), named.get("target"))


def iter_dataset_csv(path, block: int):
    """A dataset CSV as Datasets of `block` data rows each (the last one
    may be shorter), read one block at a time: memory holds one block,
    never the file.  The header is checked once, blank rows are skipped,
    and an error names the first bad line in file order."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = _read_header(path, reader)
        records, filled, first_line, empty = [], 0, 2, True
        for row in reader:
            records.append(row)
            if row:
                filled += 1
            if filled == block:
                yield _parse_block(path, columns, records, first_line)
                first_line += len(records)
                records, filled, empty = [], 0, False
        if filled:
            yield _parse_block(path, columns, records, first_line)
        elif empty:
            raise ValueError(f"{path}: no data rows")


def read_dataset_csv(path) -> Dataset:
    parts = list(iter_dataset_csv(path, block=4096))
    cols = [[getattr(p, f) for p in parts] for f in ("points", "colors", "targets")]
    return Dataset(*(None if c[0] is None else np.concatenate(c) for c in cols))


def _check_groups(n: int, g: int, dim: int) -> None:
    # before any site is drawn: with no coordinates every pair of sites
    # coincides, and the nudge loop of _group_sites would never end
    if dim < 1:
        raise ValueError("need dim >= 1")
    if not (1 <= g <= n):
        raise ValueError("need 1 <= g <= n")


def _group_sites(g: int, dim: int, spread: float, rng) -> np.ndarray:
    # well separated sites on a scaled integer lattice, jittered off-grid
    sites = np.zeros((g, dim))
    for i in range(g):
        sites[i] = rng.integers(0, 10 * g, size=dim) * spread
    # nudge coincident sites apart
    for i in range(1, g):
        while np.any(np.all(np.isclose(sites[:i], sites[i]), axis=1)):
            sites[i] = rng.integers(0, 10 * g, size=dim) * spread
    return sites


def _planted(kind: str, n: int, g: int, dim: int, spread: float, rng, **info):
    """(sites, labels, info) of n points planted on g sites: labels are
    sorted, as equal per site as n allows, and info carries the kind,
    the sites, the labels and `info`.  A generator draws its offsets
    after this."""
    if rng is None:
        raise ValueError("rng is required")
    _check_groups(n, g, dim)
    sites = _group_sites(g, dim, spread, rng)
    labels = np.sort(np.arange(n) % g)
    return sites, labels, {"kind": kind, "groups": g, "sites": sites.tolist(),
                           "labels": labels.tolist(), **info}


def duplicate_groups(n: int, g: int, dim: int = 2, spread: float = 10.0, rng=None):
    """n points stacked on g coincident sites, as equal as n allows.

    Any k >= g centering of the sites has cost exactly 0, so the
    returned info carries opt_cost 0 and the planted labels.
    """
    sites, labels, info = _planted("duplicate-groups", n, g, dim, spread, rng,
                                   opt_cost=0.0, opt_cost_applies_to_k_at_least=g)
    return Dataset(sites[labels]), info


def gaussian_groups(n: int, g: int, dim: int = 2, sigma: float = 0.05,
                    spread: float = 10.0, rng=None):
    """n points in g tight gaussian blobs around well separated sites."""
    sites, labels, info = _planted("gaussian-groups", n, g, dim, spread, rng, sigma=sigma)
    return Dataset(sites[labels] + rng.normal(0.0, sigma, size=(n, dim))), info


def grid_groups(n: int, g: int, dim: int = 2, step: float = 0.01,
                reach: int = 2, spread: float = 10.0, rng=None):
    """Tight groups whose offsets live on a small integer grid.

    Distances then take few distinct values, which keeps bucket counts
    low; used as the compression regression fixture.
    """
    sites, labels, info = _planted("grid-groups", n, g, dim, spread, rng,
                                   step=step, reach=reach)
    offsets = rng.integers(-reach, reach + 1, size=(n, dim)) * step
    return Dataset(sites[labels] + offsets), info


def random_uniform(n: int, dim: int = 2, scale: float = 1.0, rng=None) -> Dataset:
    if rng is None:
        raise ValueError("rng is required")
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 and dim >= 1")
    return Dataset(rng.random((n, dim)) * scale)


def with_colors(ds: Dataset, num_colors: int, rng=None, contiguous: bool = True) -> Dataset:
    """Attach colors; contiguous mode keeps equal colors adjacent in stream order."""
    if num_colors < 1:
        raise ValueError("need at least one color")
    if contiguous:
        colors = np.sort(np.arange(ds.n) % num_colors)
    else:
        if rng is None:
            raise ValueError("rng is required for shuffled colors")
        colors = rng.integers(0, num_colors, size=ds.n)
    return Dataset(ds.points.copy(), colors, None if ds.targets is None else ds.targets.copy())


def with_targets(ds: Dataset, targets) -> Dataset:
    return Dataset(ds.points.copy(),
                   None if ds.colors is None else ds.colors.copy(),
                   np.asarray(targets, dtype=np.int64))
