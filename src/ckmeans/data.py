"""Dataset container, CSV round trip, and synthetic instance generators.

CSV layout: a header row naming the coordinate columns (x0, x1, ...)
optionally followed by literal `color` and/or `target` columns, then
one point per row.  Color and target values are non-negative integers.
Files are UTF-8; a leading byte-order mark is skipped.
There is one reader, iter_dataset_csv, which holds one block of rows at a
time; read_dataset_csv joins its blocks.  A block goes through numpy's
C reader; from the first block that reader declines, the csv record
loop reads the rest of the file.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import chain, islice

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
            v = np.asarray(v)
            if v.dtype.kind not in "bi":
                # a cast would truncate 1.7 to 1, or wrap or overflow past int64
                x = v if v.dtype.kind == "u" else v.astype(np.float64)
                if not ((x == np.trunc(x)) & (np.abs(x) < 2**63)).all():
                    raise ValueError(f"{name} must be integers within int64")
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
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"{path}:1: {exc}") from None
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


def _parse_rows(path, columns, records, first_line) -> Dataset:
    """The record loop's reading of a block: it names the first bad line
    in file order (a wrong field count, a value float() or int() rejects,
    a non-finite coordinate, a color or target below 0 or beyond int64)
    and otherwise gives the block's Dataset."""
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
    named = {name: np.asarray(col, dtype=np.int64) for name, col in zip(extras, cols)}
    return Dataset(np.asarray(pts, dtype=np.float64), named.get("color"), named.get("target"))


# a quote starts a csv field that may span lines; numpy strips the
# information separators \x1c-\x1f as whitespace, which float() and
# int() reject.  Non-ASCII text is declined as a whole: numpy's int64
# parser reads some letters as digits (U+01FE as 462) and crashes on
# some code points past U+FFFF.
_DECLINED = '"\x1c\x1d\x1e\x1f'


def _take(fh, block: int) -> tuple[list, int]:
    """The next lines of a file up to and including its `block`-th
    non-blank one (fewer at the end), and how many are non-blank.  A
    csv-blank line is exactly a line ending."""
    got, filled = [], 0
    while filled < block:
        more = list(islice(fh, block - filled))
        if not more:
            break
        got += more
        filled += len(more) - more.count("\n") - more.count("\r\n") - more.count("\r")
    return got, filled


def _fast_block(columns, lines, filled) -> Dataset | None:
    """One block of lines through numpy's C reader, with the color and
    target columns read as int64.  None wherever the record loop could
    read the block otherwise or reject it: non-ASCII text, a character
    of _DECLINED, a line past csv's field size limit, a value loadtxt
    rejects or warns about, a row count other than `filled`, a non-finite coordinate,
    a negative label."""
    coord_cols, _, extras = columns
    text, limit = "".join(lines), csv.field_size_limit()
    if (not text.isascii() or any(c in text for c in _DECLINED)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    dtype = np.dtype([("x", np.float64, (coord_cols,)), *((e, np.int64) for e in extras)])
    # numpy before 2.0 reads a failed int64 field through float, truncates
    # it and only warns ("1.5" as color 1); any warning declines the block
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                             quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    pts, *ints = (np.ascontiguousarray(raw[f]) for f in dtype.names)
    if raw.shape != (filled,) or not np.isfinite(pts).all() or any((c < 0).any() for c in ints):
        return None
    named = dict(zip(extras, ints))
    return Dataset(pts, named.get("color"), named.get("target"))


def _record_blocks(path, columns, reader, block: int, first_line: int):
    """The record loop: csv records in blocks of `block` non-blank ones,
    each read by _parse_rows, numbered from `first_line`.  A record csv
    cannot read (a field past its size limit) fails naming its line."""
    records, filled = [], 0
    try:
        for row in reader:
            records.append(row)
            if row:
                filled += 1
            if filled == block:
                yield _parse_rows(path, columns, records, first_line)
                first_line += len(records)
                records, filled = [], 0
    except csv.Error as exc:
        raise ValueError(f"{path}:{first_line + len(records)}: {exc}") from None
    if filled:
        yield _parse_rows(path, columns, records, first_line)


def iter_dataset_csv(path, block: int):
    """A dataset CSV as Datasets of `block` data rows each (the last one
    may be shorter), read one block at a time: memory holds one block,
    never the file.  The header is checked once, blank rows are skipped,
    and an error names the first bad line in file order.

    Each block's lines go through numpy's C reader (_fast_block).  The
    first block it declines hands its lines and the rest of the file to
    the csv record loop: a quoted field there may span lines and block
    edges, fields are read by float() and int(), and an error names its
    line."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    read = 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for ds in _dataset_blocks(path, fh, block):
                read += 1
                yield ds
    except UnicodeDecodeError as exc:
        # the decoder reads ahead of the parse and counts its position
        # from its current chunk: name the line, after any earlier error
        raise _undecodable(path, block, exc) from None
    if not read:
        raise ValueError(f"{path}: no data rows")


def _dataset_blocks(path, fh, block: int):
    """iter_dataset_csv's blocks read from the text lines fh."""
    columns = _read_header(path, csv.reader(fh))
    first_line = 2
    while True:
        lines, filled = _take(fh, block)
        if not filled:
            return
        ds = _fast_block(columns, lines, filled)
        if ds is None:
            yield from _record_blocks(path, columns, csv.reader(chain(lines, fh)),
                                      block, first_line)
            return
        yield ds
        first_line += len(lines)


def _undecodable(path, block: int, exc) -> ValueError:
    """The error for a file that is not valid UTF-8.  The lines before
    its first undecodable one form a valid file, read again: its first
    error comes first in file order, else the error names the line.
    Read as latin-1, one character per byte, the file splits into the
    lines the reader sees: no UTF-8 sequence holds a line-ending byte."""
    def utf8(lines):
        for lineno, line in enumerate(lines, start=1):
            yield line.encode("latin-1").decode("utf-8-sig" if lineno == 1 else "utf-8")

    with open(path, newline="", encoding="latin-1") as fh:
        bad = 1
        try:
            for _ in utf8(fh):
                bad += 1
        except UnicodeDecodeError:
            pass
        else:
            return ValueError(f"{path}: {exc}")  # the file changed since the failed read
    if bad > 1:
        with open(path, newline="", encoding="latin-1") as fh:
            try:
                for _ in _dataset_blocks(path, utf8(islice(fh, bad - 1)), block):
                    pass
            except ValueError as err:
                return err
    return ValueError(f"{path}:{bad}: not valid UTF-8")


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
