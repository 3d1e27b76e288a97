"""The block CSV reader against a row-by-row reference."""

import csv
import math

import numpy as np
import pytest

from ckmeans.data import iter_dataset_csv, read_dataset_csv
from ckmeans.streaming import CSVSource


def reference_read(path):
    """Every record in file order, each checked in full before the next:
    (points, colors, targets), or the first line's error message."""
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    if not records:
        return f"{path}: empty dataset file"
    header = [h.strip() for h in records[0]]
    extras = [h for h in header if h in ("color", "target")]
    c = len(header) - len(extras)
    pts, cols = [], {name: [] for name in extras}
    for lineno, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            return f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
        try:
            p = [float(v) for v in row[:c]]
            ints = [int(v) for v in row[c:]]
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
        if not all(math.isfinite(v) for v in p):
            return f"{path}:{lineno}: non-finite coordinate"
        for name, v in zip(extras, ints):
            if v < 0:
                return f"{path}:{lineno}: {name}s must be non-negative"
            if v >= 2**63:
                return f"{path}:{lineno}: {name}s must be below 2**63"
            cols[name].append(v)
        pts.append(p)
    if not pts:
        return f"{path}: no data rows"
    return (np.array(pts, dtype=np.float64),
            *(np.array(cols[name], dtype=np.int64) if name in cols else None
              for name in ("color", "target")))


def block_read(path, block):
    try:
        parts = list(iter_dataset_csv(path, block))
    except ValueError as exc:
        return str(exc)
    assert all(p.n == block for p in parts[:-1]) and 1 <= parts[-1].n <= block
    return (np.concatenate([p.points for p in parts]),
            *(None if getattr(parts[0], name) is None
              else np.concatenate([getattr(p, name) for p in parts])
              for name in ("colors", "targets")))


def same(got, want):
    if isinstance(want, str):
        return got == want
    if isinstance(got, str):
        return False
    pts, *ints = got
    wpts, *wints = want
    return (pts.shape == wpts.shape and pts.tobytes() == wpts.tobytes()
            and all((a is None and b is None) or
                    (a is not None and b is not None and np.array_equal(a, b))
                    for a, b in zip(ints, wints)))


ROWS = [f"{i * 0.25},{-i / 3}" for i in range(20)]

FILES = {
    "plain": "x0,x1\n" + "\n".join(ROWS) + "\n",
    "float_syntax": 'x0,x1\n1_0,2\n"3.5", 4\n ５ ,1e-3\n-0.0,+7\n1E5,.5\n',
    "blank_rows": "x0,x1\n\n1,2\n\n\n3,4\n" + "\n".join(ROWS[:9]) + "\n\n",
    "blank_rows_then_bad": "x0,x1\n\n1,2\n\n\n3,4\n" + "\n\n".join(ROWS[:9]) + "\n7,nan\n",
    "whitespace_row": "x0,x1\n1,2\n   \n3,4\n",
    "whitespace_row_1d": "x0\n1\n   \n3\n",
    "too_few_fields": "x0,x1\n" + "\n".join(ROWS[:10]) + "\n5\n" + "\n".join(ROWS[10:]) + "\n",
    "too_many_fields": "x0,x1\n" + "\n".join(ROWS[:3]) + "\n1,2,3\n",
    "every_row_short": "x0,x1,x2\n" + "\n".join(ROWS) + "\n",
    "bad_float": "x0,x1\n" + "\n".join(ROWS[:12]) + "\n1,abc\n",
    "nan_on_block_edge": "x0,x1\n" + "\n".join(ROWS[:6]) + "\nnan,1\n" + "\n".join(ROWS) + "\n",
    "inf_after_block_edge": "x0,x1\n" + "\n".join(ROWS[:7]) + "\n1,-inf\n" + "\n".join(ROWS) + "\n",
    "overflow_to_inf": "x0,x1\n1,2\n1e400,0\n",
    # the first bad line wins, in file order: here a non-finite one
    # ahead of a malformed one
    "non_finite_before_malformed": "x0,x1\n1,2\ninf,3\n4,5\n6\n",
    "colors_targets": "x0,x1,color,target\n" + "\n".join(
        f"{r},{i % 3},{i % 2}" for i, r in enumerate(ROWS)) + "\n",
    "color_int_syntax": "x0,color\n1, 2\n3,1_1\n5,０\n",
    "color_not_int": "x0,color\n1,2\n3,1.5\n",
    "color_beyond_int64": "x0,color\n1,2\n3,99999999999999999999\n",
    "target_beyond_int64_after_block_edge": "x0,target\n" + "\n".join(
        f"{i},{i}" for i in range(8)) + "\n8,9223372036854775808\n",
    "negative_target": "x0,target\n" + "\n".join(f"{i},{i}" for i in range(9)) + "\n9,-1\n",
    "header_only": "x0,x1\n",
    "header_and_blanks": "x0,x1\n\n\n",
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(FILES))
@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_reader_matches_row_by_row(tmp_path, name, block):
    path = tmp_path / f"{name}.csv"
    path.write_text(FILES[name], encoding="utf-8")
    got, want = block_read(path, block), reference_read(path)
    assert same(got, want), (got, want)


def test_first_bad_line_in_file_order_is_reported(tmp_path):
    # a non-finite coordinate on line 3, a short row on line 5: the
    # reading that held the whole file reported line 5
    path = tmp_path / "d.csv"
    path.write_text(FILES["non_finite_before_malformed"])
    for block in (1, 7, 1000):
        assert block_read(path, block) == f"{path}:3: non-finite coordinate"


def test_read_dataset_csv_and_csv_source_agree_with_blocks(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(FILES["colors_targets"])
    ds = read_dataset_csv(path)
    want = reference_read(path)
    assert same((ds.points, ds.colors, ds.targets), want)
    src = CSVSource(path, block=7)
    blocks = list(src.open())
    assert [len(b[0]) for b in blocks] == [7, 7, 6]
    assert same(tuple(np.concatenate([b[i] for b in blocks]) for i in range(3)), want)


def test_block_reader_rejects_nonpositive_block(tmp_path):
    with pytest.raises(ValueError, match="block must be >= 1"):
        next(iter_dataset_csv(tmp_path / "never_read.csv", 0))
