"""The block CSV reader against a row-by-row reference."""

import builtins
import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ckmeans.data
from ckmeans.data import Dataset, iter_dataset_csv, read_dataset_csv
from ckmeans.streaming import CSVSource


class Undecodable(Exception):
    """A line, numbered from 1, that is not UTF-8."""


def utf8_lines(path):
    """The file's lines, split at \\n, \\r\\n and \\r, each decoded as
    UTF-8 (the first as utf-8-sig) when it is pulled; Undecodable at the
    first line that is not."""
    raw = re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", path.read_bytes())
    for lineno, line in enumerate(raw, start=1):
        try:
            yield line.decode("utf-8-sig" if lineno == 1 else "utf-8")
        except UnicodeDecodeError:
            raise Undecodable(lineno) from None


def reference_read(path):
    """Every record in file order, numbered by the line it starts on and
    checked in full before the next: (points, colors, targets), or the
    first bad line's error message.  A line that is not UTF-8 ends the
    records, and a record it cuts short is not one: after the records
    before it, the error names that line."""
    reader = csv.reader(utf8_lines(path))
    records, line, undecodable = [], 1, None
    try:
        for row in reader:
            records.append((line, row))
            line = 1 + reader.line_num
    except Undecodable as exc:
        undecodable = f"{path}:{exc.args[0]}: not valid UTF-8"
    if not records:
        return undecodable or f"{path}: empty dataset file"
    header = [h.strip() for h in records[0][1]]
    extras = [h for h in header if h in ("color", "target")]
    c = len(header) - len(extras)
    pts, cols = [], {name: [] for name in extras}
    for lineno, row in records[1:]:
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
    if undecodable:
        return undecodable
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
    # a quoted field holding a newline opens on line 8, the last of the
    # first 7-row block, and closes on line 9
    "quoted_newline_across_block_edge": "x0,x1\n" + "\n".join(ROWS[:6]) + '\n"0.5\n",1\n'
                                        + "\n".join(ROWS) + "\n",
    "all_quoted": '"x0","x1","color"\n' + "\n".join(
        '"' + r.replace(",", '","') + f'","{i % 4}"' for i, r in enumerate(ROWS)) + "\n",
    "crlf": "x0,x1\r\n" + "\r\n".join(ROWS[:9]) + "\r\n\r\n" + "\r\n".join(ROWS[9:]) + "\r\n",
    "cr_only": "x0,x1\r" + "\r".join(ROWS[:9]) + "\r\r" + "\r".join(ROWS[9:]) + "\r",
    "nul_in_coordinate": "x0,x1\n" + "\n".join(ROWS[:8]) + "\n1\x00,2\n" + "\n".join(ROWS) + "\n",
    "whitespace_row_after_first_block": "x0,x1\n" + "\n".join(ROWS[:9]) + "\n  \n"
                                        + "\n".join(ROWS[9:]) + "\n",
    "colors_targets_over_1000_rows": "x0,x1,color,target\n" + "\n".join(
        f"{i / 7},{-i * 0.5},{i % 5},{(i * 7919) % 1009}" for i in range(1200)) + "\n",
    # numpy strips these as whitespace; float() and int() do not
    "information_separator_in_coordinate": "x0,x1\n" + "\n".join(ROWS[:8]) + "\n2,\x1c3\n",
    "information_separator_in_color": "x0,color\n1,2\n3,4\x1f\n",
    # numpy's int64 parser reads U+01FE as 462
    "letter_as_color": "x0,color\n1,2\n3,\u01fe\n",
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


# fields that csv, float(), int() and numpy's reader may each take
# differently: a core value wrapped in whitespace, NUL or the separators
# numpy strips as whitespace; or quoted, with a quote spanning lines, or
# with an unbalanced quote
CORES = ["1", "-0.0", ".5", "+7", "1e5", "1_0", "\uff15", "\u0661", "\u01fe", "0x10", "1.0",
         "-1", "abc", "", "1 2", "nan", "-inf", "1e400", "9223372036854775807",
         "9223372036854775808"]
WRAPS = ["", " ", "\t", "\x0c", "\xa0", "\x00", "\x1c", "\x1f"]
QUOTES = ['"{}"', '"{}\n"', '"{}\r\n', '{}"']
TRICKY = st.one_of(
    st.builds(lambda a, core, b: a + core + b, st.sampled_from(WRAPS), st.sampled_from(CORES),
              st.sampled_from(WRAPS)),
    st.builds(str.format, st.sampled_from(QUOTES), st.sampled_from(CORES)))
COORDS = ["0.25", "-3", "7", "1e-3", "2"]
LABELS = ["0", "2", "13"]
HEADERS = ["x0", "x0,x1", '"x0","x1"', "x0,color", "x0,x1,target", "x0,color,target"]
# lines that csv gives as a blank row, a whitespace field, or a row of
# one or four fields
ODD_LINES = ["", "   ", "\t", "7", "1,2,3,4"]


@st.composite
def csv_texts(draw):
    """A valid file, then up to three defects: a field swapped for a
    TRICKY one, or an ODD_LINES line put in; each line with its own
    ending, the last one maybe without."""
    header = draw(st.sampled_from(HEADERS))
    columns = [COORDS if h.strip('"')[0] == "x" else LABELS for h in header.split(",")]
    rows = [[draw(st.sampled_from(c)) for c in columns]
            for _ in range(draw(st.integers(0, 16)))]
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(TRICKY)
        else:
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from(ODD_LINES))])
    lines = [header] + [",".join(r) for r in rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_block_reader_matches_row_by_row_on_tricky_text(tmp_path, text):
    path = tmp_path / "h.csv"
    path.write_bytes(text.encode("utf-8"))
    want = reference_read(path)
    for block in (1, 7, 1000):
        got = block_read(path, block)
        assert same(got, want), (block, text, got, want)


@st.composite
def undecodable_texts(draw):
    """A csv_texts() file as UTF-8, with a byte sequence that is not
    UTF-8 (a stray \\xff, or \\xe2\\x82 cut off before its last byte)
    put into one of its lines, header included."""
    lines = re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", draw(csv_texts()).encode("utf-8"))
    i = draw(st.integers(0, len(lines) - 1))
    body = lines[i].rstrip(b"\r\n")
    at = draw(st.integers(0, len(body)))
    bad = draw(st.sampled_from([b"\xff", b"\xe2\x82"]))
    lines[i] = body[:at] + bad + lines[i][at:]
    return b"".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=undecodable_texts())
def test_errors_come_in_file_order_around_an_invalid_utf8_byte(tmp_path, data):
    path = tmp_path / "h.csv"
    path.write_bytes(data)
    want = reference_read(path)
    assert isinstance(want, str)
    for block in (1, 7, 1000):
        got = block_read(path, block)
        assert got == want, (block, data, got, want)


@pytest.mark.parametrize("name", ["plain", "colors_targets", "colors_targets_over_1000_rows",
                                  "crlf", "cr_only"])
def test_plain_blocks_never_reach_the_record_loop(tmp_path, monkeypatch, name):
    # a reader that always fell back would pass every comparison above
    def refuse(*args):
        raise AssertionError("the record loop read a plain block")
    monkeypatch.setattr(ckmeans.data, "_parse_rows", refuse)
    path = tmp_path / f"{name}.csv"
    path.write_bytes(FILES[name].encode("utf-8"))
    for block in (1, 7, 1000):
        assert same(block_read(path, block), reference_read(path))


def test_a_block_numpy_warns_about_goes_to_the_record_loop(tmp_path, monkeypatch):
    # numpy before 2.0 reads an int64 field that fails through float,
    # truncates it and only warns: "1.5" became color 1
    real = np.loadtxt

    def warning_loadtxt(lines, **kw):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real([line.replace("1.5", "1") for line in lines], **kw)
    monkeypatch.setattr(ckmeans.data.np, "loadtxt", warning_loadtxt)
    path = tmp_path / "color_not_int.csv"
    path.write_text(FILES["color_not_int"])
    want = reference_read(path)
    assert isinstance(want, str)
    for block in (1, 7, 1000):
        assert block_read(path, block) == want


def test_a_field_past_the_csv_limit_fails_as_in_the_record_loop(tmp_path):
    # numpy's reader has no field size limit; csv's stops the record loop,
    # which names the line
    path = tmp_path / "long.csv"
    path.write_text("x0,x1\n" + "\n".join(ROWS) + "\n" + "0" * csv.field_size_limit() + "1,2\n")
    with pytest.raises(csv.Error) as want:
        reference_read(path)
    for block in (1, 7, 1000):
        with pytest.raises(ValueError) as got:
            list(iter_dataset_csv(path, block))
        assert str(got.value) == f"{path}:{len(ROWS) + 2}: {want.value}"
    header = tmp_path / "long_header.csv"
    header.write_text("x0,x1" + "0" * csv.field_size_limit() + "\n1,2\n")
    with pytest.raises(ValueError, match=r":1: field larger than field limit"):
        list(iter_dataset_csv(header, 7))


def test_a_record_after_a_multi_line_one_is_named_by_its_line(tmp_path):
    # the quoted field on line 2 closes on line 3: the next record starts
    # on line 4, and so does the data after a two-line header
    path = tmp_path / "d.csv"
    long_field = b"0" * csv.field_size_limit() + b"1,2\n"
    for text, message in ((b'x0,x1\n"1\n",2\nabc,1\n', "could not convert string to float: 'abc'"),
                          (b'"x0\n",x1\n1,2\nabc,1\n', "could not convert string to float: 'abc'"),
                          (b'x0,x1\n"1\n",2\n' + long_field,
                           f"field larger than field limit ({csv.field_size_limit()})")):
        path.write_bytes(text)
        for block in (1, 7, 4096):
            assert block_read(path, block) == f"{path}:4: {message}"


def test_a_quoted_field_into_an_invalid_utf8_line_names_that_line(tmp_path):
    # the record opened on line 2 never closes: the undecodable line 3 is
    # named, not a record cut short at line 2
    path = tmp_path / "d.csv"
    for text in (b'x0,x1\n"abc\n\xff\n', b'x0,x1\n1,2\n"3\n\xe2\x82",4\n5,6\n'):
        path.write_bytes(text)
        line = 3 if text.startswith(b'x0,x1\n"') else 4
        for block in (1, 2, 4096):
            assert block_read(path, block) == f"{path}:{line}: not valid UTF-8"


def test_each_read_opens_its_file_once(tmp_path, monkeypatch):
    opened = []

    def spy(file, *args, **kw):
        opened.append(file)
        return builtins.open(file, *args, **kw)
    monkeypatch.setattr(ckmeans.data, "open", spy, raising=False)
    path = tmp_path / "d.csv"
    for text, error in ((FILES["plain"].encode("utf-8"), None),
                        (b"x0,x1\n" + b"1,2\n" * 30 + b"1,\xff\n", ":32: not valid UTF-8"),
                        (b"x0,x1\n1,2\nabc,1\n1,\xff\n",
                         ":3: could not convert string to float: 'abc'")):
        path.write_bytes(text)
        for block in (1, 7, 1000):
            opened.clear()
            got = block_read(path, block)
            assert opened == [path]
            assert got == f"{path}{error}" if error else not isinstance(got, str)


def test_an_invalid_utf8_byte_names_its_line(tmp_path):
    # a text decoder would read 8 KB chunks ahead of the parser and report
    # an offset into its chunk; each line is decoded as the parse reaches
    # it, and the error names the line
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x0,x1\n" + b"1,2\n" * 3000 + b"1,\xff\n")
    for block in (1, 7, 1000):
        with pytest.raises(ValueError) as got:
            list(iter_dataset_csv(path, block))
        assert str(got.value) == f"{path}:3002: not valid UTF-8"
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"x0,x1\r\n1,2\r1,\xe2\x82\r\n1,2\r\n")
    with pytest.raises(ValueError, match=r":3: not valid UTF-8"):
        read_dataset_csv(crlf)


def test_a_bad_line_before_an_invalid_utf8_byte_is_named_first(tmp_path):
    # a chunked decoder would fail on line 9 while the parse is still at
    # the header; line 9 is decoded only after line 5 is read
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x0,x1\n" + b"1,2\n" * 3 + b"abc,1\n" + b"1,2\n" * 3 + b"1,\xff\n")
    valid = tmp_path / "valid.csv"
    valid.write_bytes(path.read_bytes().replace(b"\xff", b"2"))
    for block in (1, 2, 4096):
        assert block_read(path, block) == f"{path}:5: could not convert string to float: 'abc'"
        assert block_read(valid, block) == f"{valid}:5: could not convert string to float: 'abc'"
    # a bad header comes first as well; with nothing bad before it, the
    # undecodable line is named, header line included
    for text, line in ((b"x1,x0\n1,\xff\n", None), (b"x0,x1\n\xff,1\n", 2),
                       (b"x0,\xff\n1,2\n", 1), (b"\xef\xbb\xbfx0,x1\n1,2\n1,\xff\n", 3)):
        path.write_bytes(text)
        with pytest.raises(ValueError) as got:
            list(iter_dataset_csv(path, 1))
        if line is None:
            assert "coordinate columns must be named" in str(got.value)
        else:
            assert str(got.value) == f"{path}:{line}: not valid UTF-8"


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(FILES["colors_targets"].encode("utf-8"))
    marked.write_bytes(FILES["colors_targets"].encode("utf-8-sig"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    a, b = read_dataset_csv(plain), read_dataset_csv(marked)
    assert same((b.points, b.colors, b.targets), (a.points, a.colors, a.targets))
    assert b.colors is not None and b.targets is not None


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


@pytest.mark.parametrize("name", ["colors", "targets"])
def test_dataset_labels_are_integers_within_int64(name):
    pts = np.zeros((3, 2))
    for bad in ([0.5, 1.7, 2.0], [1e30, 0, 0], [math.nan, 0, 0], [math.inf, 0, 0],
                [2**70, 0, 0], np.array([2**63, 0, 0], dtype=np.uint64)):
        with pytest.raises(ValueError, match=f"{name} must be integers within int64"):
            Dataset(pts, **{name: bad})
    for good in ([0, 1, 2], [0.0, 1.0, 2.0], np.array([0, 1, 2], dtype=np.uint8)):
        v = getattr(Dataset(pts, **{name: good}), name)
        assert v.dtype == np.int64 and v.tolist() == [0, 1, 2]
    big = 2**63 - 1
    for good in ([big, 0, 0], np.array([big, 0, 0], dtype=np.uint64)):
        assert getattr(Dataset(pts, **{name: good}), name).tolist() == [big, 0, 0]
