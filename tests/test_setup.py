"""Set-up: the `.pts` reader's one vectorised pass against the line parser
that defines the format, and a process that reads, loads and runs without
importing `numpy.ma`."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockingsets import catalogue, formats
from blockingsets.errors import ParseError
from blockingsets.projspace import sorted_unique, sorted_unique_rows
from pts_reference import reference_read

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _outcome(read, path):
    """(space, ranks) of a read, or the type and message it raised."""
    try:
        space, ranks = read(path)
    except ParseError as exc:
        return "raised", type(exc).__name__, str(exc)
    return "read", space, ranks.tolist()


def _new_read(path):
    pts = formats.read_pointset(path)
    return pts.space, pts.ranks


# -- the differential test --------------------------------------------------

# (p, t, n): small spaces, and parameters the package refuses
_SPACES = [(3, 1, 2), (2, 2, 2), (3, 2, 3), (7, 2, 2), (5, 1, 1),
           (4, 1, 2), (2, 11, 2), (3, 1, 0)]
_HEADERS = ["pointset 1 {p} {t} {n}", "  pointset\t1 {p} {t} {n}  # a set",
            "pointset 01 {p} {t} {n}", "pointset 1 {p} {t}",
            "pointset 1 {p} {t} {n} 0", "pointset 2 {p} {t} {n}",
            "pointset 1 x {t} {n}", "points 1 {p} {t} {n}",
            "pointset 1 +{p} {t} {n}", "pointset 1 {p} 0_{t} {n}"]


@st.composite
def pts_texts(draw):
    """A point set text: mostly in the form write_pointset writes, with
    some of comments, blank lines, CRLF, tabs, signs, underscores,
    leading zeros, wrong widths, bad codes, codes past int64 and bad
    headers, alone or together."""
    p, t, n = draw(st.sampled_from(_SPACES))
    q = p ** t
    canonical = draw(st.booleans())
    header = _HEADERS[0] if canonical else draw(st.sampled_from(_HEADERS))
    lines = [] if canonical else draw(st.sampled_from(
        [[], ["# leading comment"], [""], ["   "]]))
    lines.append(header.format(p=p, t=t, n=n))
    for _ in range(draw(st.integers(0, 25))):
        row = [draw(st.integers(0, q - 1)) for _ in range(n + 1)]
        if draw(st.integers(0, 9)) == 0:
            fault = draw(st.sampled_from(
                ["short", "long", "zero", "q", "neg", "big", "huge"]))
            if fault == "short":
                row = row[:-1]
            elif fault == "long":
                row.append(0)
            elif fault == "zero":
                row = [0] * (n + 1)
            else:
                row[draw(st.integers(0, n))] = {
                    "q": q, "neg": -1, "big": 2 ** 63 - 1,
                    "huge": draw(st.sampled_from([2 ** 63, 10 ** 23,
                                                  -10 ** 23]))}[fault]
        codes = [str(c) for c in row]
        if not canonical:
            forms = [lambda s: s, lambda s: "00" + s, lambda s: "+" + s,
                     lambda s: "0_" + s if s[0] != "-" else s]
            codes = [draw(st.sampled_from(forms))(c) for c in codes]
        sep = " " if canonical else draw(st.sampled_from(
            [" ", "  ", "\t", " \t "]))
        line = sep.join(codes)
        if not canonical:
            line = draw(st.sampled_from(["", " ", "  "])) + line + \
                draw(st.sampled_from(["", " ", "\t", " # a comment"]))
        lines.append(line)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# between"])))
    end = draw(st.sampled_from(["\n", "\r\n"])) if not canonical else "\n"
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=pts_texts())
def test_reader_matches_the_line_parser(tmp_path, text):
    path = str(tmp_path / "set.pts")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    assert _outcome(_new_read, path) == _outcome(reference_read, path)


# -- the vectorised pass -----------------------------------------------------


def _line_parser_off(monkeypatch):
    def refuse(path, raw):
        raise AssertionError("the line parser ran")
    monkeypatch.setattr(formats, "_parse_lines", refuse)


@pytest.mark.parametrize("name", ["baer_pg2_9", "cone_pg3_9",
                                  "rank4_pg2_27"])
def test_written_files_take_the_vectorised_pass(tmp_path, monkeypatch,
                                                name):
    pts = catalogue.build_witness(name).points
    path = str(tmp_path / "set.pts")
    formats.write_pointset(path, pts)
    _line_parser_off(monkeypatch)
    assert formats.read_pointset(path) == pts


@pytest.mark.parametrize("body,where", [
    # a width error comes before the space parameters, as in the line
    # parser, although the text is in the vectorised pass's form
    ("pointset 1 4 1 2\n1 0\n", "2: expected 3 coordinates, got 2"),
    ("pointset 1 4 1 2\n1 0 1\n1 0 1 1\n",
     "3: expected 3 coordinates, got 4"),
    # a bad code still names its line, blank lines counted
    ("pointset 1 3 1 2\n1 0 1\n\n  \n1 0 5\n",
     "5: element code outside 0..2"),
    ("pointset 1 3 1 2\n1 0 1\n\n0 0 0\n", "4: zero vector"),
    (f"pointset 1 3 1 2\n1 0 {2 ** 63}\n", "2: element code outside 0..2"),
    # a header-only file is checked for its space before any row shape
    ("pointset 1 3 1 -2\n", " bad space parameters p=3 t=1 n=-2: "
     "projective dimension must be >= 1, got -2"),
])
def test_vectorised_pass_keeps_the_error_order(tmp_path, body, where):
    path = str(tmp_path / "bad.pts")
    with open(path, "w") as fh:
        fh.write(body)
    with pytest.raises(ParseError) as err:
        formats.read_pointset(path)
    assert str(err.value) == f"{path}:{where}"


@pytest.mark.parametrize("arr", [
    np.zeros(0, dtype=np.int64), np.array([7]), np.array([3, 1, 2, 2, 3]),
    np.array([0, 1, 5, 9]), np.array([[4, 4], [1, 0]]),
    np.arange(10, dtype=np.int32)[::-1], np.array([2 ** 62, -1, 2 ** 62])])
def test_sorted_unique_is_unique(arr):
    got = sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert not np.shares_memory(got, arr)


@pytest.mark.parametrize("rows", [
    np.zeros((0, 3), dtype=np.int64), np.array([[5, 1]]),
    np.array([[2, 1], [1, 9], [2, 1], [1, 3], [1, 9]]),
    np.array([[3, 0, 1], [0, 0, 2], [3, 0, 0]], dtype=np.uint64),
    np.array([[2 ** 63 + 1], [1], [2 ** 63 + 1]], dtype=np.uint64)])
def test_sorted_unique_rows_is_unique_by_rows(rows):
    want, want_back = np.unique(rows, axis=0, return_inverse=True)
    assert sorted_unique_rows(rows).tolist() == want.tolist()
    got, back = sorted_unique_rows(rows, return_inverse=True)
    assert got.dtype == rows.dtype and got.tolist() == want.tolist()
    assert back.tolist() == want_back.reshape(-1).tolist()


# -- numpy.ma stays out ------------------------------------------------------

_NO_MA = textwrap.dedent("""
    import sys
    import numpy
    if "numpy.ma" in sys.modules:
        print("preloaded")
        sys.exit(0)
    from blockingsets import catalogue, formats, harness, reconstruct
    instances = catalogue.load_shipped()
    harness.run_suite(instances)
    formats.read_pointset(sys.argv[1])
    baer, = (i for i in instances if i.name == "baer_pg2_9")
    reconstruct(baer.points, baer.k, baer.p0, point_policy="all")
    print("numpy.ma" in sys.modules)
""")


def test_setup_and_runs_never_import_numpy_ma(tmp_path):
    path = str(tmp_path / "set.pts")
    formats.write_pointset(path, catalogue.build_witness("cone_pg3_9").points)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", _NO_MA, path], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    if out.stdout.strip() == "preloaded":
        pytest.skip("a bare `import numpy` loads numpy.ma here")
    assert out.stdout.strip() == "False"
