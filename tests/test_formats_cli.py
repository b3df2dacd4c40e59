"""Point-set file format, witness serialization, and the CLI surface."""

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockingsets import catalogue, formats, harness
from blockingsets.blocking import traces_of
from blockingsets.cli import main, version_string
from blockingsets.errors import IoError, ParseError
from blockingsets.fields import make_field
from blockingsets.projspace import PointSet, ProjectiveSpace, Subspace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_json(capsys, *argv, expect=0):
    code, out, err = run_cli(capsys, *argv)
    assert code == expect, err
    return json.loads(out)


# -- point-set files -------------------------------------------------------------


def test_pointset_roundtrip(tmp_path, baer):
    path = str(tmp_path / "baer.pts")
    formats.write_pointset(path, baer.points)
    again = formats.read_pointset(path)
    assert again == baer.points
    first = open(path, "rb").read()
    formats.write_pointset(path, baer.points)
    assert open(path, "rb").read() == first
    assert first.startswith(b"pointset 1 3 2 2\n")


def test_pointset_meta_sidecar(tmp_path, baer):
    path = str(tmp_path / "baer.pts")
    formats.write_pointset(path, baer.points, meta={"k": 1, "claims": {}})
    assert formats.meta_path(path).endswith("baer.meta.json")
    pts, meta = formats.read_pointset(path, with_meta=True)
    assert pts == baer.points and meta == {"k": 1, "claims": {}}
    bare = str(tmp_path / "bare.pts")
    formats.write_pointset(bare, baer.points)
    _, meta2 = formats.read_pointset(bare, with_meta=True)
    assert meta2 is None


def test_pointset_accepts_comments_and_representatives(tmp_path):
    path = str(tmp_path / "in.pts")
    with open(path, "w") as fh:
        fh.write("# leading comment\n\n"
                 "pointset 1 3 1 2\n"
                 "2 0 2   # same as 1 0 1\n"
                 "1 0 1\n")
    pts = formats.read_pointset(path)
    space = ProjectiveSpace(2, make_field(3, 1))
    assert len(pts) == 1
    assert int(pts.ranks[0]) == space.rank_of((1, 0, 1))


@pytest.mark.parametrize("body,fragment", [
    ("notpointset 1 3 1 2\n1 0 1\n", "not a point set file"),
    ("pointset 1 3 1\n", "header needs"),
    ("pointset 1 x 1 2\n", "non-integer header"),
    ("pointset 9 3 1 2\n", "unsupported version"),
    ("pointset 1 3 1 2\n1 a 1\n", "non-integer"),
    ("pointset 1 3 1 2\n1 0\n", "expected 3 coordinates"),
    ("pointset 1 3 1 2\n1 0 5\n", "element code outside"),
    ("pointset 1 3 1 2\n0 0 0\n", "zero vector"),
    ("pointset 1 4 1 2\n1 0 1\n", "bad space parameters"),
    ("pointset 1 2 11 2\n1 0 1\n", "bad space parameters"),   # q > 1024
    ("", "empty file"),
])
def test_pointset_parse_errors(tmp_path, body, fragment):
    path = str(tmp_path / "bad.pts")
    with open(path, "w") as fh:
        fh.write(body)
    with pytest.raises(ParseError) as err:
        formats.read_pointset(path)
    assert fragment in str(err.value)
    assert path in str(err.value)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = str(tmp_path / "bad.pts")
    with open(path, "w") as fh:
        fh.write("# comment\npointset 1 3 1 2\n1 0 1\n1 0\n")
    with pytest.raises(ParseError) as err:
        formats.read_pointset(path)
    assert f"{path}:4:" in str(err.value)


@pytest.mark.parametrize("body,where", [
    # codes past int64 either way: a range error, not an overflow
    (f"pointset 1 3 1 2\n1 0 1\n\n1 0 {10 ** 23}\n",
     "4: element code outside 0..2"),
    (f"pointset 1 3 1 2\n1 0 1\n\n1 0 {-10 ** 23}\n",
     "4: element code outside 0..2"),
    # the first bad row in file order, whatever its fault
    ("pointset 1 3 1 2\n0 0 0\n1 0 7\n", "2: zero vector"),
    ("pointset 1 3 1 2\n1 0 7\n0 0 0\n", "2: element code outside 0..2"),
    # syntax errors come before the space is built
    ("pointset 1 4 1 2\n1 0 1\n1 x 1\n", "3: non-integer coordinate"),
])
def test_parse_errors_name_the_first_bad_row(tmp_path, body, where):
    path = str(tmp_path / "bad.pts")
    with open(path, "w") as fh:
        fh.write(body)
    with pytest.raises(ParseError) as err:
        formats.read_pointset(path)
    assert f"{path}:{where}" in str(err.value)


def test_pointset_header_only_is_empty(tmp_path):
    path = str(tmp_path / "empty.pts")
    with open(path, "w") as fh:
        fh.write("# nothing but a header\npointset 1 3 1 2\n\n")
    pts = formats.read_pointset(path)
    assert len(pts) == 0
    assert pts.space is ProjectiveSpace(2, make_field(3, 1))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pointset_reads_any_representatives(tmp_path_factory, data):
    n, p, t = data.draw(st.sampled_from(
        [(2, 2, 2), (3, 3, 1), (4, 2, 1), (2, 7, 2)]))
    space = ProjectiveSpace(n, make_field(p, t))
    mul = space.field.tables()[1]
    picks = data.draw(st.lists(
        st.integers(0, space.num_points - 1), max_size=60))
    picks += picks[:data.draw(st.integers(0, 10))]      # repeated rows
    rows = []
    for rank in picks:
        scale = data.draw(st.integers(1, space.q - 1))
        rows.append([int(mul[scale, c]) for c in space.coords_of(rank)])
    rows = data.draw(st.permutations(rows))
    lines = ["# a random set", f"pointset 1 {p} {t} {n}"]
    for row in rows:
        lines.append(" ".join(map(str, row)))
        lines += data.draw(st.sampled_from([[], [""], ["# comment"]]))
    path = str(tmp_path_factory.mktemp("pts") / "set.pts")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    # the reference ranks each row on its own, as the per-row reader did
    want = sorted({space.rank_of(row) for row in rows})
    assert formats.read_pointset(path).ranks.tolist() == want
    assert want == sorted(set(picks))


def test_io_errors(tmp_path, baer):
    with pytest.raises(IoError):
        formats.read_pointset(str(tmp_path / "missing.pts"))
    with pytest.raises(IoError):
        formats.write_pointset(str(tmp_path / "no" / "dir.pts"), baer.points)
    with pytest.raises(IoError):
        formats.write_json(str(tmp_path / "no" / "x.json"), {})


def test_json_canonical(tmp_path):
    path = str(tmp_path / "obj.json")
    formats.write_json(path, {"b": 1, "a": [1, 2]})
    text = open(path).read()
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert formats.read_json(path) == {"a": [1, 2], "b": 1}
    with open(path, "w") as fh:
        fh.write("{nope")
    with pytest.raises(ParseError):
        formats.read_json(path)


def test_witness_dict_roundtrip(baer, cone_9):
    for witness in (baer, cone_9):
        data = formats.witness_to_dict(witness)
        rebuilt = formats.witness_from_dict(data)
        assert rebuilt.points == witness.points
        assert rebuilt.rank == witness.rank
    data = formats.witness_to_dict(baer)
    data["rank"] = 2
    with pytest.raises(ParseError):
        formats.witness_from_dict(data)
    dep = formats.witness_to_dict(baer)
    dep["rows"] = [dep["rows"][0], dep["rows"][0]]
    dep["rank"] = 2
    with pytest.raises(ParseError):
        formats.witness_from_dict(dep)
    for code in (3, -1):                  # codes of GF(3) are 0..2
        bad = formats.witness_to_dict(baer)
        bad["rows"][0][-1] = code
        with pytest.raises(ParseError):
            formats.witness_from_dict(bad)


# -- CLI -----------------------------------------------------------------------


@pytest.fixture()
def baer_file(tmp_path, capsys):
    path = str(tmp_path / "baer.pts")
    cli_json(capsys, "gen", "subgeometry", "--p", "3", "--t", "2",
             "--n", "2", "--out", path)
    return path


def test_cli_version():
    assert version_string().startswith("blockingsets ")
    assert "(conway-table 1)" in version_string()


def test_cli_gen(tmp_path, capsys, baer):
    path = str(tmp_path / "out.pts")
    data = cli_json(capsys, "gen", "subgeometry", "--p", "3", "--t", "2",
                    "--n", "2", "--out", path)
    assert data["points"] == 13 and data["witness_rank"] == 3
    assert data["path"] == path
    pts, meta = formats.read_pointset(path, with_meta=True)
    assert pts == baer.points
    assert meta["family"] == "subgeometry"
    assert meta["params"] == {"q": 9, "p0": 3, "n": 2}
    rebuilt = formats.witness_from_dict(meta["witness"])
    assert rebuilt.points == pts
    # byte-identical regeneration
    other = str(tmp_path / "out2.pts")
    cli_json(capsys, "gen", "subgeometry", "--p", "3", "--t", "2",
             "--n", "2", "--out", other)
    assert open(path, "rb").read() == open(other, "rb").read()
    assert open(formats.meta_path(path), "rb").read() == \
        open(formats.meta_path(other), "rb").read()


def test_cli_gen_bad_params(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "random_rank_r", "--p", "3",
                           "--t", "3", "--n", "2", "--rank", "0",
                           "--seed", "1", "--out", str(tmp_path / "x.pts"))
    assert code == 2
    assert err.startswith("error: BadParamsError:")


def test_cli_check(capsys, baer_file):
    data = cli_json(capsys, "check", baer_file, "--k", "1")
    assert data["blocking"] and data["minimal"] and data["redei"]
    assert data["small"] and not data["trivial"]
    assert data["exponent"] == 1 and data["set_size"] == 13
    assert data["space"] == {"p": 3, "t": 2, "n": 2, "q": 9}
    assert data["uncovered_rows"] is None
    assert data["removable_point"] is None
    assert len(data["redei_hyperplane_rows"]) == 2


def test_cli_check_nonblocking_still_reports(tmp_path, capsys):
    path = str(tmp_path / "three.pts")
    with open(path, "w") as fh:
        fh.write("pointset 1 3 1 2\n0 0 1\n0 1 0\n1 0 0\n")
    data = cli_json(capsys, "check", path)
    assert not data["blocking"]
    assert data["uncovered_rows"] is not None


def test_cli_check_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.pts"))
    assert code == 3
    assert err.startswith("error: IoError:")


def test_cli_check_field_above_size_limit_exits_3(capsys, tmp_path):
    path = tmp_path / "big.pts"
    path.write_text("pointset 1 2 11 2\n1 0 1\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 3
    assert err.startswith("error: ParseError:")


@pytest.mark.parametrize("code", [10 ** 23, -10 ** 23])
def test_cli_check_code_past_int64_exits_3(capsys, tmp_path, code):
    path = tmp_path / "huge.pts"
    path.write_text(f"pointset 1 3 1 2\n1 0 {code}\n")
    status, _, err = run_cli(capsys, "check", str(path))
    assert status == 3
    assert err.startswith("error: ParseError:")


def test_cli_reconstruct(capsys, baer_file):
    data = cli_json(capsys, "reconstruct", baer_file, "--p0", "3")
    assert data["status"] == "ok" and data["dim_W"] == 2
    assert data["image_equal"] and data["secants_used"] == 4
    assert len(data["W_rows"]) == 3
    assert data["diagnostics"]["target_dim"] == 2


def test_cli_reconstruct_failure_exit(tmp_path, capsys):
    space = ProjectiveSpace(2, make_field(3, 2))
    line = PointSet(space, Subspace(
        space, [(1, 0, 0), (0, 1, 0)]).point_ranks())
    path = str(tmp_path / "line.pts")
    formats.write_pointset(path, line)
    code, _, err = run_cli(capsys, "reconstruct", path, "--p0", "3")
    assert code == 1
    assert err.startswith("error: NoSublineSecantError:")


def test_cli_reconstruct_all_points(capsys, baer):
    path = os.path.join(catalogue.shipped_dir(), "baer_pg2_9.pts")
    data = cli_json(capsys, "reconstruct", path, "--p0", "3",
                    "--point-policy", "all")
    assert isinstance(data, list) and len(data) == 13
    assert [r["base_point"] for r in data] == baer.points.ranks.tolist()
    assert all(r["status"] == "ok" and r["dim_W"] == 2 and
               r["secants_used"] == 4 for r in data)
    assert data[0] == cli_json(capsys, "reconstruct", path, "--p0", "3")


def test_cli_reconstruct_reports_non_subline_secant(tmp_path, capsys):
    # the line x0 = 0 plus three points of the line x1 = 0, which meets the
    # set in 4 points that form no GF(3)-subline
    rows = [(0, 0, 1)] + [(0, 1, c) for c in range(9)] \
        + [(1, 0, 0), (1, 0, 1), (1, 0, 3)]
    path = tmp_path / "nonsub.pts"
    path.write_text("pointset 1 3 2 2\n"
                    + "".join("%d %d %d\n" % row for row in rows))
    data = cli_json(capsys, "reconstruct", str(path), "--p0", "3", expect=1)
    assert data["status"] == "no secant trace is a subline"
    assert data["W_rows"] is None
    assert data["diagnostics"]["skipped_non_sublines"] == 1
    assert data["diagnostics"]["skipped"] == [[[1, 0, 0], [0, 0, 1]]]
    # every point of that secant is a base point, and none succeeds
    listed = cli_json(capsys, "reconstruct", str(path), "--p0", "3",
                      "--point-policy", "all", expect=1)
    assert len(listed) == 4
    assert all(r["status"] == "no secant trace is a subline"
               for r in listed)


def test_cli_islinear(capsys, baer_file, tmp_path, baer):
    data = cli_json(capsys, "islinear", baer_file, "--p0", "3")
    assert data["linear"] and data["rank"] == 3
    assert data["certificate"]["reconstruct_succeeded"]
    assert len(data["witness_rows"]) == 3

    lines = traces_of(baer.points, 1)
    idx = int(np.nonzero(lines.sizes == 4)[0][0])
    row = lines.subspace_at(idx).point_ranks()
    on = [int(r) for r in row if r in baer.points]
    off = [int(r) for r in row if r not in baer.points]
    mutated = PointSet(baer.points.space,
                       [int(r) for r in baer.points.ranks
                        if r != on[0]] + [off[0]])
    bad = str(tmp_path / "mutated.pts")
    formats.write_pointset(bad, mutated)
    data = cli_json(capsys, "islinear", bad, "--p0", "3",
                    "--strategy", "exhaustive", expect=1)
    assert not data["linear"] and data["witness_rows"] is None


def test_cli_harness_shipped(capsys, tmp_path):
    out1 = str(tmp_path / "card1.json")
    out2 = str(tmp_path / "card2.json")
    code, _, _ = run_cli(capsys, "harness", "--instances", "baer_pg2_9",
                         "--out", out1)
    assert code == 0
    code, _, _ = run_cli(capsys, "harness", "--instances", "baer_pg2_9",
                         "--out", out2)
    assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    card = json.loads(open(out1).read())
    assert card["schema"] == "blockingsets-scorecard/1"
    assert card["summary"]["violated"] == 0
    assert {r["instance"] for r in card["checks"]} == {"baer_pg2_9"}


def _drop(*path):
    def edit(meta):
        for key in path[:-1]:
            meta = meta[key]
        del meta[path[-1]]
    return edit


def _put(value, *path):
    def edit(meta):
        for key in path[:-1]:
            meta = meta[key]
        meta[path[-1]] = value
    return edit


_MALFORMED = {
    "no-k": _drop("k"),
    "no-p0": _drop("p0"),
    "no-witness-space": _drop("witness", "space"),
    "no-witness-rows": _drop("witness", "rows"),
    "no-witness-t": _drop("witness", "space", "t"),
    "k-string": _put("2", "k"),
    "k-bool": _put(True, "k"),
    "p0-float": _put(3.0, "p0"),
    "slow-string": _put("yes", "slow"),
    "name-int": _put(7, "name"),
    "claims-list": _put([], "claims"),
    "witness-list": _put([1, 2], "witness"),
    "witness-p-string": _put("3", "witness", "space", "p"),
    "witness-p-not-prime": _put(4, "witness", "space", "p"),
    "witness-space-partial": _put({"p": 3, "t": 2}, "witness", "space"),
    "rows-int": _put(3, "witness", "rows"),
    "rows-ragged": _put([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0]],
                        "witness", "rows"),
    "rows-scalar-row": _put([[1, 0, 0, 0, 0, 0], 5], "witness", "rows"),
    "rows-empty": _put([], "witness", "rows"),
    "rows-string-code": _put([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                              [0, 0, 0, 0, 1, "0"]], "witness", "rows"),
    "rows-too-wide": _put([[1, 0, 0, 0, 0, 0, 0, 0]] * 3, "witness", "rows"),
    "rank-string": _put("3", "witness", "rank"),
    "witness-other-space": _put({"p": 3, "t": 2, "n": 3},
                                "witness", "space"),
}


@pytest.mark.parametrize("edit", list(_MALFORMED.values()),
                         ids=list(_MALFORMED))
def test_cli_harness_malformed_sidecar_exits_3(tmp_path, capsys, edit):
    src = catalogue.shipped_dir() + "/baer_pg2_9"
    shutil.copy(src + ".pts", tmp_path / "baer_pg2_9.pts")
    meta = json.load(open(src + ".meta.json"))
    edit(meta)
    with open(tmp_path / "baer_pg2_9.meta.json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ParseError):
        harness.load_instance(str(tmp_path / "baer_pg2_9.pts"))
    code, _, err = run_cli(capsys, "harness", "--dir", str(tmp_path))
    assert code == 3 and "ParseError" in err, err


def test_cli_harness_rejects_unknown_names(capsys):
    code, _, err = run_cli(capsys, "harness", "--instances", "nope")
    assert code == 2 and "NotFoundError" in err
    code, _, err = run_cli(capsys, "harness", "--dir",
                           catalogue.shipped_dir(), "--instances", "nope")
    assert code == 2 and "NotFoundError" in err
    code, _, err = run_cli(capsys, "harness", "--instances", "baer_pg2_9",
                           "--checks", "nope")
    assert code == 2 and "NotFoundError" in err


def test_cli_secants(capsys, baer_file):
    data = cli_json(capsys, "secants", baer_file, "--p0", "3")
    assert data["kappa"] == 4 and data["min_subline_secants"] == 4
    assert data["secant_size_counts"] == {"4": 13}
    assert len(data["per_point"]) == 13
    assert all(row["subline_secants"] == 4 and row["tangent_spaces"] == 6
               for row in data["per_point"])


def test_cli_project(tmp_path, capsys):
    space = ProjectiveSpace(2, make_field(3, 2))
    line = Subspace(space, [(1, 0, 0), (0, 1, 0)])
    from blockingsets.linearsets import enumerate_sublines
    sub = next(enumerate_sublines(line, 3))
    src = str(tmp_path / "subline.pts")
    formats.write_pointset(src, sub)
    img = str(tmp_path / "image.pts")
    data = cli_json(capsys, "project", src, "--out", img)
    assert data["source_size"] == 4 and data["image_size"] == 4
    image = formats.read_pointset(img)
    assert len(image) == 4
    cov = data["covector"]
    arr = np.asarray([space.coords_of(int(r)) for r in image.ranks])
    # image lies in the target hyperplane
    gf = space.field
    for row in arr:
        acc = 0
        for c, v in zip(cov, row):
            acc = gf.add(acc, gf.mul(c, int(v)))
        assert acc == 0


def test_cli_project_rejects_centre_in_set(tmp_path, capsys):
    space = ProjectiveSpace(2, make_field(3, 2))
    line = Subspace(space, [(1, 0, 0), (0, 1, 0)])
    from blockingsets.linearsets import enumerate_sublines
    sub = next(enumerate_sublines(line, 3))
    src = str(tmp_path / "subline.pts")
    formats.write_pointset(src, sub)
    code, _, err = run_cli(capsys, "project", src,
                           "--centre", str(int(sub.ranks[0])),
                           "--cov", "0,0,1")
    assert code == 2 and "CentreInSetError" in err


def test_cli_spread_dump(capsys):
    data = cli_json(capsys, "spread-dump", "--p", "3", "--t", "2",
                    "--n", "2", "--point", "0")
    assert data["h"] == 2 and data["p0"] == 3
    assert data["small"] == {"p": 3, "t": 1, "n": 5}
    assert data["element_dim"] == 1
    assert len(data["element_ranks"]) == 4
    assert data["spread_elements"] == 91


@pytest.mark.parametrize("point", ["91", "-1"])
def test_cli_spread_dump_rank_out_of_range(capsys, point):
    code, out, err = run_cli(capsys, "spread-dump", "--p", "3", "--t", "2",
                             "--n", "2", "--point", point)
    assert code == 2 and out == ""
    assert f"RangeError: point rank {point} out of range" in err


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("blockingsets ")
