"""The command-line tools under tools/, run in process on small inputs, so
that a rename in the package cannot break them unnoticed."""

import importlib.util
import os

from blockingsets import blocking, formats, harness, projspace

TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mempeaks_rows(monkeypatch, capsys):
    mempeaks = _tool("mempeaks")
    # the tool wraps the checks, the scans, their grouping tail and the
    # grid reads in place: restore them afterwards
    monkeypatch.setattr(harness, "_CHECKS", dict(harness._CHECKS))
    for name in ("_scan_lines", "_scan_hyperplanes", "_by_point_summary"):
        monkeypatch.setattr(projspace, name, getattr(projspace, name))
    monkeypatch.setattr(projspace.TraceSummary, "by_point",
                        projspace.TraceSummary.by_point)
    # cached summaries would hide the scans
    blocking.traces_of.cache_clear()
    assert mempeaks.main(["cone_pg3_9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("cone_pg3_9: maxrss")
    assert out[1].split()[:2] == ["span", "s"]
    rows = [(line[:28], line[28:].split()) for line in out[2:]]
    assert all(len(numbers) == 5 for _, numbers in rows)
    depths = [(len(name) - len(name.lstrip())) // 2 for name, _ in rows]
    names = [name.strip() for name, _ in rows]
    checks = [name for name, d in zip(names, depths) if d == 0]
    grids = [i for i, name in enumerate(names)
             if name.startswith("by_point dim ")]
    scans = {name for i, (name, d) in enumerate(zip(names, depths))
             if d == 1 and i not in grids}
    assert sorted(checks) == sorted(harness.CHECK_IDS)
    assert scans == {"_scan_lines", "_scan_hyperplanes"}
    # each scan ends in one run of the grouping tail, nested under it
    tails = [i for i, name in enumerate(names) if name == "_by_point_summary"]
    assert tails and {depths[i] for i in tails} == {2}
    assert all(names[i - 1] in scans for i in tails)
    assert len(tails) == sum(name in scans for name in names)
    # each grid build is nested under the check that paid for it, and
    # the line summary's grid, read by many checks, is built once
    assert grids and {depths[i] for i in grids} == {1}
    assert [names[i] for i in grids].count("by_point dim 1") == 1


def test_mempeaks_rejects_unknown_names(capsys):
    mempeaks = _tool("mempeaks")
    assert mempeaks.main(["no_such_instance"]) == 2
    assert mempeaks.main([]) == 2
    assert capsys.readouterr().out == ""


def test_setupcost_rows(tmp_path, capsys, monkeypatch, baer):
    setupcost = _tool("setupcost")
    monkeypatch.setattr(setupcost, "REPEAT", 1)
    path = str(tmp_path / "baer.pts")
    formats.write_pointset(path, baer.points)
    assert setupcost.main([path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["stage", "median_s", "min_s", "numpy.ma"]
    assert [line[:24].strip() for line in out[1:]] == list(setupcost.STAGES)
    for line in out[1:]:
        median, least, loaded = line[24:].split()
        assert float(median) == float(least) > 0 and loaded in ("-",
                                                                "loaded")


def test_setupcost_rejects_bad_arguments(tmp_path, capsys):
    setupcost = _tool("setupcost")
    assert setupcost.main(["--root", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""
