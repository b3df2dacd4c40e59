"""The benchmark's tracer (perfbench/tracing.py) wraps the package's
functions by name from outside, so renaming or deleting one of them, or
routing a scan around it, breaks `perfbench/run.py --trace 1`.  These
tests install the tracer on the package and check what it relies on."""

import importlib
import os
import sys

import numpy as np
import pytest

import blockingsets
from blockingsets import blocking, fields, formats, harness, projspace, spreads
from blockingsets.fields import make_field
from blockingsets.projspace import PointSet, ProjectiveSpace

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
# the classes whose methods the tracer wraps
CLASSES = (fields.FieldSpec, projspace.ProjectiveSpace, projspace.Subspace,
           projspace.TraceSummary, spreads.SpreadContext)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def _package_state():
    """Every attribute of every loaded package module and wrapped class,
    and the harness's check table, by identity."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name.startswith("blockingsets") and m is not None]
    out = {("module", m.__name__): dict(vars(m)) for m in mods}
    out.update({("class", c.__qualname__): dict(vars(c)) for c in CLASSES})
    out[("checks",)] = dict(harness._CHECKS)
    return out


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys()
        and all(a[k][name] is b[k][name] for name in a[k]) for k in a)


def test_tracer_installs_and_restores_every_attribute(tracing):
    before = _package_state()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _package_state()
        # the scans and the incidence table are wrapped where looked up
        assert projspace._scan_full is not before[
            ("module", "blockingsets.projspace")]["_scan_full"]
        assert vars(ProjectiveSpace)["incidence"] is not before[
            ("class", "ProjectiveSpace")]["incidence"]
        assert formats.read_pointset is not before[
            ("module", "blockingsets.formats")]["read_pointset"]
        assert not _same(before, during)
    finally:
        tracer.uninstall()
    assert _same(before, _package_state())


def test_middle_dimension_spectrum_fires_the_table_metrics(tracing):
    space = ProjectiveSpace(5, make_field(2, 1))
    rng = np.random.default_rng(5)
    pts = PointSet(space, rng.choice(space.num_points, 20, replace=False))
    blocking.traces_of.cache_clear()      # both scans run under the tracer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for dim in (2, 3):
            spec = blockingsets.spectrum(pts, dim)
            assert sum(spec.x.values()) == space.num_subspaces(dim)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["projspace.table_scan_s"] > 0
    assert metrics["projspace.incidence_table_s"] > 0
    assert metrics["blocking.trace_scans"] == 2


def test_incidence_table_builds_in_closed_form(monkeypatch):
    space = ProjectiveSpace(4, make_field(5, 1))
    monkeypatch.setattr(space, "_incidence", {})
    calls = []
    for cls, attr in ((projspace.Subspace, "__init__"),
                      (ProjectiveSpace, "normalize_rows"),
                      (ProjectiveSpace, "ranks_from_rows")):
        orig = getattr(cls, attr)

        def counted(self, *args, _orig=orig, _attr=attr, **kwargs):
            calls.append(_attr)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)
    assert space.incidence(2).shape == (space.num_points, 806)
    assert calls == []


def _random_set_file(path, rows):
    space = ProjectiveSpace(4, make_field(5, 1))
    rng = np.random.default_rng(9)
    pts = PointSet(space, rng.choice(space.num_points, rows, replace=False))
    formats.write_pointset(str(path), pts)
    return pts


def test_reading_a_file_fires_its_metric(tracing, tmp_path):
    pts = _random_set_file(tmp_path / "set.pts", 50)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert formats.read_pointset(str(tmp_path / "set.pts")) == pts
    finally:
        tracer.uninstall()
    assert tracer.metrics()["formats.read_pointset_s"] > 0


def test_read_pointset_ranks_a_file_in_one_call(monkeypatch, tmp_path):
    pts = _random_set_file(tmp_path / "set.pts", 500)
    orig = ProjectiveSpace.ranks_from_rows
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(ProjectiveSpace, "ranks_from_rows", counted)
    assert formats.read_pointset(str(tmp_path / "set.pts")) == pts
    assert calls == [pts.space]


def test_spread_build_ranks_in_closed_form(monkeypatch):
    big = ProjectiveSpace(3, make_field(7, 2))
    calls = []
    for attr in ("ranks_from_rows", "normalize_rows"):
        orig = getattr(ProjectiveSpace, attr)

        def counted(self, *args, _orig=orig, _attr=attr, **kwargs):
            calls.append(_attr)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(ProjectiveSpace, attr, counted)
    ctx = spreads.SpreadContext(big)      # not the cached spread_context
    assert ctx.big_to_small.shape == (big.num_points, 8)
    assert calls == []


def test_spread_build_fires_its_metrics(tracing):
    big = ProjectiveSpace(2, make_field(7, 2))
    before = vars(spreads.SpreadContext)["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vars(spreads.SpreadContext)["__init__"] is not before
        spreads.SpreadContext(big)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["spreads.contexts_built"] == 1
    assert metrics["spreads.context_build_s"] > 0


def test_reconstruct_searches_in_blocks_of_secants(tracing):
    # the tracer counts transversal_line spans: the whole-set search of
    # the cone takes one call per block of secants, not one per base point
    # nor one per secant
    from blockingsets import catalogue
    from blockingsets.reconstruct import reconstruct
    cone = catalogue.load_shipped(["cone_pg3_9"])[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = reconstruct(cone.points, cone.k, cone.p0,
                              point_policy="all")
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    ctx = spreads.spread_context(cone.points.space)
    rows = sum(r.diagnostics["secants_through_P"] for r in results)
    block = projspace._SCAN_BLOCK_BYTES \
        // (64 * ctx.points_per_element * (cone.points.space.n + 1))
    assert metrics["spreads.transversal_line_s"] > 0
    assert 1 <= metrics["spreads.transversal_lines"] <= -(-rows // block)
    assert metrics["spreads.transversal_lines"] < len(results)
    assert sum(len(r.secants_used) for r in results) > len(results)


def test_dense_summaries_search_for_no_uncovered_key(monkeypatch):
    # the cone meets every line: its line summary has no missing key, so
    # neither the summary nor the blocking verdict searches the keys
    from blockingsets import catalogue
    cone = catalogue.load_shipped(["cone_pg3_9"])[0].points
    blocking.traces_of.cache_clear()      # a fresh summary, nothing cached
    search = np.searchsorted

    def refuse(a, v, *args, **kwargs):
        # decoding point ranks finds each lead among the n+1 offsets of
        # the point ranks; a search in any longer array is a key search
        if np.size(a) > cone.space.n + 1:
            raise AssertionError("a key search on a dense summary")
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", refuse)
    assert projspace.subspace_traces(cone, 1).first_uncovered() is None
    assert blocking.is_k_blocking(cone, 2) == (True, None)


def test_point_secant_paths_gather_no_selection(monkeypatch):
    # reconstruction reads the secants of all its base points in one
    # call, the span lemma and the span_image_subset check those through
    # one point; summaries have no gather of an arbitrary selection of
    # slots to fall back on
    from blockingsets import catalogue
    from blockingsets.reconstruct import check_span_lemma, reconstruct
    assert not hasattr(projspace.TraceSummary, "grouped_points")
    instances = catalogue.load_shipped()
    cone = next(i for i in instances if i.name == "cone_pg3_9")
    calls = []
    through = projspace.TraceSummary.secants_through

    def counted(self, pos, size):
        calls.append(pos)
        return through(self, pos, size)

    monkeypatch.setattr(projspace.TraceSummary, "secants_through", counted)
    lookups = []
    with monkeypatch.context() as patch:
        for cls, name in ((projspace.ProjectiveSpace, "coords_of"),
                          (spreads.SpreadContext, "element_ranks")):
            patch.setattr(cls, name, lambda *a, name=name, f=getattr(
                cls, name): lookups.append(name) or f(*a))
        results = reconstruct(cone.points, cone.k, cone.p0,
                              point_policy="all")
    # one batched call for every base point, and no per-point lookup
    assert len(calls) == 1 and all(r.success for r in results)
    assert not lookups
    assert np.array_equal(cone.points.ranks[calls[0]],
                          [r.P for r in results])
    calls.clear()
    lemma = check_span_lemma(cone.points, cone.k, cone.p0, results[0].P,
                             results[0].x)
    assert calls and lemma.ok and lemma.pairs_checked
    calls.clear()
    checks = [harness.run_instance(inst, ["span_image_subset"])[0]
              .to_json() for inst in instances]
    assert calls
    assert [c["verdict"] for c in checks].count(harness.HOLDS) == 1
