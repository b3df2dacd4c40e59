"""Every function and method under src/blockingsets has a caller in the
package, or a reason to exist without one: its name is exported in
`__all__`, it is a harness check registered through `@_check`, the
benchmark's tracer wraps it by name (perfbench/tracing.py), or it is on
the allow-list below with a one-line reason.  A helper that only the tests
call fails here, so the surface the pipeline no longer uses is deleted,
not kept alive by its own tests.

Every public callable (`__all__` and the methods of the exported classes)
that takes element codes or point ranks refuses -1, the first value out
of range and a non-integer through the guard of its input rule
(`FieldSpec.check_codes`, `ProjectiveSpace.check_ranks`), and every other
one is listed as taking neither, with a one-line reason."""

import ast
import pathlib
import types

import numpy as np
import pytest

import blockingsets
from blockingsets import (FieldSpec, PointSet, ProjectiveSpace, SpreadContext,
                          Subspace, SubspaceChart, check_span_lemma,
                          make_field, project, span, spread_context)
from blockingsets.errors import RangeError
from blockingsets.projspace import TraceSummary

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blockingsets"
TRACING = ROOT / "perfbench" / "tracing.py"

# module.qualname -> why it stays without a caller in the package
ALLOWED = {
    "blocking.tangent_space":
        "a construction of the paper: the tangent (n-k)-space at a point",
    "blocking.tangent_extension":
        "a construction of the paper: a tangent line grown to a tangent "
        "(n-k)-space",
    "catalogue.write_instance":
        "README: regenerates a shipped instance byte for byte",
    "projspace.ProjectiveSpace.line_through":
        "README: the canonical basis of the line through two points",
    "projspace.ProjectiveSpace.line_keys":
        "README: ranks the lines of spanning row pairs",
    "projspace.ProjectiveSpace.normalize_rows":
        "README: normalizes a batch of coordinate rows",
    "projspace.ProjectiveSpace.subspace_by_index":
        "README: decodes an enumeration index",
    "projspace.PointSet.difference":
        "set algebra of the exported PointSet, beside union and "
        "intersection",
    "projspace.PointSet.restrict_to":
        "README (charts): a set's points inside a subspace, in its chart",
    "projspace.SubspaceChart.to_small":
        "the point map of the exported SubspaceChart (README: charts)",
    "spreads.SpreadContext.blow_up_subspace":
        "README: a SpreadContext blows subspaces up and down",
}


def _definitions(tree):
    """(qualname, node) of the module-level functions and the methods of
    module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _references(tree):
    """(name, line) of every name and attribute read in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _registered(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_check" for d in node.decorator_list)


def _uncalled():
    """module.qualname of every definition with no reason to exist."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    refs = {mod: list(_references(tree)) for mod, tree in trees.items()}
    wrapped = {node.value for node in ast.walk(ast.parse(
        TRACING.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    exported = set(blockingsets.__all__)
    out = []
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") or name in exported
                    or name in wrapped or _registered(node)):
                continue
            # a reference inside the definition itself is no caller
            called = any(
                ref == name and (other != mod or not
                                 node.lineno <= line <= node.end_lineno)
                for other, found in refs.items() for ref, line in found)
            if not called:
                out.append(f"{mod}.{qualname}")
    return out


def test_every_definition_has_a_caller_or_a_reason():
    uncalled = set(_uncalled())
    unexplained = sorted(uncalled - set(ALLOWED))
    assert not unexplained, unexplained
    # the allow-list holds nothing that has gained a caller or gone
    stale = sorted(set(ALLOWED) - uncalled)
    assert not stale, stale
    assert all(reason.strip() for reason in ALLOWED.values())


# -- input guards ----------------------------------------------------------

CLASSES = (ProjectiveSpace, Subspace, PointSet, SubspaceChart, FieldSpec,
           SpreadContext, TraceSummary)


def _public_callables() -> set:
    names = {name for name in blockingsets.__all__
             if callable(getattr(blockingsets, name))}
    for cls in CLASSES:
        names |= {f"{cls.__name__}.{attr}" for attr, val in vars(cls).items()
                  if not attr.startswith("_") and callable(val)}
    return names


@pytest.fixture(scope="module")
def env():
    space = ProjectiveSpace(3, make_field(7, 2))
    plane = space.hyperplane((1, 0, 0, 0))
    return types.SimpleNamespace(
        S=space, F=space.field, ctx=spread_context(space),
        pts=PointSet(space, range(10)), line=space.line_through(0, 1),
        plane=plane, chart=SubspaceChart(plane))


# the bound of each kind of input: the first value out of range
BOUNDS = {
    "code": lambda e: e.F.q,
    "rank": lambda e: e.S.num_points,
    "small code": lambda e: e.ctx.small.q,
    "small rank": lambda e: e.ctx.small.num_points,
}

# entry -> the calls that put a bad value v where it takes codes or ranks
GUARDED = {
    "FieldSpec.check_codes": [("code", lambda e, v: e.F.check_codes(v))],
    "FieldSpec.add": [("code", lambda e, v: e.F.add(v, 0))],
    "FieldSpec.sub": [("code", lambda e, v: e.F.sub(0, v))],
    "FieldSpec.mul": [("code", lambda e, v: e.F.mul(v, 1))],
    "FieldSpec.neg": [("code", lambda e, v: e.F.neg(v))],
    "FieldSpec.inv": [("code", lambda e, v: e.F.inv(v))],
    "FieldSpec.pow": [("code", lambda e, v: e.F.pow(v, 2))],
    "FieldSpec.frobenius": [("code", lambda e, v: e.F.frobenius(v))],
    "FieldSpec.decode": [("code", lambda e, v: e.F.decode(v))],
    "ProjectiveSpace.check_ranks": [("rank", lambda e, v: e.S.check_ranks(v))],
    "ProjectiveSpace.normalize": [
        ("code", lambda e, v: e.S.normalize((v, 0, 0, 1)))],
    "ProjectiveSpace.rank_of": [
        ("code", lambda e, v: e.S.rank_of((1, 0, 0, v)))],
    "ProjectiveSpace.coords_of": [("rank", lambda e, v: e.S.coords_of(v))],
    "ProjectiveSpace.normalize_rows": [
        ("code", lambda e, v: e.S.normalize_rows([[v, 0, 0, 1]]))],
    "ProjectiveSpace.ranks_from_rows": [
        ("code", lambda e, v: e.S.ranks_from_rows([[v, 0, 0, 1]]))],
    "ProjectiveSpace.coords_of_ranks": [
        ("rank", lambda e, v: e.S.coords_of_ranks([0, v]))],
    "ProjectiveSpace.subspaces": [
        ("code", lambda e, v: next(e.S.subspaces(1, through=(1, 0, 0, v)))),
        ("rank", lambda e, v: next(e.S.subspaces(1, through=v)))],
    "ProjectiveSpace.line_through": [
        ("code", lambda e, v: e.S.line_through((1, 0, 0, v), 0)),
        ("rank", lambda e, v: e.S.line_through(0, v))],
    "ProjectiveSpace.hyperplane": [
        ("code", lambda e, v: e.S.hyperplane((1, 0, 0, v)))],
    "ProjectiveSpace.rref_rows": [
        ("code", lambda e, v: e.S.rref_rows([[[1, 0, 0, v]]]))],
    "ProjectiveSpace.line_keys": [
        ("code", lambda e, v: e.S.line_keys([[[1, 0, 0, v], [0, 1, 0, 0]]]))],
    "ProjectiveSpace.points_of": [
        ("code", lambda e, v: e.S.points_of([[[1, 0, 0, v], [0, 1, 0, 0]]]))],
    "ProjectiveSpace.lines_inside": [
        ("code", lambda e, v: e.S.lines_inside(
            [[[1, 0, 0, v], [0, 1, 0, 0], [0, 0, 1, 0]]]))],
    "Subspace": [("code", lambda e, v: Subspace(e.S, [(1, 0, 0, v)])),
                 ("code", lambda e, v: Subspace(e.S, [(v, 0, 0, 1)]))],
    "Subspace.contains": [
        ("code", lambda e, v: e.line.contains((1, 0, 0, v))),
        ("rank", lambda e, v: e.line.contains(v))],
    "PointSet": [("rank", lambda e, v: PointSet(e.S, [0, v]))],
    "SubspaceChart.to_small": [
        ("code", lambda e, v: e.chart.to_small((0, 1, 0, v))),
        ("rank", lambda e, v: e.chart.to_small(v))],
    "SubspaceChart.to_ambient": [
        ("code", lambda e, v: e.chart.to_ambient((1, 0, v)))],
    "SubspaceChart.lift_rows": [
        ("code", lambda e, v: e.chart.lift_rows([[1, 0, v]]))],
    "span": [("code", lambda e, v: span(e.S, 0, (1, 0, 0, v))),
             ("rank", lambda e, v: span(e.S, 0, v))],
    "project": [
        ("code", lambda e, v: project(e.pts, (1, 0, 0, v), e.plane)),
        ("rank", lambda e, v: project(e.pts, v, e.plane))],
    "SpreadContext.blow_up_vector": [
        ("code", lambda e, v: e.ctx.blow_up_vector((1, 0, 0, v)))],
    "SpreadContext.spread_element": [
        ("code", lambda e, v: e.ctx.spread_element((1, 0, 0, v))),
        ("rank", lambda e, v: e.ctx.spread_element(v))],
    "SpreadContext.blow_up_ranks": [
        ("rank", lambda e, v: e.ctx.blow_up_ranks([0, v]))],
    "SpreadContext.element_ranks": [
        ("rank", lambda e, v: e.ctx.element_ranks(v))],
    "SpreadContext.blow_down_ranks": [
        ("small rank", lambda e, v: e.ctx.blow_down_ranks([0, v]))],
    "SpreadContext.linear_set_of_ranks": [
        ("small rank", lambda e, v: e.ctx.linear_set_of_ranks([0, v]))],
    "SpreadContext.transversal_line": [
        ("rank", lambda e, v: e.ctx.transversal_line(
            [[v, *range(1, 8)]], 0)),
        ("small rank", lambda e, v: e.ctx.transversal_line(
            [list(range(8))], v)),
        ("small rank", lambda e, v: e.ctx.transversal_line(
            [list(range(8))], np.asarray([v]))),
        ("small code", lambda e, v: e.ctx.transversal_line(
            [list(range(8))], (1, 0, 0, 0, 0, 0, 0, v)))],
    "check_span_lemma": [
        ("code", lambda e, v: check_span_lemma(e.pts, 1, 7, (0, 0, 1, v), 0)),
        ("rank", lambda e, v: check_span_lemma(e.pts, 1, 7, v, 0)),
        ("small rank", lambda e, v: check_span_lemma(e.pts, 1, 7, 0, v))],
}

# entry -> why it takes neither element codes nor point ranks
NO_CODES = {
    "FieldSpec": "p, t and a modulus whose coefficients it reduces mod p",
    "FieldSpec.encode": "base-p digits, which it reduces mod p",
    "FieldSpec.primitive_element": "takes no argument",
    "FieldSpec.subfield_degree": "a subfield order",
    "FieldSpec.subfield": "a degree",
    "FieldSpec.embedding": "a degree",
    "FieldSpec.tables": "takes no argument",
    "make_field": "p, t and a modulus (see FieldSpec)",
    "conway_polynomial": "p and t",
    "conway_table_version": "takes no argument",
    "gaussian_binomial": "counts, not points",
    "ProjectiveSpace": "a dimension and a field",
    "ProjectiveSpace.coords_array": "takes no argument",
    "ProjectiveSpace.num_subspaces": "a dimension",
    "ProjectiveSpace.incidence": "a dimension",
    "ProjectiveSpace.covector_of": "a Subspace",
    "ProjectiveSpace.subspace_by_index": "a subspace key, which "
                                        "subspace_bases checks",
    "ProjectiveSpace.subspace_bases": "subspace keys, checked against "
                                      "num_subspaces(dim)",
    "Subspace.point_ranks": "takes no argument",
    "PointSet.mask": "takes no argument",
    "PointSet.coords": "takes no argument",
    "PointSet.union": "a PointSet",
    "PointSet.difference": "a PointSet",
    "PointSet.intersection": "a PointSet",
    "PointSet.restrict_to": "a Subspace",
    "SubspaceChart": "a Subspace",
    "SubspaceChart.restrict": "a PointSet",
    "meet": "two Subspaces",
    "subspace_traces": "a PointSet and a dimension",
    "TraceSummary.size_counts": "takes no argument",
    "TraceSummary.spectrum": "takes no argument",
    "TraceSummary.slot_rows": "point positions in the set, checked there",
    "TraceSummary.secants_through": "point positions in the set, checked "
                                    "there",
    "TraceSummary.indices_through_point": "a point position (slot_rows)",
    "TraceSummary.point_sizes": "takes no argument",
    "TraceSummary.per_point_counts": "trace sizes",
    "TraceSummary.keys_of": "slots, checked against the stored sizes",
    "TraceSummary.sizes_of": "subspace keys, checked against total",
    "TraceSummary.bases": "slots (keys_of)",
    "TraceSummary.subspace_at": "a slot (keys_of)",
    "TraceSummary.first_uncovered": "takes no argument",
    "TraceSummary.witness_order": "slots (keys_of)",
    "SpreadContext": "a ProjectiveSpace",
    "SpreadContext.linear_set_of": "a Subspace",
    "SpreadContext.blow_up_subspace": "a Subspace",
    "spread_context": "a ProjectiveSpace",
    "read_pointset": "a path; the file's codes go through the reader's "
                     "line-numbered checks",
    "write_pointset": "a path and a PointSet",
    "load_instance": "a path",
    "load_catalogue": "a directory",
    "load_shipped": "catalogue names",
    "counting_identities": "field and space parameters, dimensions, a seed",
    "run_suite": "instances and check names",
    "scorecard": "check results",
    "build_family": "a family name and its parameters",
    "build_family_witness": "a family name and its parameters",
    "build_linear_set": "a SpreadContext and a Subspace",
    "enumerate_sublines": "a Subspace and p0",
    "subline_patterns": "a FieldSpec and p0",
    "subline_meet_check": "a LinearSetWitness",
    "secant_linearity_check": "a PointSet, k and p0",
    "is_linear": "a PointSet, p0, a strategy and k",
    "reconstruct": "a PointSet, k, p0 and a point policy",
    "secant_count_bounds": "a PointSet, k and p0",
    "blocking_report": "a PointSet and k",
    "classify_small_large": "a PointSet, k, p0 and a Subspace",
    "classify_trace": "a trace size and the gap parameters",
    "exponent": "a PointSet and k",
    "gap_thresholds": "the gap parameters",
    "is_k_blocking": "a PointSet and k",
    "is_minimal": "a PointSet, k and a method",
    "is_redei": "a PointSet and k",
    "is_small": "a PointSet and k",
    "is_trivial": "a PointSet and k",
    "nonsecant_point_count": "a PointSet",
    "one_mod_p0_applicable": "a PointSet, k and p0",
    "secant_analysis": "a PointSet, k and p0",
    "spectrum": "a PointSet and a dimension",
    "tangent_counts": "a PointSet and k",
    "traces_of": "a PointSet and a dimension",
    "BlockingReport": "a result record",
    "GapClassification": "a result record",
    "IntersectionSpectrum": "a result record",
    "SecantReport": "a result record",
    "LinearSetWitness": "a result record",
    "SublineMeetReport": "a result record",
    "ReconstructionResult": "a result record",
    "SecantBoundReport": "a result record",
    "Instance": "a catalogue record",
    "LemmaCheck": "a result record",
}


def test_every_public_callable_is_guarded_or_takes_no_codes():
    names = _public_callables()
    assert not set(GUARDED) & set(NO_CODES)
    assert sorted(names - set(GUARDED) - set(NO_CODES)) == []
    assert sorted((set(GUARDED) | set(NO_CODES)) - names) == []
    assert all(reason.strip() for reason in NO_CODES.values())


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_every_entry_refuses_bad_codes_and_ranks(env, name):
    """-1 and the bound are RangeErrors of the input's guard, not codes
    read round (an index of -1 reads q - 1) or bare IndexErrors, and a
    non-integer is a TypeError, not a truncated value."""
    for kind, call in GUARDED[name]:
        bound = BOUNDS[kind](env)
        for bad in (-1, bound):
            match = f"element code outside 0..{bound - 1}" \
                if kind.endswith("code") else \
                f"point rank {bad} out of range"
            with pytest.raises(RangeError, match=match):
                call(env, bad)
        with pytest.raises(TypeError):
            call(env, 1.5)
