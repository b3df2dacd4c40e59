"""Every function and method under src/blockingsets has a caller in the
package, or a reason to exist without one: its name is exported in
`__all__`, it is a harness check registered through `@_check`, the
benchmark's tracer wraps it by name (perfbench/tracing.py), or it is on
the allow-list below with a one-line reason.  A helper that only the tests
call fails here, so the surface the pipeline no longer uses is deleted,
not kept alive by its own tests."""

import ast
import pathlib

import blockingsets

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
