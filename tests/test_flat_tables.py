"""The field tables are read flat: no package code indexes ADD, MUL, NEG
or INV along two axes.  A flat `take` at a * q + b costs a fraction of
2-D fancy indexing, and one access pattern keeps the batched kernels on
one arithmetic backend.  The only exception is the build of the tables
themselves, `fields.FieldSpec._build_tables`.  The check is syntactic: it
flags a read subscript whose index is a tuple, of a name or attribute
called add, mul, neg or inv."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "blockingsets"

_TABLES = {"add", "mul", "neg", "inv"}
# (file name, function name) whose body may index the tables in 2-D
_EXEMPT = {("fields.py", "_build_tables")}


def table_sites(source: str, filename: str = "") -> list:
    """(line, table) for every read of a field table with a tuple index in
    the source, outside the exempt functions of the file."""
    out = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and (filename, node.name) in _EXEMPT:
            return
        if isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.slice, ast.Tuple):
            value = node.value
            name = value.id if isinstance(value, ast.Name) else \
                getattr(value, "attr", None)
            if name in _TABLES:
                out.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return out


@pytest.mark.parametrize("source", [
    "x = add[a, b]",
    "x = mul[a[:, None], b]",
    "x = neg[mul[u, inv[v]]]",
    "x = add[mul[c, d], e]",
    "x = inv[a, :]",
    "x = tables.mul[a, b]",
    "def _build_tables(self):\n    return mul[a, b]",
    "def f():\n    def g():\n        return add[x, y]\n    return g",
])
def test_detector_flags_two_axis_reads(source):
    assert table_sites(source)


def test_detector_passes_flat_reads():
    source = ("x = add.take(a * q + mul.take(b * q + c))\n"
              "y = neg[x]\n"
              "z = inv[u[at, z]][:, None]\n"
              "mul[0, :] = 0\n"
              "w = exp[(log[:, None] + log[None, :]) % (q - 1)]\n"
              "v = field.mul(a, b)\n"
              "s = rows[at, pivots]\n")
    assert table_sites(source) == []


def test_detector_exempts_only_the_table_build():
    source = ("def _build_tables(self):\n"
              "    return mul[a, b]\n"
              "def other(self):\n"
              "    return add[a, b]\n")
    assert table_sites(source, "fields.py") == [(4, "add")]
    assert table_sites(source, "projspace.py") == [(2, "mul"), (4, "add")]


def test_package_reads_field_tables_flat():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: sites for path in files
             if (sites := table_sites(path.read_text(encoding="utf-8"),
                                      path.name))}
    assert found == {}
