"""No float can reach a verdict: the package source holds no float
literal, no float() call and no float dtype.  Thresholds are exact
Fractions.  True division is not flagged: the package divides Fractions
with it, and syntax alone cannot tell those from ints."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "blockingsets"

# numpy names of floating and complex types, as attributes (np.float64)
_FLOAT_ATTR = re.compile(
    r"^(float(16|32|64|96|128|_)?|half|single|double|longdouble|floating"
    r"|complex(64|128|256|_|floating)?|csingle|cdouble|clongdouble)$")
# the same as dtype strings, including the one-letter type codes
_FLOAT_CODE = re.compile(
    r"^[<>=|]?(f\d*|d|e|g|c\d*|float\d*|complex\d*|half|single|double"
    r"|longdouble)$")


def float_sites(source: str) -> list:
    """(line, what) for every float literal, float() call or float dtype
    in the source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (float, complex)):
            out.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            out.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Attribute) and _FLOAT_ATTR.match(node.attr):
            out.append((node.lineno, f"attribute .{node.attr}"))
        elif isinstance(node, ast.Call):
            args = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in ("astype", "dtype") and node.args:
                args.append(node.args[0])
            for arg in args:
                if isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, str) \
                        and _FLOAT_CODE.match(arg.value):
                    out.append((node.lineno, f"dtype {arg.value!r}"))
    return out


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "y = float(n)",
    "a = np.zeros(3, dtype=float)",
    "a = np.zeros(3, dtype=np.float64)",
    "a = np.ones(3, np.float32)",
    "a = b.astype('f8')",
    "a = np.zeros(3, dtype='float64')",
    "a = np.dtype('d')",
    "a = numpy.double(3)",
])
def test_detector_flags_floats(source):
    assert float_sites(source)


def test_detector_passes_exact_code():
    source = ("from fractions import Fraction\n"
              "b = Fraction(3) / 2 + 7 // 2\n"
              "a = np.zeros(3, dtype=np.int64).astype(np.uint64)\n"
              "s = 'float' + 'dtype'\n")
    assert float_sites(source) == []


def test_package_source_has_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: sites for path in files
             if (sites := float_sites(path.read_text(encoding="utf-8")))}
    assert found == {}
