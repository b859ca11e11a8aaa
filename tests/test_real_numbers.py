"""The package computes in real float64: complex numbers appear only in the visibility's dot (stdlib `ast`).

`interference._amplitudes` makes the one complex copy of a state, and `visibility` takes np.vdot over two
of them, because that summation order fixes the last bits of the pinned hom-dip and compare-sweep payloads.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qcoin").glob("*.py"))
EXEMPT = {"interference.py": {"_amplitudes", "visibility"}}  # top-level functions allowed complex numbers
COMPLEX_NAMES = {"complex", "complex64", "complex128", "complex_", "csingle", "cdouble", "clongdouble"}
COMPLEX_ATTRIBUTES = COMPLEX_NAMES | {"conj", "conjugate", "imag", "real"}


def complex_uses(tree: ast.Module, exempt=frozenset()) -> list[str]:
    """Each complex type name, complex attribute and complex literal outside the `exempt` top-level functions."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in exempt:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in COMPLEX_NAMES:
                found.append(f"line {node.lineno}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in COMPLEX_ATTRIBUTES:
                found.append(f"line {node.lineno}: .{node.attr}")
            elif isinstance(node, ast.Constant) and (isinstance(node.value, complex) or node.value in COMPLEX_NAMES):
                found.append(f"line {node.lineno}: {node.value!r}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_computes_in_real_numbers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert complex_uses(tree, EXEMPT.get(path.name, frozenset())) == []


def test_the_exempt_functions_exist():
    for name, functions in EXEMPT.items():
        tree = ast.parse((SOURCES[0].parent / name).read_text(encoding="utf-8"))
        assert functions <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_a_planted_complex_use_is_found():
    source = ("def _amplitudes(state):\n    return state.conj()\n\n"
              "def mixture(pair):\n    return pair * pair.conj()\n\n"
              "ONE = 1j\nKIND = 'complex128'\nCAST = complex(1.0)\n")
    found = complex_uses(ast.parse(source), {"_amplitudes"})
    assert found == ["line 5: .conj", "line 7: 1j", "line 8: 'complex128'", "line 9: complex"]
