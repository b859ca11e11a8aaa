"""The package computes in real float64: complex numbers appear only in the visibility's dot (stdlib `ast`),
and every holder refuses what is not a real number or array.

`interference._amplitudes` makes the one complex copy of a state, and `visibility` takes np.vdot over two
of them, because that summation order fixes the last bits of the pinned hom-dip and compare-sweep payloads.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qcoin.circuit import PhotonState, run_circuit
from qcoin.errors import InvalidParameter
from qcoin.markov import CausalState, OutcomeDistribution, PerturbedCoin, StationaryWeights, future_distribution
from qcoin.quantum import DensityMatrix2

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


def _holders():
    coin = PerturbedCoin(0.4, 0.7)
    return [coin, StationaryWeights(0.5, 0.5), OutcomeDistribution(1, [0.5, 0.5]),
            DensityMatrix2(np.eye(2) / 2), run_circuit(coin, CausalState.S0, 1)]


# (holder, field, the name its refusal gives): a state's amplitudes and the density matrix go by what they hold
FIELDS = [(PerturbedCoin, "stay_heads", "stay_heads"), (PerturbedCoin, "stay_tails", "stay_tails"),
          (StationaryWeights, "s0", "s0"), (StationaryWeights, "s1", "s1"),
          (OutcomeDistribution, "steps", "steps"), (OutcomeDistribution, "bins", "bins"),
          (DensityMatrix2, "matrix", "density matrix"),
          (PhotonState, "steps_applied", "steps_applied"), (PhotonState, "amplitudes", "photon state")]
# each takes the valid value, whose shape the complex array keeps
NOT_REAL = {"complex array": lambda value: np.full(np.shape(value), 0.5 + 1e-3j), "complex": lambda value: 0.4 + 0.1j,
            "str": lambda value: "0.4", "None": lambda value: None, "ragged": lambda value: [[0.5], [0.5, 0.5]]}


@pytest.mark.parametrize("kind", NOT_REAL)
@pytest.mark.parametrize("holder, field, name", FIELDS, ids=[f"{h.__name__}.{f}" for h, f, _ in FIELDS])
def test_every_holder_field_refuses_what_is_not_real(holder, field, name, kind):
    valid = next(h for h in _holders() if type(h) is holder)
    with pytest.raises(InvalidParameter, match=name):
        replace(valid, **{field: NOT_REAL[kind](getattr(valid, field))})


@pytest.mark.parametrize("holder, fields", [
    (PerturbedCoin, ("stay_heads", "stay_tails")), (StationaryWeights, ("s0", "s1")),
], ids=["PerturbedCoin", "StationaryWeights"])
def test_a_list_is_held_with_the_bits_of_the_array(holder, fields):
    lists = [0.1, 0.35, 0.7], [0.9, 0.65, 0.3]
    from_lists, from_arrays = holder(*lists), holder(*map(np.array, lists))
    for field in fields:
        held = getattr(from_lists, field)
        assert held.tobytes() == getattr(from_arrays, field).tobytes() and not held.flags.writeable
        assert type(getattr(holder(1, 0), field)) is float
    if holder is PerturbedCoin:
        starts = np.array([0, 1, 1])
        assert (future_distribution(from_lists, starts, 3).bins.tobytes()
                == future_distribution(from_arrays, starts, 3).bins.tobytes())
