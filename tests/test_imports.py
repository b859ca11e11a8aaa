"""Every name a module of the package imports is used there, no module imports another's private names or
the tests, the package itself reads every public name, no module computes with arithmetic whose bits depend on
the CPU beyond the named exceptions, no holder copies an input past `owned` or checks a shape of its own, and only
the named tests start an interpreter (no linter needed: the stdlib `ast`)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qcoin").glob("*.py"))


def exported(tree: ast.Module) -> list[str]:
    """The names a module's `__all__` lists: the names a package re-exports."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets) for name in ast.literal_eval(node.value)]


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}.union(exported(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from .errors import InvalidParameter, StepCountTooLarge\nraise InvalidParameter('x')\n")
    assert unused_imports(tree) == ["line 1: StepCountTooLarge"]


def private_imports(tree: ast.Module) -> list[str]:
    """`from .module import _name` lines: a module reaching past another's public names."""
    return [f"line {node.lineno}: {node.module}.{a.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_no_private_name_of_another(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_private_import_is_found():
    tree = ast.parse("from . import __version__\nfrom .markov import PerturbedCoin, _plogp\n"
                     "from .quantum import (norm_sq,\n    _eigenvalues_2x2)\n")
    assert private_imports(tree) == ["line 2: markov._plogp", "line 3: quantum._eigenvalues_2x2"]


def payload_format_uses(tree: ast.Module) -> list[str]:
    """Each `to_json_dict` definition and each import or attribute use of `all_bitstrings`: the JSON and
    outcome-string format, which only `cli` writes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json_dict":
            found.append((node.lineno, "defines to_json_dict"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                a.name.split(".")[-1] == "all_bitstrings" for a in node.names):
            found.append((node.lineno, "imports all_bitstrings"))
        elif isinstance(node, ast.Attribute) and node.attr == "all_bitstrings":
            found.append((node.lineno, "uses encoding.all_bitstrings"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=[p.name for p in SOURCES if p.name != "cli.py"])
def test_only_cli_writes_the_payload_format(path):
    assert payload_format_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_planted_payload_format_is_found():
    tree = ast.parse("from .encoding import all_bitstrings, index_to_bits\n\n"
                     "class DensityMatrix2:\n    def to_json_dict(self):\n        return encoding.all_bitstrings(2)\n")
    assert payload_format_uses(tree) == ["line 1: imports all_bitstrings", "line 4: defines to_json_dict",
                                         "line 5: uses encoding.all_bitstrings"]


def suite_imports(tree: ast.Module) -> list[str]:
    """Absolute imports of the test suite (`tests`, or its `oracles` module): the package must not need it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.level:
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] in ("tests", "oracles")]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_nothing_of_the_tests(path):
    assert suite_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_planted_import_of_the_tests_is_found():
    tree = ast.parse("import numpy, tests.oracles\nfrom oracles import bits_to_index\nfrom . import markov\n")
    assert suite_imports(tree) == ["line 1: tests.oracles", "line 2: oracles"]


def unrun_public_names(names: list[str], trees: list[ast.Module]) -> list[str]:
    """The names in `names` that no tree reads as a name or an attribute: public API that only tests reach."""
    read = {node.id if isinstance(node, ast.Name) else node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [name for name in names if name not in read]


def test_every_public_name_is_read_by_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    public = exported(trees.pop("__init__.py"))
    assert public and unrun_public_names(public, list(trees.values())) == []


def test_a_planted_public_name_no_module_reads_is_found():
    tree = ast.parse("def oracle():\n    pass\n\ndef run():\n    return markov.future(TOL)\n")
    assert unrun_public_names(["TOL", "future", "oracle", "run"], [tree]) == ["oracle", "run"]


def enclosing_function(tree: ast.Module):
    """A map from a line to the name of the innermost function around it, or `<module>`."""
    functions = sorted((node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)),
                       key=lambda f: -f.lineno)  # innermost first
    return lambda line: next((f.name for f in functions if f.lineno <= line <= f.end_lineno), "<module>")


# numpy functions that run a BLAS kernel or a SIMD path chosen at run time, so their last bits depend on the CPU;
# with `np.linalg`, every numpy logarithm and the `@` operator.  The package writes its products out in elementwise
# arithmetic and numpy's own reductions, and takes exp and log from libm.
CPU_DEPENDENT = {"vdot", "vecdot", "dot", "inner", "matmul", "tensordot", "matrix_power", "exp", "expm1", "linalg"}
# The uses left, each with the ROADMAP item that removes it.
CPU_DEPENDENT_EXCEPTIONS = ["interference.py::dip_model: np.exp",  # item 5: exp from libm
                            "interference.py::visibility: np.vdot"]  # item 1: one real visibility route


def is_cpu_dependent(name: str) -> bool:
    return name in CPU_DEPENDENT or name.startswith("log") and not name.startswith("logical")


def cpu_dependent_arithmetic(tree: ast.Module, filename: str) -> list[str]:
    """`file::function: what` for each `np.` or `numpy.` function in `CPU_DEPENDENT`, each import of one, and
    each `@`, by line: the innermost function around it, or `<module>`."""
    where = enclosing_function(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("np", "numpy")
                and is_cpu_dependent(node.attr)):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [f"{node.module}.{a.name}" for a in node.names if node.module and not node.level])
            found += [(node.lineno, name) for name in names
                      if name.split(".")[0] == "numpy" and any(map(is_cpu_dependent, name.split(".")[1:]))]
    return [f"{filename}::{where(line)}: {what}" for line, what in sorted(found)]


def test_the_package_computes_the_same_bits_on_every_cpu():
    uses = {use for path in SOURCES for use in cpu_dependent_arithmetic(ast.parse(path.read_text(encoding="utf-8")),
                                                                        path.name)}
    assert sorted(uses) == CPU_DEPENDENT_EXCEPTIONS


def test_planted_cpu_dependent_arithmetic_is_found():
    tree = ast.parse("import math, numpy.linalg\nimport numpy as np\nfrom numpy import vecdot, sqrt\n\n"
                     "def power(k, v):\n    w = np.linalg.matrix_power(k, 3) @ v\n    w @= numpy.dot(w, v)\n"
                     "    return np.log1p(v), np.logaddexp(v, w)\n\n"
                     "def fine(a, b):\n    return np.logical_and(a, b), math.log2(a), np.sqrt((a * b).sum())\n")
    assert cpu_dependent_arithmetic(tree, "t.py") == [
        "t.py::<module>: numpy.linalg", "t.py::<module>: numpy.vecdot", "t.py::power: @", "t.py::power: np.linalg",
        "t.py::power: @", "t.py::power: np.dot", "t.py::power: np.log1p", "t.py::power: np.logaddexp"]


# What a holder may not call in `__post_init__`: each number or array it takes goes through `markov.owned`.
OWNED_BYPASSES = {"array", "asarray", "read_only"}


def copies_past_owned(tree: ast.Module) -> list[str]:
    """`line N: name` for each call of `np.array`, `np.asarray` or `read_only` inside a `__post_init__`."""
    found = []
    for init in ast.walk(tree):
        if isinstance(init, ast.FunctionDef) and init.name == "__post_init__":
            for node in ast.walk(init):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    np_call = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("np", "numpy")
                    if name == "read_only" or np_call and name in OWNED_BYPASSES:
                        found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_holders_take_their_inputs_only_through_owned(path):
    assert copies_past_owned(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_planted_copy_past_owned_is_found():
    tree = ast.parse("class Holder:\n    def __post_init__(self):\n        a = owned(self.a, 'a')\n"
                     "        b = read_only(np.array(self.b))\n        c = numpy.asarray(markov.read_only(self.c))\n"
                     "        d = np.sqrt(self.d)\n\n"
                     "def build(x):\n    return read_only(np.asarray(x))\n")
    assert sorted(copies_past_owned(tree)) == ["line 4: array", "line 4: read_only", "line 5: asarray",
                                               "line 5: read_only"]


# What a holder may not compare in `__post_init__`: `markov.owned` decides each field's shape and batch.
SHAPE_READS = {"shape", "ndim"}


def hand_written_shape_checks(tree: ast.Module) -> list[str]:
    """`line N` for each comparison inside a `__post_init__` that reads a shape: `x.shape`, `x.ndim`, `np.shape`,
    `np.ndim` or `getattr(x, "shape", ...)`."""
    found = []
    for init in ast.walk(tree):
        if isinstance(init, ast.FunctionDef) and init.name == "__post_init__":
            for node in ast.walk(init):
                if isinstance(node, ast.Compare) and any(
                        isinstance(n, ast.Attribute) and n.attr in SHAPE_READS
                        or isinstance(n, ast.Constant) and n.value in SHAPE_READS for n in ast.walk(node)):
                    found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_holders_leave_their_shapes_to_owned(path):
    assert hand_written_shape_checks(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_planted_shape_check_is_found():
    tree = ast.parse("class Holder:\n    def __post_init__(self):\n        a = owned(self.a, 'a', (), np.shape(b))\n"
                     "        if getattr(a, 'shape', ()) != b.shape or 0 in a.shape:\n            raise E()\n"
                     "        ok = np.ndim(a) == 1 and self.c.ndim > 0\n        n = len(a.shape)\n\n"
                     "def build(a):\n    return a.shape == (2,)\n")
    assert hand_written_shape_checks(tree) == ["line 4", "line 4", "line 6", "line 6"]


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
# The only code here that starts an interpreter, each once: a subprocess is the only way to see what a fresh
# import loads, to run `python -m qcoin` to its real exit, to run the pinned outputs under CPU-feature variables
# that numpy and OpenBLAS read only at import, and to run the README example as a user would.
INTERPRETER_STARTS = ["test_cli.py::fresh_modules", "test_cli.py::test_module_entry_point_smoke",
                      "test_cli.py::test_pinned_outputs_hold_on_a_pre_avx_cpu",
                      "test_readme.py::test_library_example_runs"]


def subprocess_uses(tree: ast.Module, filename: str) -> list[str]:
    """`file::function` of each call into `subprocess` and each import from it, by line: the innermost
    function around it, or `<module>`."""
    where = enclosing_function(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "subprocess" or isinstance(node, ast.Call)
                and getattr(getattr(node.func, "value", None), "id", None) == "subprocess"):
            found.append((node.lineno, f"{filename}::{where(node.lineno)}"))
    return [use for _, use in sorted(found)]


def test_only_the_named_tests_start_an_interpreter():
    uses = [use for path in TESTS
            for use in subprocess_uses(ast.parse(path.read_text(encoding="utf-8")), path.name)]
    assert sorted(uses) == INTERPRETER_STARTS


def test_a_planted_subprocess_call_is_found():
    tree = ast.parse("import subprocess\nfrom subprocess import run\n\ndef test_a():\n    def inner():\n"
                     "        subprocess.run(['x'])\n    return subprocess.check_output(['y'])\n")
    assert subprocess_uses(tree, "t.py") == ["t.py::<module>", "t.py::inner", "t.py::test_a"]


# The one step bound and the one start reader: the functions that alone raise `StepCountTooLarge` and read
# `start.index`, so no function bounds a step count or reads a start by hand.
ONE_PLACE = {"StepCountTooLarge": "require_steps", "start.index": "start_rows"}


def bounds_and_starts_outside_their_place(tree: ast.Module) -> list[str]:
    """`line N: what in function` for each `raise StepCountTooLarge` outside `require_steps` and each read of
    `start.index` outside `start_rows`."""
    where = enclosing_function(tree)
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = getattr(node.exc, "func", node.exc)  # `raise E(...)` or `raise E`
            if getattr(raised, "id", getattr(raised, "attr", None)) == "StepCountTooLarge":
                what = "StepCountTooLarge"
        elif isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", None) == "start":
            what = "start.index"
        if what and where(node.lineno) != ONE_PLACE[what]:
            found.append(f"line {node.lineno}: {what} in {where(node.lineno)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_step_bound_and_one_start_reader(path):
    assert bounds_and_starts_outside_their_place(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_planted_bound_and_start_read_are_found():
    tree = ast.parse("def require_steps(n):\n    raise StepCountTooLarge(n)\n\ndef start_rows(m, start):\n"
                     "    return m[start.index]\n\ndef sample(start, n):\n    if n > 12:\n"
                     "        raise errors.StepCountTooLarge('too many')\n    return start.index\n\n"
                     "class PhotonState:\n    def __post_init__(self):\n        raise StepCountTooLarge\n")
    assert bounds_and_starts_outside_their_place(tree) == ["line 9: StepCountTooLarge in sample",
                                                           "line 10: start.index in sample",
                                                           "line 14: StepCountTooLarge in __post_init__"]
