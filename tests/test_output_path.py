"""The CLI has one output path (stdlib `ast`): each `cmd_*` takes only the validated record and returns what
it made, and `emit` alone writes it.  `emit` calls the writers as module globals, where tracing can rebind them."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "qcoin" / "cli.py"
WRITERS = {"write_csv", "write_json", "line_plot", "print"}


def output_breaches(tree: ast.Module) -> list[str]:
    """Each use of a writer outside `emit`, and each `cmd_*` that takes other than one parameter."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name.startswith("cmd_"):
            arguments = top.args
            count = len(arguments.posonlyargs + arguments.args + arguments.kwonlyargs)
            count += (arguments.vararg is not None) + (arguments.kwarg is not None)
            if count != 1:
                found.append(f"line {top.lineno}: {top.name} takes {count} parameters")
        if isinstance(top, ast.FunctionDef) and top.name == "emit":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in WRITERS:
                found.append(f"line {node.lineno}: {node.id}")
    return found


def test_only_emit_writes_and_each_command_takes_the_record():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    assert output_breaches(tree) == []
    emit = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "emit")
    called = {node.func.id for node in ast.walk(emit) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert WRITERS <= called


def test_a_planted_write_is_found():
    source = ("def emit(output):\n    print(output)\n\n"
              "def cmd_futures(rec):\n    write_json(OUT, rec, DIGEST)\n    return rec\n\n"
              "def cmd_counts(rec, digest, out_dir):\n    return rec\n")
    assert output_breaches(ast.parse(source)) == ["line 5: write_json", "line 8: cmd_counts takes 3 parameters"]
