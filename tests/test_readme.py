"""The README's library example runs against the installed public API, whose names all resolve, its
holder list names the package's holders, and its config table and usage block match the CLI."""

import ast
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import qcoin
from qcoin.cli import COMMANDS, build_parser, command_record, load_preset

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", library_example()],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1.0"


def test_every_public_name_resolves_once():
    assert len(set(qcoin.__all__)) == len(qcoin.__all__)
    missing = [name for name in qcoin.__all__ if not hasattr(qcoin, name)]
    assert missing == []


def package_holders() -> set[str]:
    """Every dataclass of the package whose `__post_init__` calls `owned`."""
    holders = set()
    for path in (ROOT / "src" / "qcoin").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(ast.unparse(d).startswith("dataclass")
                                                      for d in node.decorator_list):
                inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
                calls = [c.func for init in inits for c in ast.walk(init) if isinstance(c, ast.Call)]
                if any(getattr(func, "id", getattr(func, "attr", None)) == "owned" for func in calls):
                    holders.add(node.name)
    return holders


def test_the_holder_list_names_the_packages_holders():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Every holder \(([^)]*)\)", readme).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == package_holders()


def test_config_table_lists_every_key_of_each_record():
    # the validated record has every schema field, defaults filled in
    lines = (ROOT / "README.md").read_text(encoding="utf-8").split("| command | key |", 1)[1].splitlines()[2:]
    listed, command = {}, None
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines):
        cells = [cell.strip() for cell in line.split("|")[1:3]]
        command = cells[0].strip("`") or command
        listed.setdefault(command, set()).update(key.strip(" `") for key in cells[1].split(","))
    assert listed == {name: set(command_record(load_preset(c.preset), name)) for name, c in COMMANDS.items()}


def test_usage_block_flags_are_options_of_the_commands_named():
    usage = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    for line in usage.splitlines():
        names, options = re.fullmatch(r"qcoin (\S+) (.*)", line).groups()
        commands = list(COMMANDS) if names == "<command>" else names.split("|")
        for flag in re.findall(r"\[(--[\w-]+)", options):
            for name in commands:
                build_parser().parse_args([name, flag, "1"])  # an unknown option raises ConfigError
