"""The README's library example runs against the installed public API, whose names all resolve."""

import os
import re
import subprocess
import sys
from pathlib import Path

import qcoin

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
