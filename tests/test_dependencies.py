"""The package's third-party imports are exactly its declared dependencies."""

import ast
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNTIME_DEPENDENCIES = {"numpy", "scipy"}


def _third_party_imports() -> set:
    """Dotted names of the non-stdlib modules imported by ``src/kwcflow/*.py``."""
    names = set()
    for path in (SRC / "kwcflow").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return {n for n in names
            if n.split(".")[0] not in set(sys.stdlib_module_names) | {"kwcflow"}}


def _declared_dependencies() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in deps}


def test_third_party_imports_match_declared_dependencies():
    imported = {n.split(".")[0] for n in _third_party_imports()}
    assert imported == _declared_dependencies()


def test_cli_and_config_parsing_load_nothing_beyond_numpy_and_scipy():
    # Import the numpy and scipy modules the package uses first; loading the
    # CLI and parsing a config (which imports the experiments) must then add
    # no third-party package.
    preload = sorted(n for n in _third_party_imports()
                     if n.split(".")[0] in RUNTIME_DEPENDENCIES)
    code = ("import importlib, json, sys\n"
            f"for name in {preload!r}:\n"
            "    importlib.import_module(name)\n"
            "before = {m.split('.')[0] for m in sys.modules}\n"
            "import kwcflow.cli\n"
            "from kwcflow.config import parse_config_dict\n"
            "parse_config_dict({})\n"
            "added = {m.split('.')[0] for m in sys.modules} - before\n"
            "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["kwcflow"]
