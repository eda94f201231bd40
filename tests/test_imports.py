"""The package's import graph, read from the source with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wifimob"


def _imported_modules(path: Path):
    """The names of the package modules that ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "wifimob":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "wifimob" and len(parts) > 1:
                    yield parts[1]


def test_only_the_cli_and_the_package_root_import_the_generator():
    importers = {p.stem for p in SRC.glob("*.py") if "synthgen" in set(_imported_modules(p))}
    assert importers == {"__init__", "cli"}
