"""Every name ``dfuse`` exports is used by the program, its demos or its benchmark.

A public name that only tests call is API nobody needs; this keeps it from
creeping back. A name's own ``def``/``class`` line and import statements do
not count as uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "dfuse" / "__init__.py"


def exported_names():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_names():
    """Identifiers read in src, demos and perfbench outside ``__init__``, plus
    string constants: the benchmark's tracer names its targets by string."""
    used = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path == INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_exported_name_is_used_outside_the_tests():
    names, used = exported_names(), used_names()
    assert "train_student" in names  # the parse found the exports
    assert [name for name in names if name not in used] == []
