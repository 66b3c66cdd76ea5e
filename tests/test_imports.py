"""Every imported name is used by the module that imports it.

A deletion that leaves an import behind shows up here as `file:line`.
The package root's imports are its re-exports, so `__init__.py` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/energyfuse/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(path: Path) -> list:
    """`file:line name` for each name `path` imports and never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    where = path.relative_to(ROOT)
    return [f"{where}:{line} {name}" for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        hit for path in MODULES if path.name != "__init__.py"
        for hit in unused_imports(path)
    ]
    assert not unused, unused
