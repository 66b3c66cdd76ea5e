"""Every imported name is used by the module that imports it, and every
top-level function and class of the package is reached from the package
or the benchmark, not only from tests.

A deletion that leaves an import behind, or a name that only tests still
call, shows up here as `file:line name`. The package root's imports are
its re-exports, so `__init__.py` is exempt from the first check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/energyfuse/*.py"))
MODULES = PACKAGE + sorted(ROOT.glob("tests/*.py"))


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


def references(path: Path) -> set:
    """Every name `path` refers to: a name, an attribute, an imported name,
    or a part of a dotted "energyfuse.…" string (bench/tracing.py binds its
    layers by such strings). A def or class statement names, not refers."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("energyfuse."):
                refs.update(node.value.split("."))
    return refs


def unreached_definitions(package: list, readers: list) -> list:
    """`file:line name` for each top-level function or class of `package`
    that no module of `readers` refers to."""
    reached = set().union(*map(references, readers))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in reached
    ]


def test_every_package_definition_is_reached_outside_tests():
    readers = PACKAGE + sorted(ROOT.glob("bench/*.py"))
    unreached = unreached_definitions(PACKAGE, readers)
    assert not unreached, unreached


def package_imports(path: Path) -> list:
    """(line, module) for each package module `path` imports, whether it is
    named `.numeric`, `energyfuse.numeric` or `from . import numeric`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "energyfuse" if node.level else None
            base = ".".join(filter(None, [package, node.module]))
            if base == "energyfuse":
                dotted = [f"{base}.{alias.name}" for alias in node.names]
            else:
                dotted = [base]
        else:
            continue
        found += [
            (node.lineno, name.split(".")[1]) for name in dotted if name.startswith("energyfuse.")
        ]
    return found


def test_config_imports_only_numeric_from_the_package():
    """RunConfig checks every key before any model module is needed, so
    config imports from the package only numeric. Read from the source:
    importing energyfuse.config runs the package root, which loads them all."""
    path = ROOT / "src/energyfuse/config.py"
    others = [
        f"{path.relative_to(ROOT)}:{line} {module}"
        for line, module in package_imports(path) if module != "numeric"
    ]
    assert not others, others
