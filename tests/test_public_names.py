import ast
import importlib
import sys
from pathlib import Path

import shapguard

SRC = Path(shapguard.__file__).parent


def test_every_public_function_and_class_is_used_by_the_program():
    """No public helper exists only because a test calls it: each public
    module-level function, class or assigned name in the package is read,
    as a name or an attribute, somewhere in the package's own code."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                continue
            defined += [(name, f"{path.stem}.{name}") for name in names
                        if not name.startswith("_")]
        for node in ast.walk(tree):
            # an assignment's own target is not a read of its name
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    assert [where for name, where in defined if name not in referenced] == []


def test_no_module_reads_another_modules_private_name():
    """A name with a leading underscore belongs to its module: no module of
    the package imports one from another module of the package or reads one
    as an attribute of a package module it imported. What one module offers
    another is a public, documented name."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules = {path.stem for path in SRC.glob("*.py")}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "shapguard"):
                for alias in node.names:
                    if node.module in (None, "shapguard") and alias.name in modules:
                        imported.add(alias.asname or alias.name)
                    elif private(alias.name):
                        reads.append(f"{path.stem}:{node.lineno}: {alias.name}")
        reads += [
            f"{path.stem}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported and private(node.attr)
        ]
    assert reads == []


def test_every_exception_class_is_caught_by_the_program():
    """An exception class earns its place only where the package catches it
    by name: each one the package defines is named in an except clause of
    the package (the CLI maps each to its exit code). Every other failure
    is a ValueError whose message says what went wrong."""
    defined, caught = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = shapguard if path.stem == "__init__" else importlib.import_module(
            f"shapguard.{path.stem}")
        defined += [
            f"{path.stem}.{top.name}" for top in tree.body
            if isinstance(top, ast.ClassDef)
            and issubclass(getattr(module, top.name), BaseException)
        ]
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught |= {node.id if isinstance(node, ast.Name) else node.attr
                           for node in ast.walk(handler.type)
                           if isinstance(node, (ast.Name, ast.Attribute))}
    assert defined
    assert [where for where in defined if where.split(".")[1] not in caught] == []


def test_config_errors_come_from_the_config_gate_alone():
    """ConfigError means exit code 1, a bad config caught before any stage
    runs: only resolve_config and the helpers it calls raise it. A stage
    that meets a bad argument raises a ValueError, which the stage runner
    makes a stage failure."""
    gate = {"resolve_config", "_leaf", "_merge", "_checked", "_schema_from_cfg"}
    raised = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef) or function.name in gate:
                continue
            raised += [
                f"{path.stem}.{function.name}: line {node.lineno}"
                for node in ast.walk(function)
                if isinstance(node, ast.Raise) and node.exc is not None
                and any(getattr(n, "id", getattr(n, "attr", None)) == "ConfigError"
                        for n in ast.walk(node.exc))
            ]
    assert raised == []


def test_every_import_is_the_standard_library_a_declared_dependency_or_the_project():
    """pyproject.toml declares numpy, and pytest for the tests: a module
    that imports anything else (say a package that happens to be installed
    where the tests last ran) fails on a clean install. Each import's first
    name must be a standard-library module, numpy, pytest, shapguard or a
    module beside the importing file."""
    root = Path(__file__).resolve().parents[1]
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "shapguard"}
    outside = []
    for path in sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")):
        siblings = {p.stem for p in path.parent.glob("*.py")}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.relative_to(root)}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed | siblings]
    assert outside == []
