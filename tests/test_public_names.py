import ast
from pathlib import Path

import shapguard

SRC = Path(shapguard.__file__).parent


def test_every_public_function_and_class_is_used_by_the_program():
    """No public helper exists only because a test calls it: each public
    module-level function or class in the package is referenced, as a name
    or an attribute, somewhere in the package's own code."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (top.name, f"{path.stem}.{top.name}") for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    assert [where for name, where in defined if name not in referenced] == []
