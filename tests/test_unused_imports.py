"""Every name a ``src/repro`` module imports is used in that module.

Package ``__init__`` modules are skipped: their imports are the public
re-exports.  A name counts as used when it is read anywhere in the module,
appears inside a quoted annotation (``Optional["TraceWriter"]``), or is
listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def imported_names(tree):
    """(line, bound name) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def used_names(tree):
    """Every name the module reads, quotes in an annotation or exports."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    for annotation in annotations:
        for item in ast.walk(annotation):
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                quoted = ast.parse(item.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        unused.extend(
            f"{path.relative_to(SRC)}:{line}: {name}"
            for line, name in imported_names(tree)
            if name not in used
        )
    assert not unused, "imported but never used:\n" + "\n".join(unused)
