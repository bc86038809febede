"""Import hygiene, in place of a linter: every name that a module of the
package or of the tests imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "quasihopf").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _annotation_names(tree: ast.AST) -> set[str]:
    """The names read in the string annotations of ``tree``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
    return {sub.id for annotation in annotations if annotation is not None
            for text in ast.walk(annotation)
            if isinstance(text, ast.Constant) and isinstance(text.value, str)
            for sub in ast.walk(ast.parse(text.value, mode="eval")) if isinstance(sub, ast.Name)}


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads, by line; an import
    marked ``# noqa: F401`` on any of its lines is exempt."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_every_imported_name_is_used():
    """No module of ``src/quasihopf`` or ``tests`` imports a name it does
    not use; the re-exports of ``__init__.py`` are exempt."""
    assert len(FILES) > 20
    unused = [found for path in FILES if path.name != "__init__.py"
              for found in _unused_imports(path)]
    assert unused == []
