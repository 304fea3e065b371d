"""Every import in ``src/`` and ``tests/`` is read somewhere in its file, by a stdlib AST scan."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """``path:line: name`` for each name an import binds and the file never loads.

    An import anywhere in the file counts, at module level or inside a
    function; ``import a.b`` binds ``a``.  ``from __future__`` imports bind
    nothing.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound: dict[str, int] = {}
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    rel = path.relative_to(root)
    return [f"{rel}:{line}: {name}" for name, line in bound.items() if name not in loaded]


def test_no_file_imports_a_name_it_never_uses():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(files) > 10
    assert [hit for path in files for hit in unused_imports(path)] == []


def test_the_scan_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nimport os.path\nfrom re import sub as s\nprint(os.sep)\n",
                     encoding="utf-8")
    assert unused_imports(probe, tmp_path) == ["probe.py:1: json", "probe.py:3: s"]
