"""The README's "Library layout" table names only what the package has.

Each row names one module and, in backticks, what it holds.  A backticked
identifier that is call-shaped (``fill()``, ``slot(sys, x, y)``), dotted
(``coxeter.walk``, ``SuiteResult.as_dict()``) or contains ``_`` must
resolve: an undotted name to an attribute of the row's module or of one of
the classes it defines, a dotted one by attributes from a module of the
package or from a name one of them holds.  Plain words such as ``verify``
or ``bytes`` are prose, not names, and are not checked.
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = sorted(path.stem for path in (ROOT / "src" / "verma_ext").glob("*.py")
                 if path.stem != "__init__")


def layout_rows(text: str) -> list[tuple[str, str]]:
    """(module, contents) for each row of the "Library layout" table."""
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(verma_ext\.\w+)` \|(.*)\|$", section, re.M)


def checked_names(contents: str) -> list[str]:
    """The names a row's backticked identifiers must resolve, each without its call."""
    names = []
    for code in re.findall(r"`([^`]+)`", contents):
        shaped = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(\(.*\))?", code)
        if shaped and (shaped[2] or "." in shaped[1] or "_" in shaped[1]):
            names.append(shaped[1])
    return names


def _resolve(owner: object, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def unresolved(module_name: str, contents: str) -> list[str]:
    """The checked names of one row that name nothing in the package."""
    module = importlib.import_module(module_name)
    classes = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module_name]
    package = {name: importlib.import_module(f"verma_ext.{name}") for name in MODULES}
    missing = []
    for name in checked_names(contents):
        head, _, rest = name.partition(".")
        if rest:
            owners = [package[head]] if head in package else [
                getattr(other, head) for other in package.values() if hasattr(other, head)]
            found = any(_resolve(owner, rest) for owner in owners)
        else:
            found = any(hasattr(owner, name) for owner in (module, *classes))
        if not found:
            missing.append(f"{module_name}: {name}")
    return missing


def test_every_layout_name_resolves_in_the_package():
    rows = layout_rows(README.read_text(encoding="utf-8"))
    assert [module for module, _ in rows] == [
        "verma_ext.coxeter", "verma_ext.reflection", "verma_ext.rpoly", "verma_ext.vtable",
        "verma_ext.verify", "verma_ext.cli"]
    assert sum(len(checked_names(contents)) for _, contents in rows) > 50
    assert [hit for module, contents in rows for hit in unresolved(module, contents)] == []


def test_the_scan_flags_a_name_the_package_lacks():
    row = ("`RTable(sys)`: `r(y, x)`, `row_fill()`, `coxeter.walk`, `coxeter.no_such`, "
           "`drop_memos`, `SuiteResult.add`, `NoOracle.leq`, `RTable.gone()`, `verify`, `bytes`")
    assert checked_names(row) == ["RTable", "r", "row_fill", "coxeter.walk", "coxeter.no_such",
                                  "drop_memos", "SuiteResult.add", "NoOracle.leq", "RTable.gone"]
    assert unresolved("verma_ext.rpoly", row) == [
        "verma_ext.rpoly: coxeter.no_such", "verma_ext.rpoly: drop_memos",
        "verma_ext.rpoly: NoOracle.leq", "verma_ext.rpoly: RTable.gone"]
