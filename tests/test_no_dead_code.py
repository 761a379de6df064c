"""No zero-caller code in ``src/repro``.

Every top-level function and class, and every public method of a
top-level class, must be referenced somewhere in ``src``, ``tests``,
``benchmarks`` or ``examples`` outside its own definition — as a
``Name``, as an ``Attribute``, or by appearing in an ``__all__``.
The scan is by name, so any use of a name keeps every definition that
shares it; what it catches is code nothing mentions at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "examples")

#: Definitions that are called by name from outside Python's reach.
#: ``"module:qualname"`` -> why it stays.
ALLOWED: dict[str, str] = {}


def _definitions(path: Path):
    """``(name, qualname, first line, last line)`` of every checked def."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    qualname = f"{node.name}.{item.name}"
                    yield item.name, qualname, item.lineno, item.end_lineno


def _references(path: Path):
    """``(name, line)`` of every Name, Attribute and ``__all__`` entry."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    yield element.value, element.lineno


def test_every_definition_has_a_reference():
    references: dict[str, list[tuple[Path, int]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _references(path):
                references.setdefault(name, []).append((path, line))
    unreferenced = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for name, qualname, first, last in _definitions(path):
            if f"{module}:{qualname}" in ALLOWED:
                continue
            if not any(
                where != path or not first <= line <= last
                for where, line in references.get(name, ())
            ):
                unreferenced.append(f"{module}:{qualname}")
    assert unreferenced == [], (
        "definitions nothing references (delete them, or allowlist one "
        "with a reason):\n  " + "\n  ".join(unreferenced)
    )

