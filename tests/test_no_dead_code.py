"""No code in ``src/repro`` that only tests reach.

Every top-level function and class, and every public method of a
top-level class, must be referenced somewhere in ``src``,
``benchmarks`` or ``examples`` outside its own definition, as a
``Name`` or as an ``Attribute``.  A reference from ``tests/`` does not
count, and neither does an ``__all__`` entry: code that no study,
server, campaign, benchmark or example runs is dead even while a test
calls it.  The scan is by name, so any use of a name keeps every
definition that shares it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCANNED = ("src", "benchmarks", "examples")

#: ``"module:qualname"`` -> the one-line reason it stays without a
#: caller in the scanned trees.
ALLOWED: dict[str, str] = {
    "obs/prom.py:validate_exposition": (
        "called from outside Python: CI serve-smoke validates GET /metrics with it"
    ),
    "netsim/checksum.py:verify_checksum": (
        "test oracle: tests check encoded headers' checksums against it"
    ),
    "netsim/host.py:Host.add_tap": (
        "the tests' wire seam: they read TTL, payload length and TCP flags there"
    ),
    "core/analysis/regional.py:analyze_regional": (
        "called from outside the scan: the perf ledger wraps repro.study's by name"
    ),
}


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
    """``(name, line)`` of every Name and Attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _all_definitions() -> dict[str, tuple[Path, str, int, int]]:
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for name, qualname, first, last in _definitions(path):
            found[f"{module}:{qualname}"] = (path, name, first, last)
    return found


def test_every_definition_has_a_reference():
    references: dict[str, list[tuple[Path, int]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _references(path):
                references.setdefault(name, []).append((path, line))
    unreferenced = [
        key
        for key, (path, name, first, last) in _all_definitions().items()
        if key not in ALLOWED
        and not any(
            where != path or not first <= line <= last
            for where, line in references.get(name, ())
        )
    ]
    assert unreferenced == [], (
        "definitions only tests reach (delete them, or allowlist one "
        "with a reason):\n  " + "\n  ".join(unreferenced)
    )


def test_allowlist_entries_have_reasons():
    blank = [key for key, reason in ALLOWED.items() if not reason.strip()]
    assert blank == [], f"allowlist entries without a reason: {blank}"


def test_allowlist_entries_name_existing_definitions():
    stale = sorted(ALLOWED.keys() - _all_definitions().keys())
    assert stale == [], f"allowlist entries naming no definition: {stale}"
