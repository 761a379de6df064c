"""No code in ``src/repro`` that only tests reach.

Every top-level function and class, and every public method of a
top-level class, must be referenced somewhere in ``src``,
``benchmarks`` or ``examples`` outside its own definition, as a
``Name`` or as an ``Attribute``.  A reference from ``tests/`` does not
count, and neither does an ``__all__`` entry: code that no study,
server, campaign, benchmark or example runs is dead even while a test
calls it.  The scan is by name, so any use of a name keeps every
definition that shares it, except a bare name that an enclosing
function or comprehension binds as a local: a parameter, loop
variable or nested def named ``fetch`` is not a use of ``fetch()``.

Every defaulted parameter of those functions and methods must also be
set by some call in the same trees, or its default is the only value
the program runs and belongs in the body as a constant.  A parameter
counts as set when a call outside the def passes it by keyword, passes
enough positional arguments to reach it, or splats ``*``/``**`` into
it, where the callee is matched by name (``__init__`` by its class
name, or ``cls`` inside the class).  A def referenced as a value — a
callback, an argument to a benchmark harness — keeps every parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCANNED = ("src", "benchmarks", "examples")

#: ``"module:qualname"`` (a definition) or ``"module:qualname(param)"``
#: (a defaulted parameter) -> the one-line reason it stays without a
#: caller, or a setter, in the scanned trees.
ALLOWED: dict[str, str] = {
    "obs/prom.py:validate_exposition": (
        "called from outside Python: CI serve-smoke validates GET /metrics with it"
    ),
    "netsim/checksum.py:verify_checksum": (
        "test oracle: tests check encoded headers' checksums against it"
    ),
    "core/analysis/regional.py:analyze_regional": (
        "called from outside the scan: the perf ledger wraps repro.study's by name"
    ),
    "cli.py:main(argv)": (
        "entry-point seam: the console script passes nothing, tests pass argv"
    ),
    "scenario/internet.py:SyntheticInternet.__init__(mode)": (
        "reference: event mode is what the fast/event parity tests compare against"
    ),
    "runner/__init__.py:run_study_parallel(retry)": (
        "recovery-path seam: tests shorten the backoff to drive retries"
    ),
    "runner/__init__.py:run_study_parallel(shard_timeout)": (
        "recovery-path seam: tests arm the hang timeout that forces gang recovery"
    ),
    "runner/__init__.py:run_study_parallel(faults)": (
        "recovery-path seam: tests inject worker crashes, hangs and errors per shard"
    ),
    "netsim/udp.py:UDPDatagram.decode(src_addr)": (
        "checksum verification: tests check the encoder against the IP addresses"
    ),
    "netsim/udp.py:UDPDatagram.decode(dst_addr)": (
        "checksum verification: tests check the encoder against the IP addresses"
    ),
    "tcp/segment.py:TCPSegment.decode(src_addr)": (
        "checksum verification: tests check the encoder against the IP addresses"
    ),
    "tcp/segment.py:TCPSegment.decode(dst_addr)": (
        "checksum verification: tests check the encoder against the IP addresses"
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope) -> set[str]:
    """Names a function or comprehension binds in its own scope:
    parameters, comprehension targets, and every assignment, ``for``,
    ``with``, ``except`` and nested ``def``/``class`` target in its
    body, less what it declares ``global`` or ``nonlocal``.  An import
    binds a local too, but its name is the definition's own, so uses
    after it still count."""
    if isinstance(scope, _COMPREHENSIONS):
        return {
            node.id
            for generator in scope.generators
            for node in ast.walk(generator.target)
            if isinstance(node, ast.Name)
        }
    args = scope.args
    names = {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
        if arg is not None
    }
    declared = set()
    body = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while body:
        node = body.pop()
        if isinstance(node, (*_FUNCTIONS[:2], ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Lambda, *_COMPREHENSIONS)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        body.extend(ast.iter_child_nodes(node))
    return names - declared


def _references(path: Path):
    """``(name, line)`` of every Attribute, and of every Name that no
    enclosing function or comprehension binds as a local."""

    def visit(node, local: frozenset):
        if isinstance(node, (*_FUNCTIONS, *_COMPREHENSIONS)):
            local = local | _local_names(node)
        if isinstance(node, ast.Name) and node.id not in local:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, local)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())


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
    known = _all_definitions().keys() | _all_parameters().keys()
    stale = sorted(ALLOWED.keys() - known)
    assert stale == [], f"allowlist entries naming no definition or parameter: {stale}"


def _parameters(path: Path):
    """``(qualname, callees, self offset, first, last, defaulted)`` per def.

    ``callees`` are the names a call reaches the def through, and
    ``defaulted`` maps each defaulted parameter to its position among
    the positional parameters (``None`` for keyword-only ones).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield _signature(node, node.name, {node.name}, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, funcs):
                    continue
                decorators = {getattr(d, "id", None) for d in item.decorator_list}
                offset = 0 if "staticmethod" in decorators else 1
                callees = {node.name} if item.name == "__init__" else {item.name}
                yield _signature(item, f"{node.name}.{item.name}", callees, offset)


def _signature(node, qualname, callees, offset):
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    defaulted = {
        arg.arg: index
        for index, arg in enumerate(positional)
        if index >= len(positional) - len(args.defaults)
    }
    defaulted.update(
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return qualname, callees, offset, node.lineno, node.end_lineno, defaulted


def _calls(path: Path):
    """``(callee, line, keywords, positional count, splat)`` per call,
    and ``(name, line, is attribute)`` per name loaded outside a call's
    function position."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]

    def enclosing(line):
        return next((c for c in classes if c.lineno <= line <= c.end_lineno), None)

    called = set()
    calls, values = [], []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called.add(id(func))
        cls = enclosing(node.lineno)
        if isinstance(func, ast.Name):
            callees = [cls.name if func.id == "cls" and cls else func.id]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
        ):
            callees = [getattr(base, "id", None) for base in cls.bases] if cls else []
        elif isinstance(func, ast.Attribute):
            callees = [func.attr]
        else:
            continue
        splat = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            keyword.arg is None for keyword in node.keywords
        )
        keywords = {keyword.arg for keyword in node.keywords}
        for callee in callees:
            calls.append((callee, node.lineno, keywords, len(node.args), splat))
    for node in ast.walk(tree):
        if id(node) in called or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            values.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            values.append((node.attr, node.lineno, True))
    return calls, values


def _all_parameters() -> dict[str, tuple]:
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for qualname, callees, offset, first, last, defaulted in _parameters(path):
            for name, index in defaulted.items():
                found[f"{module}:{qualname}({name})"] = (
                    path, qualname, callees, offset, first, last, name, index,
                )
    return found


def test_every_defaulted_parameter_is_set():
    calls: dict[str, list] = {}
    values: dict[str, list] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            found_calls, found_values = _calls(path)
            for callee, line, keywords, count, splat in found_calls:
                calls.setdefault(callee, []).append((path, line, keywords, count, splat))
            for name, line, attribute in found_values:
                values.setdefault(name, []).append((path, line, attribute))

    def outside(where, line, path, first, last):
        return where != path or not first <= line <= last

    unset = []
    for key, entry in _all_parameters().items():
        path, qualname, callees, offset, first, last, name, index = entry
        if key in ALLOWED:
            continue
        method, _, own = qualname.rpartition(".")
        if any(
            outside(where, line, path, first, last) and (attribute or not method)
            for where, line, attribute in values.get(own, ())
        ):
            continue
        if not any(
            splat or name in keywords or (index is not None and count + offset > index)
            for callee in callees
            for where, line, keywords, count, splat in calls.get(callee, ())
            if outside(where, line, path, first, last)
        ):
            unset.append(key)
    assert unset == [], (
        "defaulted parameters no call sets (fold the default into the "
        "body, or allowlist one with a reason):\n  " + "\n  ".join(unset)
    )
