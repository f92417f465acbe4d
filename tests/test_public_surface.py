"""Every name in a module's __all__, and every method, is reached from the command line or a demo.

`isoladder.__main__` (and the `isoladder` script, cli.main) runs every
command, the acceptance report included; the demos are the other entry
points.  A definition is reached when an identifier it is bound to is read,
as a bare name or an attribute, in code that is itself reached.  A class
body counts as read with its class, except its non-dunder methods: each of
those is a definition of its own name, reached only when that name is read.
Matching is by identifier across the package, so a same-named read elsewhere
counts too, but not an attribute read off a numpy or standard-library module
(np.diff does not reach a method named diff); type annotations do not count,
since nothing reads them at run time.

Private names that one module reads from another are pinned in a list that
may only shrink, since `__all__` does not show whether they are reached.
The benchmark under perfbench/ is an entry point this package does not see:
every isoladder attribute its worker and tracer read must still resolve.
Exports that only a demo reaches, and neither the command line nor the
benchmark, check nothing in the battery; they are pinned in a second list
that may only shrink.  The package's sources stay within ROADMAP's line gate.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isoladder"
ENTRY_POINTS = [PACKAGE / "__main__.py", *sorted((ROOT / "demos").glob("*.py"))]
# reached from no entry point yet; ROADMAP item 1A makes it a battery part
EXEMPT = {"isospectral.theta_curvature_table"}
# private names one package module or demo reads from another, today's read: the report's context,
# which the benchmark's tracer also reads.  The list may only shrink.
PRIVATE_READS = {"cli -> report._Context"}
BENCHMARK_READERS = [ROOT / "perfbench" / "worker.py", ROOT / "perfbench" / "tracing.py"]
# exports reached from a demo but not from the command line or the benchmark, today's set; each is to
# earn a battery part or go (ROADMAP item 8).  The list may only shrink.
DEMO_ONLY = {"coherent.bargmann_transform", "coherent.normalization_h", "fock.annihilation_matrix",
             "isospectral.unitarity_defect", "ladder.shift_matrix"}


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    """The class's non-dunder methods; each is reached only when its name is read."""
    return [s for s in cls.body if isinstance(s, ast.FunctionDef) and not (s.name.startswith("__")
                                                                            and s.name.endswith("__"))]


def _foreign_modules() -> set[str]:
    """The names `import` binds to numpy and standard-library modules in the package and the entry points."""
    paths = [*PACKAGE.glob("*.py"), *ENTRY_POINTS]
    return {alias.asname or alias.name.split(".")[0] for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Import)
            for alias in node.names if not alias.name.startswith("isoladder")}


FOREIGN_MODULES = _foreign_modules()


def _reads(node: ast.AST) -> set[str]:
    """Identifiers the node reads: names and attribute names, outside annotations and non-dunder methods.

    An attribute chain off a numpy or standard-library module (np.diff, np.linalg.norm) reads nothing of
    the package, so a same-named method does not count as reached by it.
    """
    if isinstance(node, ast.Name):
        return {node.id}
    root = node
    while isinstance(root, ast.Attribute):
        root = root.value
    if root is not node and isinstance(root, ast.Name) and root.id in FOREIGN_MODULES:
        return set()
    names = {node.attr} if isinstance(node, ast.Attribute) else set()
    methods = _methods(node) if isinstance(node, ast.ClassDef) else []
    for field, child in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for item in child if isinstance(child, list) else [child]:
            if isinstance(item, ast.AST) and item not in methods:
                names |= _reads(item)
    return names


def _bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _classes():
    """(module name, class definition) for every top-level class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                yield path.stem, stmt


def _surface():
    """({module.name} for every __all__ entry, {identifier: [top-level definitions and methods bound to it]})."""
    exports, definitions = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _bound_names(stmt):
                if name == "__all__":
                    exports |= {f"{path.stem}.{elt.value}" for elt in stmt.value.elts}
                else:
                    definitions.setdefault(name, []).append(stmt)
    for _, cls in _classes():
        for method in _methods(cls):
            definitions.setdefault(method.name, []).append(method)
    return exports, definitions


def _reached(definitions, entry_points=ENTRY_POINTS) -> set[str]:
    """Identifiers read by the entry points or, transitively, by the definitions they reach."""
    pending = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in entry_points))
    reached = set()
    while pending:
        name = pending.pop()
        reached.add(name)
        for stmt in definitions.get(name, ()):
            pending |= _reads(stmt) - reached
    return reached


def test_every_export_is_reached_from_an_entry_point():
    exports, definitions = _surface()
    reached = _reached(definitions)
    unreached = {e for e in exports if e.split(".")[1] not in reached}
    assert unreached - EXEMPT == set(), "exported but reached only from tests"
    assert EXEMPT <= unreached, "an exemption is reached now; drop it"


def test_demo_only_exports_are_pinned():
    exports, definitions = _surface()
    demo_only = _reached(definitions) - _reached(definitions, [ENTRY_POINTS[0], *BENCHMARK_READERS])
    found = {e for e in exports if e.split(".")[1] in demo_only}
    assert found - DEMO_ONLY == set(), "a new export that only a demo reaches"
    assert DEMO_ONLY - found == set(), "a pinned export is reached from the command line or gone; drop it"


def test_reads_off_numpy_and_stdlib_modules_reach_nothing():
    assert _reads(ast.parse("np.linalg.norm(np.diff(math.floor(p.diff())))")) == {"p", "diff"}


def test_every_method_is_reached_from_an_entry_point():
    _, definitions = _surface()
    reached = _reached(definitions)
    unreached = {f"{module}.{cls.name}.{m.name}" for module, cls in _classes() for m in _methods(cls)
                 if m.name not in reached}
    assert unreached == set(), "a method only tests call"


def _private_reads(path: Path) -> set[str]:
    """"reader -> module._name" for each private name of another isoladder module the file reads."""
    tree, modules, found = ast.parse(path.read_text(encoding="utf-8")), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("isoladder")):
            source = (node.module or "").removeprefix("isoladder").lstrip(".")
            for alias in node.names:
                if not source:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return {f"{path.stem} -> {name}" for name in found}


def test_cross_module_private_reads_are_pinned():
    paths = [*sorted(PACKAGE.glob("*.py")), *ENTRY_POINTS[1:]]
    reads = set().union(*map(_private_reads, paths))
    assert reads - PRIVATE_READS == set(), "a new cross-module read of a private name"
    assert PRIVATE_READS - reads == set(), "a pinned read is gone; drop it from PRIVATE_READS"


def test_entry_points_found():
    assert len(ENTRY_POINTS) == 5
    exports, _ = _surface()
    assert "cli.main" in exports and "report.run_all" in exports


def _module_key(node: ast.AST) -> str | None:
    """X for the expression modules["X"] (or modules[k] inside a comprehension over module names)."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "modules":
        return node.slice.value if isinstance(node.slice, ast.Constant) else ""
    return None


def _benchmark_reads(path: Path) -> set[str]:
    """"module.attr[.attr ...]" for each attribute chain the file reads off an isoladder module.

    The benchmark holds the modules in a dict, modules["name"], and binds them to local names one at a time
    or as `a, b = (modules[k] for k in ("a", "b"))`; each of its "module.name" alias keys counts too.
    """
    tree, bound, found = ast.parse(path.read_text(encoding="utf-8")), {}, set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name) and _module_key(value):
            bound[target.id] = _module_key(value)
        elif (isinstance(target, ast.Tuple) and isinstance(value, ast.GeneratorExp)
              and _module_key(value.elt) is not None):
            bound |= {t.id: c.value for t, c in zip(target.elts, value.generators[0].iter.elts)}
        elif isinstance(target, ast.Name) and target.id == "_ALIASES":
            found |= {key.value for key in value.keys}
    for node in ast.walk(tree):
        chain, inner = [], node
        while isinstance(inner, ast.Attribute):
            chain.insert(0, inner.attr)
            inner = inner.value
        root = bound.get(inner.id) if isinstance(inner, ast.Name) else _module_key(inner)
        if chain and root:
            found.add(".".join([root, *chain]))
    return found


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"isoladder.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_name_the_benchmark_reads_resolves():
    reads = set().union(*map(_benchmark_reads, BENCHMARK_READERS))
    # the reader finds the reads it was written for: the worker's calls and the tracer's methods
    assert {"report._Context.__init__", "isospectral.ThetaBasis._overlaps", "fock.TruncatedOperator.__matmul__",
            "isospectral.ThetaBasis", "ladder.ladder_matrices", "ladder.transport_to_theta",
            "fock.hermitian_eigensystem", "cli.main", "report.ALL_CRITERIA"} <= reads
    assert {name for name in reads if not _resolves(name)} == set(), "the benchmark reads a name that is gone"


# ROADMAP's design-quality gate on `wc -l src/isoladder/*.py`: a change that adds lines pays for them in itself
SOURCE_LINE_GATE = 2786


def test_sources_stay_within_the_line_gate():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= SOURCE_LINE_GATE, f"src/isoladder/*.py holds {lines} lines, over the gate of {SOURCE_LINE_GATE}"
