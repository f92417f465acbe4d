"""Every name in a module's __all__ is reached from the command line or a demo.

`isoladder.__main__` (and the `isoladder` script, cli.main) runs every
command, the acceptance report included; the demos are the other entry
points.  A definition is reached when an identifier it is bound to is read,
as a bare name or an attribute, in code that is itself reached.  Matching is
by identifier across the package, so a same-named read elsewhere counts too;
type annotations do not count, since nothing reads them at run time.

Private names that one module reads from another are pinned in a list that
may only shrink, since `__all__` does not show whether they are reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isoladder"
ENTRY_POINTS = [PACKAGE / "__main__.py", *sorted((ROOT / "demos").glob("*.py"))]
# reached from no entry point yet; ROADMAP item 1A makes it a battery part
EXEMPT = {"isospectral.theta_curvature_table"}
# private names one package module or demo reads from another, today's reads: the checks the CLI
# and the report share, fock's Hermitian check and the shift eigenvector.  The list may only shrink.
PRIVATE_READS = {
    "cli -> ladder._commutator_deviation",
    "cli -> report._Context",
    "cli -> report._cs_residual",
    "cli -> report._inv_sqrt_bracket_checks",
    "cli -> report._ladder_reference_checks",
    "cli -> report._theta_route_commutator",
    "isospectral -> coherent._shift_eigenvector",
    "ladder -> fock._require_hermitian",
    "report -> ladder._commutator_deviation",
}


def _reads(node: ast.AST) -> set[str]:
    """Identifiers the node reads: names and attribute names, outside annotations."""
    if isinstance(node, ast.Name):
        return {node.id}
    names = {node.attr} if isinstance(node, ast.Attribute) else set()
    for field, child in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for item in child if isinstance(child, list) else [child]:
            if isinstance(item, ast.AST):
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


def _surface():
    """({module.name} for every __all__ entry, {identifier: [top-level definitions bound to it]})."""
    exports, definitions = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _bound_names(stmt):
                if name == "__all__":
                    exports |= {f"{path.stem}.{elt.value}" for elt in stmt.value.elts}
                else:
                    definitions.setdefault(name, []).append(stmt)
    return exports, definitions


def _reached(definitions) -> set[str]:
    """Identifiers read by the entry points or, transitively, by the definitions they reach."""
    pending = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in ENTRY_POINTS))
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
