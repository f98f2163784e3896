"""Every module of the package uses every name it imports (the package
`__init__` only re-exports, so it is left out), and every public name it
defines is read somewhere in `src/` or `scripts/` (reference
implementations that only tests read live in `tests/oracles.py`)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soficlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _defined(stmt):
    """The names a top-level statement binds: a function, a class, or the
    plain-name targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read(stmt):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_caller():
    # one entry per top-level statement of every source file; a name counts
    # as called when a statement other than its own definition reads it
    reads, defined = [], []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            if path in MODULES:
                defined += [(f"{path.stem}.{name}", name, len(reads))
                            for name in _defined(stmt) if not name.startswith("_")]
            reads.append(_read(stmt))
    uncalled = [qualified for qualified, name, own in defined
                if not any(name in r for i, r in enumerate(reads) if i != own)]
    assert not uncalled, f"no reader in src/ or scripts/: {uncalled}"
