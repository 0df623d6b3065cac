"""Import layering of ``src/repro``, checked on the AST.

``core`` <- ``drx``/``pfs`` <- ``mpi`` <- ``drxmp`` <- ``tuning``/``serve``
<- the leaf packages.  A module may import its own tier and the tiers
below it, at module level or inside a function; nothing imports upward.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

TIER = {"core": 0, "drx": 1, "pfs": 1, "mpi": 2, "drxmp": 3,
        "tuning": 4, "serve": 4,
        "baselines": 5, "bench": 5, "workloads": 5}

#: the one upward import: ``tune="auto"`` asks the advisor, lazily, so
#: that ``repro.drx`` loads without it
UPWARD_ALLOWED = {("drx/drxfile.py", "tuning")}


def _package_imports(path: Path) -> set[str]:
    """Top-level ``repro`` packages a source file imports, anywhere in
    it (relative imports resolved against the file's own package)."""
    rel = path.relative_to(ROOT)
    here = ("repro", *rel.parts[:-1])
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [tuple(a.name.split(".")) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = here[:len(here) - (node.level - 1)] if node.level else ()
            base += tuple(node.module.split(".")) if node.module else ()
            # ``from .. import core`` names the package in the alias
            targets = [base] + [base + (a.name,) for a in node.names]
        else:
            continue
        found.update(t[1] for t in targets
                     if len(t) > 1 and t[0] == "repro" and t[1] in TIER)
    return found


def _edges() -> set[tuple[str, str, str]]:
    """``(file, its package, imported package)`` across packages."""
    out = set()
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        if len(rel.parts) < 2:
            continue            # repro/__init__.py re-exports everything
        out.update((rel.as_posix(), rel.parts[0], dst)
                   for dst in _package_imports(path) if dst != rel.parts[0])
    return out


def test_test_rigs_stay_out_of_src():
    """Wire chaos lives in ``tests/support``: the shipped package
    neither carries it nor imports anything from ``tests``."""
    assert not (ROOT / "serve" / "netfault.py").exists()
    offenders = []
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            offenders += [(path.relative_to(ROOT).as_posix(), n)
                          for n in names if n.split(".")[0] == "tests"]
    assert offenders == []


def test_every_package_has_a_tier():
    packages = {p.name for p in ROOT.iterdir() if (p / "__init__.py").exists()}
    assert packages == set(TIER)


def test_nothing_imports_upward():
    upward = {(f, dst) for f, src, dst in _edges() if TIER[dst] > TIER[src]}
    assert upward == UPWARD_ALLOWED


def test_package_graph_is_acyclic():
    """Even counting the allowed upward import, no package reaches
    itself (``drx -> tuning -> drxmp -> drx`` was such a loop)."""
    graph: dict[str, set[str]] = {pkg: set() for pkg in TIER}
    for _f, src, dst in _edges():
        graph[src].add(dst)

    def reaches(start: str) -> set[str]:
        seen: set[str] = set()
        stack = list(graph[start])
        while stack:
            pkg = stack.pop()
            if pkg not in seen:
                seen.add(pkg)
                stack.extend(graph[pkg])
        return seen

    assert [pkg for pkg in graph if pkg in reaches(pkg)] == []
