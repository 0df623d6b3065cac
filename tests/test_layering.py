"""Import layering of ``src/repro``, checked on the AST.

``core`` <- ``drx``/``pfs`` <- ``mpi`` <- ``drxmp`` <- ``tuning``/``serve``
<- the leaf packages.  A module may import its own tier and the tiers
below it, at module level or inside a function; nothing imports upward.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

TIER = {"core": 0, "drx": 1, "pfs": 1, "mpi": 2, "drxmp": 3,
        "tuning": 4, "serve": 4,
        "baselines": 5, "bench": 5, "workloads": 5}

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


#: identifiers of test rigs that live in ``tests/support`` or the
#: benchmarks: the shard-set harness, the daemon's client-set sleep and
#: the PFS servers' realtime sleep
RIG_NAMES = {"ShardSet", "_simulate_delay", "realtime_factor"}


def _identifier(node: ast.AST) -> str | None:
    for field in ("name", "id", "attr", "arg"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def test_test_rigs_stay_out_of_src():
    """Wire chaos, the shard-set harness and injected service time live
    in ``tests/support`` and the benchmarks: the shipped package carries
    none of them, reads no ``_delay`` header, and imports nothing from
    ``tests``."""
    assert not (ROOT / "serve" / "netfault.py").exists()
    offenders = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if _identifier(node) in RIG_NAMES:
                offenders.append((rel, _identifier(node)))
            if isinstance(node, ast.Constant) and node.value == "_delay":
                offenders.append((rel, "_delay"))
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            offenders += [(rel, n) for n in names
                          if n.split(".")[0] == "tests"]
    assert offenders == []


#: names of the deleted serial twins: armed faults are scheduled in
#: ``IOExecutor.submit`` alone, not by each call site
TWIN_NAMES = ("deterministic_only", "_parallel_ok",
              "_writev_replicated_parallel")

#: the only modules that ask whether a fault plan is armed: the site
#: registry, the executor, the daemon's connection dispatch and the
#: collective's aggregator token chain
ARMED_CHECKS = {"core/faultsites.py", "core/executor.py",
                "serve/server.py", "mpi/collective.py"}


def test_armed_faults_have_one_schedule():
    """No call site keeps a serial twin for armed faults."""
    twins, checks = [], set()
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text()
        twins += [(rel, n) for n in TWIN_NAMES if n in text]
        if "any_active(" in text:
            checks.add(rel)
    assert twins == []
    assert checks <= ARMED_CHECKS


def _design_module_map() -> set[str]:
    """``package/module.py`` for every module the code block of
    DESIGN.md §3 lists (packages at two spaces, modules at four)."""
    text = (ROOT.parents[1] / "DESIGN.md").read_text()
    block = text[text.index("## 3."):].split("```")[1]
    modules, package = set(), None
    for line in block.splitlines():
        if m := re.match(r"  (\w+)/", line):
            package = m.group(1)
        elif m := re.match(r"    (\w+\.py)\b", line):
            modules.add(f"{package}/{m.group(1)}")
    return modules


def test_design_module_map_matches_src():
    """DESIGN.md §3 names every module under ``src/repro`` and no
    module that is gone."""
    shipped = {p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*.py")
               if p.stem not in ("__init__", "__main__")}
    listed = _design_module_map()
    assert (sorted(shipped - listed), sorted(listed - shipped)) == ([], [])


def test_every_package_has_a_tier():
    packages = {p.name for p in ROOT.iterdir() if (p / "__init__.py").exists()}
    assert packages == set(TIER)


def test_nothing_imports_upward():
    upward = {(f, dst) for f, src, dst in _edges() if TIER[dst] > TIER[src]}
    assert upward == set()


def test_package_graph_is_acyclic():
    """No package reaches itself (``drx -> tuning -> drxmp -> drx`` was
    such a loop)."""
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
