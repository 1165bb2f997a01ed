import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gabp import analysis, cones, engine, network, oracle

ROOT = Path(__file__).resolve().parents[1]
MODULES = [network, engine, oracle, analysis, cones]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # The benchmark's tracer wraps each entry, so a stale one would crash it.
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_the_public_definitions(module):
    # __all__ is the module's one export list, and the benchmark's tracer
    # times exactly its functions: a public function left out would run
    # untimed.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    public = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert sorted(module.__all__) == sorted(public)


def test_package_import_loads_no_module():
    # Each name has one import path, its module: the package itself
    # re-exports nothing, so importing it loads none of them.
    script = "import gabp, sys; print(sorted(m for m in sys.modules if m.startswith('gabp.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(cones.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


def _third_party_imports(paths):
    """Top-level names of absolute imports that are neither stdlib nor gabp."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"gabp"}


def _declared_dependencies(pyproject):
    """Distribution names in ``[project] dependencies`` (a flat list of
    quoted requirement strings), without their version specifiers."""
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.DOTALL | re.MULTILINE)
    assert block, "pyproject.toml has no dependencies list"
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
            for req in re.findall(r"\"([^\"]+)\"", block.group(1))}


def test_dependencies_match_imports():
    # Every third-party module the package imports is declared, and every
    # declared distribution is imported (its import name is its own).
    imported = _third_party_imports(sorted((ROOT / "src" / "gabp").glob("*.py")))
    declared = _declared_dependencies((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert imported == declared


def _names_outside_cones(exempt=()):
    """(``file:line``, name) for every import, dotted attribute and bare
    name in the package's modules other than cones, skipping the bodies of
    the ``exempt`` functions, given as ``module.function``."""
    for path in sorted((ROOT / "src" / "gabp").glob("*.py")):
        if path.name == "cones.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" in exempt]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if not any(node.lineno in lines for lines in skipped):
                yield from ((f"{path.name}:{node.lineno}", name) for name in names)


def test_cone_tolerance_is_decided_in_cones():
    # REL_TOL sets the boundary of every cone verdict: outside cones, it
    # would be a second rule (and scipy.linalg, a second eigen library, is
    # kept out by test_no_module_names_scipy).
    found = [(where, name) for where, name in _names_outside_cones()
             if name.split(".")[-1] == "REL_TOL"]
    assert found == []


def test_pd_factorizations_are_decided_in_cones():
    # How a PD matrix is factorized, and how its failure is named, is
    # decided in cones.  The instance sampler draws its latent states
    # through a Cholesky factor of matrices it made PD itself.
    pattern = re.compile(r"(^|\.)(linalg\.(cholesky|inv|solve)|LinAlgError)$")
    found = [(where, name) for where, name in _names_outside_cones({"network.generate_random"})
             if pattern.search(name)]
    assert found == []


def test_cross_checks_do_not_import_the_engine():
    # The analysis and the oracle check the engine's results (criteria
    # 09-11), so each computes its own from the network: a name taken
    # from the engine would make the check a call into what it checks.
    pattern = re.compile(r"(^|\.)engine(\.|$)")
    found = [(where, name) for where, name in _names_outside_cones()
             if where.startswith(("analysis.py:", "oracle.py:")) and pattern.search(name)]
    assert found == []


def test_no_module_names_scipy():
    # The package needs numpy alone: a scipy import costs every command
    # about 0.2 s and 30 MB, and the tests keep scipy only as a reference.
    found = [f"{path.name}:{k}" for path in sorted((ROOT / "src" / "gabp").glob("*.py"))
             for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "scipy" in line]
    assert found == []


def _package_imports(path):
    """Stems of the gabp modules a module imports ('__init__' for a name
    taken from the package itself, which is flat)."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gabp" if node.level else "", node.module]))
            dotted += [f"{module}.{alias.name}" for alias in node.names]
    stems = {name.split(".")[1] for name in dotted if name.startswith("gabp.")}
    return {s if (path.parent / f"{s}.py").exists() else "__init__" for s in stems}


# Each module's imports from the package: cones stands alone, the analysis
# and the oracle are cross-checks that never see the engine, and the CLI
# (which also reads the package's version) wires them all together.
IMPORT_GRAPH = {
    "__init__": set(),
    "cones": set(),
    "network": {"cones"},
    "engine": {"cones", "network"},
    "oracle": {"cones", "network"},
    "analysis": {"cones"},
    "cli": {"__init__", "analysis", "cones", "engine", "network", "oracle"},
}


def test_import_graph_is_fixed():
    found = {path.stem: _package_imports(path)
             for path in sorted((ROOT / "src" / "gabp").glob("*.py"))}
    assert found == IMPORT_GRAPH
