"""Every module-level import in the package, the tests and the scripts is
used, and every module-level function or class of the package serves the
package or the scripts.

A name bound by an import at module level counts as used when it appears
anywhere else in the module as a name (``np``, ``np.sum``, a decorator,
a default value).  A definition counts as referenced when it is reachable
by name, as a name, an attribute or an imported name, from the package's
module-level statements, the scripts or the console entry point
``cli.main``, through the bodies of the definitions reached so far; a
wrapper that only the tests call fails, and so does a helper that only
such wrappers call.  The package's ``__init__.py`` only re-exports, so it
is not checked and its exports do not count as references.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(
    p for p in (ROOT / "src" / "safefem").glob("*.py") if p.name != "__init__.py"
)
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + SCRIPTS

# Definitions that only the tests call, each kept for a reason.
REFERENCE_ONLY = {
    "local_safe_oracle": "independent operator-route check of safe_matrices",
    "strong_residual": "finite-difference check of the manufactured loads",
    "exp_average": "simplex average that the mpmath oracles check",
    "stiffness_matrices": "Whitney stiffness that zero drift reduces to",
    "incidence": "discrete complex that an auxiliary-space preconditioner needs",
    "_fd_jacobian": "finite differences behind strong_residual",
    "local_exp_operators": "conjugated difference operators behind local_safe_oracle",
    "local_incidence": "one-cell incidence behind local_exp_operators and incidence",
    "_dd_exp": "shifted divided differences behind exp_average and local_exp_operators",
}
ENTRY_POINTS = ("main",)


def unused_imports(source):
    """Names bound by module-level imports of ``source`` and never used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _names(node):
    """Every name ``node`` mentions: names, attributes, imported names."""
    named = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            named.update(alias.name for alias in sub.names)
    return named


def unreferenced_definitions(modules, scripts, entry_points=()):
    """Module-level functions and classes of the sources ``modules`` that
    are not reachable by name from the modules' module-level statements
    other than imports, the sources ``scripts`` or the definitions named
    in ``entry_points``."""
    bodies = {}
    todo = set(entry_points)
    for source in modules:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= _names(node)
    for source in scripts:
        todo |= _names(ast.parse(source))
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in bodies.get(name, []):
            todo |= _names(node) - reached
    return sorted(set(bodies) - reached)


def test_checker_finds_unused_imports():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.sum(e)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unreferenced_definitions():
    lib = (
        "def used():\n    pass\n\ndef helper():\n    pass\n\n"
        "class Unused:\n    pass\n\ndef _private():\n    helper()\n"
    )
    script = "from lib import used as u\n\nu()\n"
    assert unreferenced_definitions([lib], [script]) == ["Unused", "_private", "helper"]
    # reach runs through bodies, from module-level statements and entry points
    # too; a chain that only unreached definitions call stays unreached
    lib = (
        "def main():\n    return _outer()\n\ndef _outer():\n    return _inner()\n\n"
        "def _inner():\n    pass\n\ndef _table():\n    return _cell()\n\n"
        "def _cell():\n    pass\n\nfrom lib import oracle\nTABLE = _table()\n\n"
        "def oracle():\n    return _oracle_helper()\n\n"
        "def _oracle_helper():\n    return _inner()\n"
    )
    assert unreferenced_definitions([lib], [], ENTRY_POINTS) == ["_oracle_helper", "oracle"]
    assert unreferenced_definitions([lib], []) == [
        "_inner", "_oracle_helper", "_outer", "main", "oracle"
    ]


def test_every_definition_is_referenced():
    found = unreferenced_definitions(
        [p.read_text() for p in PACKAGE], [p.read_text() for p in SCRIPTS], ENTRY_POINTS
    )
    assert sorted(set(found) - set(REFERENCE_ONLY)) == []
    # an allowlisted name that gained a caller leaves the list
    assert sorted(set(REFERENCE_ONLY) - set(found)) == []
