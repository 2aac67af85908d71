"""Every module-level import in the package, the tests and the scripts is
used, and every module-level function or class of the package serves the
package or the scripts.

A name bound by an import at module level counts as used when it appears
anywhere else in the module as a name (``np``, ``np.sum``, a decorator,
a default value).  A definition counts as referenced when a module of
the package or a script names it, as a name, an attribute or an imported
name; a wrapper that only the tests call fails.  The package's
``__init__.py`` only re-exports, so it is not checked and its exports do
not count as references.
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
}


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


def unreferenced_definitions(defining, referencing):
    """Module-level functions and classes of the sources ``defining`` that
    no source of ``referencing`` names."""
    defined = set()
    for source in defining:
        defined.update(
            node.name
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
    named = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted(defined - named)


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
    assert unreferenced_definitions([lib], [lib, script]) == ["Unused", "_private"]


def test_every_definition_is_referenced():
    sources = [p.read_text() for p in PACKAGE + SCRIPTS]
    found = unreferenced_definitions(sources[: len(PACKAGE)], sources)
    assert sorted(set(found) - set(REFERENCE_ONLY)) == []
    # an allowlisted name that gained a caller leaves the list
    assert sorted(set(REFERENCE_ONLY) - set(found)) == []
