"""No dead helpers: every function, class and method defined in the package
modules and the benchmark is referenced from outside its own definition.

A reference is a name (``f(...)``), an attribute (``obj.f``) or a string
constant that is exactly the identifier (the benchmark tracer rebinds
names it reads as strings).  Imports do not count, so neither do the
re-exports of ``pivotforge/__init__.py``, and the tests under ``tests/``
are not scanned: a definition that only a test or the public namespace
names is dead code in the program.  A name used only inside its own
body (a recursive call, a class naming itself) has no caller either.
Dunder methods, which Python calls implicitly, and the ``test_*``
functions that pytest collects are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Definitions kept without a reference, each with its reason.
ALLOWED = {
    "pp": "definition-level prefix-product predicate; tests check "
          "improving_dimension's sweep against it",
    "s_parity": "definition-level suffix-parity predicate; tests check "
                "improving_dimension's sweep against it",
    "ObjectiveOracle": "a declaration: the protocol that oracles satisfy "
                       "structurally",
    "DualNumber": "forward-mode scalars; tests differentiate the generic "
                  "recursion with them, a route independent of the oracle's",
}


def _sources() -> list:
    package = [path for path in sorted((ROOT / "src" / "pivotforge").glob("*.py"))
               if path.name != "__init__.py"]
    return package + sorted((ROOT / "perfbench").rglob("*.py"))


def _references(node) -> Counter:
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            found[sub.value] += 1
    return found


def _exempt(name: str, path: Path) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True
    return path.name.startswith("test_") and name.startswith("test_")


def unreferenced_definitions() -> list:
    """``(file, line, name)`` for each definition that nothing outside its
    own body names."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in _sources()]
    total = Counter()
    for _, tree in trees:
        total += _references(tree)
    dead = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _exempt(node.name, path):
                continue
            if total[node.name] - _references(node)[node.name] == 0:
                dead.append((str(path.relative_to(ROOT)), node.lineno, node.name))
    return dead


def test_every_definition_has_a_caller():
    dead = unreferenced_definitions()
    assert [entry for entry in dead if entry[2] not in ALLOWED] == []
    assert {entry[2] for entry in dead} == set(ALLOWED)  # no stale allowlist entry
