"""``src/driftlab`` holds what the stages run and the public API, nothing else.

Every module-level function or class and every method defined in the package
must have a reference in the package outside its own body, be exported in
``driftlab.__all__`` (the README's Public API), or sit on ``KEEP`` with a
reason.  Scalar references and fixtures that only tests call live under
``tests/`` (``oracles.py``, ``_helpers.py``).

A reference is a name or an attribute with the definition's name.  Imports
do not count, nor attributes of a module the package imports from outside
(``np.add.at`` is not a call of ``Schedule.at``), nor dunder methods, which
Python calls implicitly.  Attributes are matched by name alone, so a method
that shares its name with an attribute used elsewhere passes unseen.
"""

import ast
from collections import defaultdict
from pathlib import Path

import driftlab

SRC = Path(driftlab.__file__).resolve().parent

KEEP = {
    "ExperimentConfig.sim": "bench/workloads.py calls it",
    "SimConfig.w_at": "bench/workloads.py calls it",
    "MixedRadix.encode": "public API: README's encode(decode(m)) == m",
    "MixedRadix.decode": "public API: README's encode(decode(m)) == m",
}


def _definitions(tree):
    """(qualified name, bare name, node) of each top-level def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item


def _external_modules(tree):
    """Local names bound by ``import x`` or ``import x as y``."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _references(tree):
    """(name, line) of each reference in ``tree``."""
    external = _external_modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and _root(node.value) not in external:
            yield node.attr, node.lineno


def unreferenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    sites = defaultdict(list)  # name -> (module, line) of each reference
    for module, tree in trees.items():
        for name, line in _references(tree):
            sites[name].append((module, line))
    found = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            used = any(where != module or line not in own for where, line in sites[name])
            if not (used or name in driftlab.__all__ or qualified in KEEP):
                found.append(f"{module}: {qualified}")
    return found


def test_every_definition_is_used_exported_or_kept():
    assert unreferenced() == []


def test_every_export_imports():
    missing = [name for name in driftlab.__all__ if not hasattr(driftlab, name)]
    assert missing == []


def test_every_kept_name_is_defined():
    defined = {
        qualified
        for path in SRC.glob("*.py")
        for qualified, _, _ in _definitions(ast.parse(path.read_text()))
    }
    assert sorted(set(KEEP) - defined) == []
