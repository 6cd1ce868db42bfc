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

Every dataclass field and every ``self.<name> = ...`` of a class in the
package must be read as ``.<name>`` somewhere in the package, or sit on
``KEEP`` with a reason: a field that only tests read is stored for them.
Reads are matched by name alone, like references.

Every name a module but ``__init__.py`` imports must be used in that module.
"""

import ast
from collections import defaultdict
from pathlib import Path

import driftlab

SRC = Path(driftlab.__file__).resolve().parent

KEEP = {
    "ExperimentConfig.sim": "bench/workloads.py calls it",
    "SimConfig.w_at": "bench/workloads.py calls it; it returns window, the same at every slot",
    "MixedRadix.encode": "public API: README's encode(decode(m)) == m",
    "MixedRadix.decode": "public API: README's encode(decode(m)) == m",
    "Beta1Estimate.skipped": "bench/workloads.py reads it",
    "KappaEstimate.included_cells": "bench/workloads.py reads it",
    "KappaEstimate.excluded_cells": "bench/workloads.py reads it",
    "SimplexResult.basis": "TestBlandPivots pins Bland's pivots through it",
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


def _attributes(tree):
    """(qualified name, bare name) of each dataclass field and each attribute
    a method assigns on ``self``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield f"{node.name}.{item.target.id}", item.target.id
            elif isinstance(item, ast.FunctionDef):
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        yield f"{node.name}.{sub.attr}", sub.attr


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


def unread():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted({qualified for tree in trees for qualified, name in _attributes(tree)
                   if name not in reads and qualified not in KEEP})


def test_every_field_and_attribute_is_read_or_kept():
    assert unread() == []


def test_every_export_imports():
    missing = [name for name in driftlab.__all__ if not hasattr(driftlab, name)]
    assert missing == []


def test_every_kept_name_is_defined():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    defined = {qualified for tree in trees for qualified, *_ in _definitions(tree)}
    defined |= {qualified for tree in trees for qualified, _ in _attributes(tree)}
    assert sorted(set(KEEP) - defined) == []


def _imported_names(tree):
    """Local names bound by each import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the public API
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


# the model layer: what the simulator, the estimators, the config and the CLI
# are built on, and so may import none of them
MODEL_MODULES = ("errors", "distributions", "strategies", "simplex", "lp", "guarantees",
                 "presets")
STAGE_MODULES = {"simulate", "estimators", "config", "cli"}


def _package_imports(tree):
    """The ``driftlab`` modules ``tree`` imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:  # absolute: only driftlab.<module> counts
                if parts[0] != "driftlab":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0]
            else:  # from . import x, from driftlab import x
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("driftlab."))


def test_model_modules_import_no_stage_module():
    found = [f"{name}.py imports {module}" for name in MODEL_MODULES
             for module in _package_imports(ast.parse((SRC / f"{name}.py").read_text()))
             if module in STAGE_MODULES]
    assert found == []
