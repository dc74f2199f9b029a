"""The library is what the subcommands run.

Builds the closure of top-level names of ``src/semiflow`` reachable from
``cli.main``: a reached definition reaches every name its source mentions,
resolved in its own module (a local top-level name, a ``from .x import y``
binding, or ``x.attr`` on an imported sibling module).  An assignment with
several targets is one definition of all of them.  Every top-level
definition outside the closure fails the test unless ``ALLOWED`` names it
with a reason; ``__init__`` and ``__main__`` only re-export and dispatch, so
they are not scanned.  Independent reference paths and paper constructions
that no subcommand runs belong in ``tests/oracles.py``.
"""

import ast
import os

import semiflow

PACKAGE = os.path.dirname(semiflow.__file__)

# "module.name" -> why the name stays although no subcommand reaches it
ALLOWED = {
    "transversality.n_of_t": "bench/spans.py wraps it by name to time the n(f,t) layer",
}


def _targets(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _module_table(path):
    """(definitions: name -> node, bindings: local name -> (module, name or
    None for a module)) of one source file."""
    tree = ast.parse(open(path, encoding="utf-8").read())
    definitions, bindings = {}, {}
    for node in tree.body:
        for name in _targets(node):
            definitions[name] = node
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    bindings[local] = (alias.name, None)
                else:
                    bindings[local] = (node.module, alias.name)
    return definitions, bindings


def _closure(tables, root):
    reached = set()
    todo = [root]
    while todo:
        module, name = todo.pop()
        if (module, name) in reached or name not in tables[module][0]:
            continue
        reached.add((module, name))
        definitions, bindings = tables[module]
        for node in ast.walk(definitions[name]):
            if isinstance(node, ast.Name):
                if node.id in definitions:
                    todo.append((module, node.id))
                elif node.id in bindings and bindings[node.id][1] is not None:
                    todo.append(bindings[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and bindings.get(node.value.id, (None, 0))[1] is None):
                todo.append((bindings[node.value.id][0], node.attr))
    return reached


def _tables():
    return {name[:-3]: _module_table(os.path.join(PACKAGE, name))
            for name in sorted(os.listdir(PACKAGE))
            if name.endswith(".py") and name not in ("__init__.py", "__main__.py")}


def unreachable():
    tables = _tables()
    reached = _closure(tables, ("cli", "main"))
    return sorted(f"{module}.{name}" for module, (definitions, _) in tables.items()
                  for name in definitions if (module, name) not in reached)


def test_every_definition_is_reached_from_the_cli():
    assert [name for name in unreachable() if name not in ALLOWED] == []


def test_every_allowed_name_exists_and_is_unreached():
    assert set(ALLOWED) <= set(unreachable())


def test_the_closure_follows_imports_attributes_and_tuple_targets():
    tables = _tables()
    reached = _closure(tables, ("cli", "main"))
    # cli -> from .dynamics import inverse_branches -> branch_table
    assert ("dynamics", "branch_table") in reached
    # cli -> spectral.build_ulam (attribute of an imported module)
    assert ("spectral", "build_ulam") in reached
    # one tuple assignment defines both profile tables
    assert ("genericity", "_PROFILE_CUM") in reached
