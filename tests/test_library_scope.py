"""The library is what the subcommands run.

Builds the closure of ``src/semiflow`` reachable from ``cli.main``, over
top-level names and over class members.

Top-level names: reached code reaches every name it mentions, resolved in
its own module (a local top-level name, a ``from .x import y`` binding, or
``x.attr`` on an imported sibling module).  A relative import inside a
function binds its names for the whole module, as a top-level one does:
``cli`` imports an experiment's modules only where it runs that
experiment.  An assignment with several targets is one definition of all
of them.

Class members: a member of a class is a field (a name the class body
annotates or assigns, or a ``__slots__`` entry), a method or a property.  A
member is reached when reached code loads an attribute of its name, on any
object.  The match is by name alone: it can miss a member whose name some
other attribute read shares, but it never fails a member that is read.

Reached code is every reached top-level definition except classes; of a
reached class, its body outside the methods (bases, decorators, fields),
its dunder methods, which Python calls implicitly, and every method that is
reached as a member.

Every top-level definition outside the closure, and every unreached member
of a reached class, fails the test unless ``ALLOWED`` names it with a
reason; ``__init__`` and ``__main__`` only re-export and dispatch, so they
are not scanned.  Each name of ``__init__``'s ``_EXPORTS`` table, which maps
a lazily re-exported name to its module, is followed through the modules'
imports to its definition, which must be reached or ``ALLOWED``:
a concept no subcommand runs cannot stay public.  Independent reference
paths and paper constructions that no subcommand runs belong in
``tests/oracles.py``.
"""

import ast
import os

import semiflow

PACKAGE = os.path.dirname(semiflow.__file__)

# "module.name" or "module.Class.member" -> why it stays although no
# subcommand reaches it
ALLOWED = {
    "transversality.m_of_t": "bench/spans.py wraps it by name to time the m(f,t) layer",
    "transversality.n_of_t": "bench/spans.py wraps it by name to time the n(f,t) layer",
    "cli._Parser.error": "argparse calls it on a usage error: it overrides ArgumentParser.error",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _targets(node):
    if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _members(cls):
    """name -> method node, or None for a field, of a class definition."""
    members = {}
    for node in cls.body:
        if isinstance(node, _FUNCTIONS):
            members[node.name] = node
            continue
        for name in _targets(node):
            if name == "__slots__":
                members.update(dict.fromkeys(ast.literal_eval(node.value)))
            else:
                members[name] = None
    return members


def _module_table(path):
    """(definitions: name -> node, bindings: local name -> (module, name or
    None for a module)) of one source file; the bindings are those of its
    relative imports at any depth."""
    tree = ast.parse(open(path, encoding="utf-8").read())
    definitions, bindings = {}, {}
    for node in tree.body:
        for name in _targets(node):
            definitions[name] = node
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    bindings[local] = (alias.name, None)
                else:
                    bindings[local] = (node.module, alias.name)
    return definitions, bindings


def _walk(tables, module, node, todo, loaded):
    """Queue the top-level names that ``node`` mentions, and record the
    attribute names it loads."""
    definitions, bindings = tables[module]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in definitions:
                todo.append((module, sub.id))
            elif sub.id in bindings and bindings[sub.id][1] is not None:
                todo.append(bindings[sub.id])
        elif isinstance(sub, ast.Attribute):
            if isinstance(sub.ctx, ast.Load):
                loaded.add(sub.attr)
            if (isinstance(sub.value, ast.Name)
                    and bindings.get(sub.value.id, (None, 0))[1] is None):
                todo.append((bindings[sub.value.id][0], sub.attr))


def _closure(tables, root):
    """(reached top-level (module, name) pairs, attribute names loaded by
    reached code)."""
    reached, loaded, methods = set(), set(), set()
    todo = [root]
    while True:
        while todo:
            module, name = todo.pop()
            if (module, name) in reached or name not in tables[module][0]:
                continue
            reached.add((module, name))
            node = tables[module][0][name]
            units = [node]
            if isinstance(node, ast.ClassDef):
                units = [*node.bases, *node.keywords, *node.decorator_list,
                         *(n for n in node.body
                           if not isinstance(n, _FUNCTIONS) or _is_dunder(n.name))]
            for unit in units:
                _walk(tables, module, unit, todo, loaded)
        # the methods of reached classes that reached code names
        new = [(module, cls, name, method)
               for module, cls in reached
               if isinstance(tables[module][0][cls], ast.ClassDef)
               for name, method in _members(tables[module][0][cls]).items()
               if method is not None and name in loaded and (module, cls, name) not in methods]
        if not new:
            return reached, loaded
        for module, cls, name, method in new:
            methods.add((module, cls, name))
            _walk(tables, module, method, todo, loaded)


def _tables(package=PACKAGE):
    return {name[:-3]: _module_table(os.path.join(package, name))
            for name in sorted(os.listdir(package))
            if name.endswith(".py") and name not in ("__init__.py", "__main__.py")}


def unreachable(package=PACKAGE):
    """Top-level definitions outside the closure, as "module.name"."""
    tables = _tables(package)
    reached, _ = _closure(tables, ("cli", "main"))
    return sorted(f"{module}.{name}" for module, (definitions, _) in tables.items()
                  for name in definitions if (module, name) not in reached)


def unread_members(package=PACKAGE):
    """Members of reached classes that no reached code loads, as
    "module.Class.member"; dunder members are called implicitly."""
    tables = _tables(package)
    reached, loaded = _closure(tables, ("cli", "main"))
    return sorted(f"{module}.{cls}.{name}" for module, cls in reached
                  if isinstance(tables[module][0][cls], ast.ClassDef)
                  for name in _members(tables[module][0][cls])
                  if not _is_dunder(name) and name not in loaded)


def unreached_exports(package=PACKAGE):
    """The names ``__init__`` re-exports whose definition, found by following
    each ``_EXPORTS`` entry through the modules' own imports, is outside the
    closure, as "module.name"."""
    tables = _tables(package)
    reached, _ = _closure(tables, ("cli", "main"))
    exports = _module_table(os.path.join(package, "__init__.py"))[0]["_EXPORTS"].value
    out = []
    for name, module in ast.literal_eval(exports).items():
        while module in tables and name in tables[module][1] and name not in tables[module][0]:
            module, name = tables[module][1][name]
        if name is not None and (module, name) not in reached:
            out.append(f"{module}.{name}")
    return sorted(out)


def test_every_definition_is_reached_from_the_cli():
    assert [name for name in unreachable() if name not in ALLOWED] == []


def test_every_member_is_read_by_reached_code():
    assert [name for name in unread_members() if name not in ALLOWED] == []


def test_every_export_is_reached_from_the_cli():
    assert [name for name in unreached_exports() if name not in ALLOWED] == []


def test_every_allowed_name_exists_and_is_unreached():
    assert set(ALLOWED) <= set(unreachable()) | set(unread_members())
    assert all(reason for reason in ALLOWED.values())


def test_the_closure_follows_imports_attributes_and_tuple_targets():
    tables = _tables()
    reached, _ = _closure(tables, ("cli", "main"))
    # cli -> from .dynamics import inverse_branches -> branch_table
    assert ("dynamics", "branch_table") in reached
    # cli -> spectral.build_ulam (attribute of a module a runner imports)
    assert ("spectral", "build_ulam") in reached
    # cli -> a rule's function-level import of genericity.combination_size
    assert ("genericity", "combination_size") in reached
    # one tuple assignment defines both profile tables
    assert ("genericity", "_PROFILE_CUM") in reached


def test_the_member_closure_follows_dunders_and_reached_methods(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .model import Box\n"
        "def main():\n"
        "    return Box(1, 2).area\n")
    (tmp_path / "model.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Box:\n"
        "    __slots__ = ('w', 'h')\n"
        "    depth: int = 0\n"
        "    def __post_init__(self):\n"
        "        assert self.w\n"
        "    @property\n"
        "    def area(self):\n"
        "        return self.h * helper()\n"
        "    def volume(self):\n"
        "        return self.depth * orphan()\n"
        "def helper():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return 0\n")
    # w is read by a dunder, h by a reached property; volume is never named,
    # so neither its read of depth nor its call of orphan counts
    assert unread_members(str(tmp_path)) == ["model.Box.depth", "model.Box.volume"]
    assert unreachable(str(tmp_path)) == ["model.orphan"]


def test_exports_follow_imports_to_their_definitions(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "_EXPORTS = {'Box': 'cli', 'main': 'cli', 'orphan': 'model', 'gone': 'model'}\n")
    (tmp_path / "cli.py").write_text(
        "def main():\n"
        "    from .model import Box\n"
        "    return Box()\n")
    (tmp_path / "model.py").write_text(
        "class Box:\n"
        "    pass\n"
        "def orphan():\n"
        "    return 0\n")
    # Box resolves through the import inside cli.main to model.Box, which
    # main reaches; a re-export of an unreached or a missing definition is
    # reported
    assert unreached_exports(str(tmp_path)) == ["model.gone", "model.orphan"]
