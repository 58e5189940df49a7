"""Every definition in the package has a caller in the package.

A definition that only the tests call is a second copy of a formula or a
checker that ``anisocheck all`` never runs, so it cannot fail there.  The
scan reads ``src/anisocheck/*.py`` with :mod:`ast`: it collects top-level
functions, classes and assignments and the public methods of top-level
classes, and counts the mentions of each outside its own definition.

A top-level name counts only where it refers to that module: read as a
bare name in its own module, as ``<alias>.name`` where ``<alias>`` is an
import of its module, or imported by ``from <its module> import name``.
A field or keyword of the same text, or an attribute of any other
object, is not a mention.  A method counts every attribute or name of
its text, since the scan cannot tell which class an object has.  A name
with no mention fails, unless ``ALLOWED`` keeps it and says why.
"""

import ast
from collections import Counter
from pathlib import Path

import anisocheck

#: names kept without a caller in the package, each for a stated contract
ALLOWED = {
    "geometry.geometry_from_positions":
        "the tests' numeric route against sample_chart, and a span that "
        "perfbench/tracer.py wraps",
    "variation.__getattr__":
        "Python calls it for variation.spla, which perfbench/tracer.py wraps",
}


def _definitions(module, tree):
    """(qualified name, bare name, defining node, is a method) of each
    scanned definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield f"{module}.{leaf.id}", leaf.id, node, False


def _source(node):
    """The package module that the relative ``from ... import`` node
    ``node`` reads (the package imports itself only so), else None."""
    if node.level == 0:
        return None
    return node.module or "__init__"


def _module_aliases(tree, modules):
    """Local names that ``tree`` binds to package modules, mapped to them."""
    return {a.asname or a.name: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _source(node) == "__init__"
            for a in node.names if a.name in modules}


def _references(node, module, aliases):
    """Counter of the (module, name) pairs that ``node`` and its children
    refer to, by the rule of the module docstring."""
    out = Counter()
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
            out[module, leaf.id] += 1
        elif (isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name)
                and leaf.value.id in aliases):
            out[aliases[leaf.value.id], leaf.attr] += 1
        elif isinstance(leaf, ast.ImportFrom):
            source = _source(leaf)
            for a in leaf.names:
                out[source, a.name] += 1
    return out


def _mentions(node):
    """Counter of the names that ``node`` and its children mention as a
    name, an attribute or an import, whatever they refer to."""
    out = Counter()
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name):
            out[leaf.id] += 1
        elif isinstance(leaf, ast.Attribute):
            out[leaf.attr] += 1
        elif isinstance(leaf, ast.alias):
            out[leaf.name.rsplit(".", 1)[-1]] += 1
    return out


def uncalled_definitions(package_dir):
    """Qualified names in ``package_dir`` mentioned only where defined."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(package_dir).glob("*.py"))}
    aliases = {module: _module_aliases(tree, trees) for module, tree in trees.items()}
    refs = sum((_references(tree, module, aliases[module])
                for module, tree in trees.items()), Counter())
    texts = sum((_mentions(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qual, name, node, method in _definitions(module, tree):
            if method:
                uses = texts[name] - _mentions(node)[name]
            else:
                own = _references(node, module, aliases[module])
                uses = refs[module, name] - own[module, name]
            if uses == 0:
                found.append(qual)
    return sorted(found)


def test_every_definition_has_a_caller_in_the_package():
    found = uncalled_definitions(Path(anisocheck.__file__).parent)
    assert found == sorted(ALLOWED)


def test_scan_sees_a_definition_without_a_caller(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\n"
                                   "def unused():\n    return used()\n\n\n"
                                   "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                                   "class Box:\n    def size(self):\n        return 0\n\n"
                                   "    def _hidden(self):\n        return 1\n\n\n"
                                   "LIMIT = 3\n\n\n"
                                   "def ratio():\n    return 2\n\n\n"
                                   "class Report:\n    ratio: float\n\n\n"
                                   "def aliased():\n    return 3\n")
    (tmp_path / "b.py").write_text("from .a import Box, LIMIT\n"
                                   "from . import a as mod\n\n\n"
                                   "def read(rep):\n    return (mod.aliased() + rep.ratio\n"
                                   "            + mod.Report(ratio=1))\n")
    assert uncalled_definitions(tmp_path) == ["a.Box.size", "a.ratio", "a.recursive",
                                              "a.unused", "b.read"]
