"""Every definition in the package has a caller in the package.

A definition that only the tests call is a second copy of a formula or a
checker that ``anisocheck all`` never runs, so it cannot fail there.  The
scan reads ``src/anisocheck/*.py`` with :mod:`ast`: it collects top-level
functions, classes and assignments and the public methods of top-level
classes, and counts every other mention of each name in the package (as a
variable, an attribute or an import).  A name with no mention outside its
own definition fails, unless ``ALLOWED`` keeps it and says why.
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
    "variation.reduced_stability_check":
        "the stability-to-spectrum chain of ROADMAP item 3 will call it",
}


def _definitions(module, tree):
    """(qualified name, bare name, defining node) of each scanned definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield f"{module}.{leaf.id}", leaf.id, node


def _mentions(node):
    """Counter of the names that ``node`` and its children mention."""
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
    total = sum((_mentions(tree) for tree in trees.values()), Counter())
    return sorted(qual for module, tree in trees.items()
                  for qual, name, node in _definitions(module, tree)
                  if total[name] - _mentions(node)[name] == 0)


def test_every_definition_has_a_caller_in_the_package():
    found = uncalled_definitions(Path(anisocheck.__file__).parent)
    assert found == sorted(ALLOWED)


def test_scan_sees_a_definition_without_a_caller(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\n"
                                   "def unused():\n    return used()\n\n\n"
                                   "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                                   "class Box:\n    def size(self):\n        return 0\n\n"
                                   "    def _hidden(self):\n        return 1\n\n\n"
                                   "LIMIT = 3\n")
    (tmp_path / "b.py").write_text("from .a import Box, LIMIT\n")
    assert uncalled_definitions(tmp_path) == ["a.Box.size", "a.recursive", "a.unused"]
