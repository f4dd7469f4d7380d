"""Every top-level function and class of the package has a reader: another
module of the package, a line of its own module outside its definition, the
benchmark (perfbench/*.py) or the acceptance checks. Its own unit tests and
the package's exports do not count, so code that no command, check or
workload reaches fails here. The same holds for the attributes of the
package's classes: each dataclass field, each attribute a method sets on
self and each property."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pintbounds"

# names kept without such a reader, and why
ALLOWED = {
    "itap_constant": "the inverse-form TAP (ITAP) is one of the paper's "
                     "bounds; only its own tests read it",
}


def _reads(tree, skip=None):
    """The names a module reads: its Name ids, Attribute attributes and
    string constants (perfbench's span table names functions by string),
    leaving out those within the node skip."""
    lines = range(skip.lineno, skip.end_lineno + 1) if skip else ()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if node.lineno not in lines:
            yield name


def _decorators(node):
    """The names of the decorators of node, bare, called or attributes."""
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        yield dec.attr if isinstance(dec, ast.Attribute) else dec.id


def _attributes(tree):
    """(class, attribute, line) of each dataclass field, each attribute set
    on self in a method and each property of a top-level class of tree."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = "dataclass" in _decorators(cls)
        for node in cls.body:
            if (fields and isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                yield cls.name, node.target.id, node.lineno
            if not isinstance(node, ast.FunctionDef):
                continue
            if {"property", "cached_property"} & set(_decorators(node)):
                yield cls.name, node.name, node.lineno
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    yield cls.name, sub.attr, sub.lineno


def _loads(tree):
    """(name, line) of each attribute load and string constant of tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_top_level_def_has_a_reader():
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    outside = {name for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                                 ROOT / "tests" / "test_acceptance.py"]
               for name in _reads(ast.parse(path.read_text()))}
    reads = {module: set(_reads(tree)) for module, tree in modules.items()}
    unread = set()
    for module, tree in modules.items():
        others = outside.union(*(r for m, r in reads.items() if m != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in others
                    and node.name not in set(_reads(tree, node))):
                unread.add(node.name)
    assert sorted(unread - set(ALLOWED)) == []
    # a name that gains a reader leaves the list
    assert set(ALLOWED) <= unread


def test_every_class_attribute_has_a_reader():
    # read by an attribute load or a string constant (getattr, perfbench's
    # span table) on a line of the package other than the one that defines
    # it, or in the benchmark or the acceptance checks
    modules = {path: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    outside = {name for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                                 ROOT / "tests" / "test_acceptance.py"]
               for name, _ in _loads(ast.parse(path.read_text()))}
    sites = {}
    for path, tree in modules.items():
        for name, line in _loads(tree):
            sites.setdefault(name, set()).add((path, line))
    unread = {f"{cls}.{attr}" for path, tree in modules.items()
              for cls, attr, line in _attributes(tree)
              if attr not in outside
              and not sites.get(attr, set()) - {(path, line)}}
    assert sorted(unread) == []
