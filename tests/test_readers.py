"""Every top-level function and class of the package has a reader: another
module of the package, a line of its own module outside its definition, the
benchmark (perfbench/*.py) or the acceptance checks. Its own unit tests and
the package's exports do not count, so code that no command, check or
workload reaches fails here."""

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
