"""Every name the package exports is used outside the tests.

A public function that only its own tests call is dead API: the scheme's one
path does not need it, yet it must be kept working.  This guard fails when
a name imported by ``vccompress/__init__.py`` has no reference in ``src/``,
``demos/`` or ``perfbench/``.  Its own ``def`` or ``class`` line, import
lines and ``__all__`` entries are not references, and neither is a load of
a name that some function in the same file binds as a local variable or a
parameter.

The same holds one level down: a public method or property defined in the
body of an exported class must be read as an attribute (``x.name``)
somewhere in those directories.  Attributes are matched by name alone, so a
method counts as used when any object's attribute of that name is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported_names():
    tree = ast.parse((ROOT / "src" / "vccompress" / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(path):
    tree = ast.parse(path.read_text())
    local = set()
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(scope):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                    local.add(node.id)
                elif isinstance(node, ast.arg):
                    local.add(node.arg)
    loads, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return (loads - local) | attributes


def referenced_outside_the_tests():
    referenced = set()
    for directory in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            referenced |= referenced_names(path)
    return referenced


def exported_class_members():
    """(class, member) for every public method and property defined in the
    body of a class the package exports."""
    exported = exported_names()
    members = set()
    for path in sorted((ROOT / "src" / "vccompress").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                members |= {
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                }
    return members


def test_every_export_is_referenced_outside_the_tests():
    assert sorted(exported_names() - referenced_outside_the_tests()) == []


def test_every_public_member_of_an_export_is_referenced_outside_the_tests():
    members = exported_class_members()
    assert ("ProbabilityVector", "weights") in members  # the walk sees the classes
    referenced = referenced_outside_the_tests()
    assert sorted(m for m in members if m[1] not in referenced) == []
