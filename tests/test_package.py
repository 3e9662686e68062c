import ast
from pathlib import Path

import smoothcore as sc


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from smoothcore import *` with an AttributeError
    assert len(set(sc.__all__)) == len(sc.__all__)
    missing = [name for name in sc.__all__ if not hasattr(sc, name)]
    assert missing == []
    namespace = {}
    exec("from smoothcore import *", namespace)
    assert set(sc.__all__) <= namespace.keys()


def _private_names(tree):
    """The module-level private names a module defines, dunders aside,
    each with its defining node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree, skip=None):
    """Every name a module reads, outside the node ``skip``."""
    for node in tree.body:
        if node is skip:
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                yield inner.id
            elif isinstance(inner, ast.Attribute):
                yield inner.attr


def test_every_private_name_has_a_reader():
    # a private helper whose last caller a refactor removed is dead code;
    # an import of it alone does not count as a reader
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(sc.__file__).parent.glob("*.py"))
    }
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in _private_names(tree)
        if not any(
            name in _references(other_tree, definition if other == module else None)
            for other, other_tree in trees.items()
        )
    ]
    assert unread == []
