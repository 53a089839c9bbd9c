"""Every module-level private name in ``src/shellsym`` has a use.

A private function, class or constant (one leading underscore) is not part
of the API, so one that nothing in the package reads is a dead path.  A use
is a load of the name, an attribute of that name or a ``from ... import`` of
it anywhere in the package, outside the name's own definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "shellsym"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def definitions(tree: ast.Module):
    """(name, node) of each private name that the module body binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in targets if is_private(name))


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names read in ``tree``, leaving out the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "cli.py" in trees and "_g17kernel.py" in trees
    used_in = {filename: used_names(tree) for filename, tree in trees.items()}
    unused = []
    for filename, tree in trees.items():
        elsewhere = set().union(*(used for other, used in used_in.items()
                                  if other != filename))
        for name, node in definitions(tree):
            if name not in elsewhere | used_names(tree, skip=node):
                unused.append(f"{filename}:{node.lineno} {name}")
    assert not unused


def test_the_check_sees_a_private_name_nothing_reads():
    tree = ast.parse("def _helper():\n    return _helper()\n\n"
                     "_TABLE = {}\n_USED = 1\n\ndef f():\n    return _USED\n")
    assert [name for name, _ in definitions(tree)] == ["_helper", "_TABLE", "_USED"]
    unused = [name for name, node in definitions(tree)
              if name not in used_names(tree, skip=node)]
    assert unused == ["_helper", "_TABLE"]
