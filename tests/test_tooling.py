"""Checks that read the source with ``ast`` instead of running it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "cdt_ising").glob("*.py"))
READERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def private_definitions(tree: ast.Module):
    """The private names a module defines at its top level, by ``def``,
    ``class`` or assignment; dunders are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            unpacked = [n for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
            names = [n.id for n in unpacked if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def reads(tree: ast.Module, module: str):
    """(module, name) for each name the module ``module`` loads, imports or
    reads as an attribute of a module; the module is None where the object
    is not a plain name.  A name in a docstring or a comment is not read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield module, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield (node.value.id if isinstance(node.value, ast.Name) else None), node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from ((node.module.rpartition(".")[2], alias.name) for alias in node.names)


def test_every_private_name_has_a_reader():
    # a private helper that only tests call is code that nothing needs
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    read = {pair for path, tree in trees.items() for pair in reads(tree, path.stem)}
    unread = [f"{path.stem}.{name}" for path in LIBRARY for name in private_definitions(trees[path])
              if (path.stem, name) not in read and (None, name) not in read]
    assert unread == []
