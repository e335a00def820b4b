"""Every name the package defines is read somewhere in the package.

The rule: a top-level function, class or constant, or a non-dunder method, of
``src/heisim/*.py`` stays only if some code in ``src/heisim`` other than its
own definition loads it, as a ``Name``, an ``Attribute`` or an import alias.
``__init__.py`` is not a reader, so a re-export cannot keep a name alive.

Names are matched by spelling, not by binding. Blind spot: a name read only
by another unread name (a dead chain) counts as read, and so does a method
that shares its name with something read elsewhere.
"""

import ast
from collections import Counter
from pathlib import Path

import heisim

PACKAGE = Path(heisim.__file__).parent

ALLOWED = {
    # Traced by perfbench/worker.py's TRACED list, whose tests assert that
    # only their planted name is absent; it goes when that list drops it.
    "make_pvm_spectral",
    # The same list traces it; the oracle's steps apply gate parts, and
    # tests hold this dense form of a gate to its definition.
    "gate_matrix",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(node: ast.AST) -> Counter:
    """How often each name is loaded within ``node``."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            reads.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return reads


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and constant, and of
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    yield sub.id, node


def unread_names(package: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    reads = Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            reads += _reads(tree)
    unread = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if _dunder(name) or name in ALLOWED:
                continue
            own = _reads(node)[name] if path.name != "__init__.py" else 0
            if reads[name] - own <= 0:
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_defined_name_is_read():
    assert unread_names(PACKAGE) == []
