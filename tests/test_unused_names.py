"""Every name the package defines is reached from the command line.

The rule: a top-level function, class or constant, or a non-dunder method, of
``src/heisim/*.py`` stays only if code reached from a root loads it, as a
``Name``, an ``Attribute`` or an import alias. The roots are ``cli.main``,
every dunder method, the names in ``ALLOWED`` and module-level code other
than definitions and imports. Reaching a name reaches the code of every
definition spelt that way, and that code reaches what it loads in turn; a
class's code is its body without its methods. An import is no root, so a
re-export in ``__init__.py`` cannot keep a name alive.

So a name that only unread names load counts as unread: the chain goes
together. Names are matched by spelling, not by binding. Blind spot: a
method that shares its name with something reached counts as reached.
"""

import ast
import shutil
from pathlib import Path

import heisim

PACKAGE = Path(heisim.__file__).parent

ALLOWED = {
    # Traced by perfbench/worker.py's TRACED list, whose tests assert that
    # only their planted name is absent; it goes when that list drops it.
    "make_pvm_spectral",
    # The same list traces it; no run calls it. It scatters one gate's
    # parts, from the builder the oracle's runs read, into the dense
    # matrix that tests hold to the gate's definition.
    "gate_matrix",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(nodes) -> set:
    """The names loaded within ``nodes``."""
    reads = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                reads.add(sub.id)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.ctx, ast.Load)):
                reads.add(sub.attr)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                reads.update(alias.name.rpartition(".")[2]
                             for alias in sub.names)
    return reads


def _definitions(tree: ast.Module):
    """(name, code) of each top-level function, class and constant, and of
    each method; a class's code leaves out its methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, [node]
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body
                       if isinstance(item, ast.FunctionDef)]
            yield node.name, [*node.decorator_list, *node.bases,
                              *node.keywords,
                              *(item for item in node.body
                                if item not in methods)]
            for item in methods:
                yield item.name, [item]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, [node]


def _module_code(tree: ast.Module) -> list:
    """Top-level statements that run on import and define nothing."""
    return [node for node in tree.body if not isinstance(
        node, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign,
               ast.Import, ast.ImportFrom))]


def unread_names(package: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    code = {}  # spelling -> code of every definition spelt that way
    pending = [*ALLOWED]  # names reached whose code is still to be read
    for path, tree in trees.items():
        pending += _reads(_module_code(tree))
        for name, nodes in _definitions(tree):
            code.setdefault(name, []).extend(nodes)
            if _dunder(name) or (path.stem, name) == ("cli", "main"):
                pending.append(name)
    reached = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += _reads(code.get(name, ()))
    return [f"{path.stem}.{name}" for path, tree in trees.items()
            for name, _ in _definitions(tree) if name not in reached]


def test_every_defined_name_is_read():
    assert unread_names(PACKAGE) == []


def test_a_name_read_only_by_unread_names_is_unread(tmp_path):
    package = tmp_path / "heisim"
    shutil.copytree(PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "network.py", "a", encoding="utf-8") as module:
        module.write("\n\ndef _planted_helper():\n    return 1\n\n\n"
                     "def planted():\n    return _planted_helper()\n")
    assert unread_names(package) == ["network._planted_helper",
                                     "network.planted"]
