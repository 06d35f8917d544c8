"""Every name a module of the package imports is used in that module, and every
private module-level name of the package is read by one of its modules."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dconn"


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing in it reads.

    A name counts as read where it is loaded (``ast.Name``, the base of an
    attribute chain included) or listed in ``__all__``; ``__future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from a import b, c as d\n__all__ = ['d']\nprint(os.sep)\n")
    assert unused_imports(source) == ["line 2: math", "line 4: b"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names of the modules in ``sources`` (module name
    to source) that no module reads.

    A private name starts with one underscore and is bound at the top level
    of its module by a def, a class or an assignment.  It counts as read
    where any module loads it (``ast.Name``) or reads it as an attribute
    (``ast.Attribute``, as in ``lg._norm``).
    """
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module} line {line}: {name}" for module, line, name in defined if name not in read]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_reported():
    sources = {"a.py": "_LIMIT = 1\n_seen: set = set()\ndef _helper():\n    return _LIMIT\n"
                       "class _Orphan:\n    pass\n",
               "b.py": "from .a import _helper\n\ndef run():\n    return _helper()\n",
               "c.py": "import a\n__all__ = []\nprint(a._seen)\n"}
    assert unread_private_names(sources) == ["a.py line 5: _Orphan"]
