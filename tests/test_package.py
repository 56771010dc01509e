import ast
from pathlib import Path

import hfhat


def test_every_export_resolves():
    # a star import raises on a name in __all__ that the package lacks
    namespace: dict = {}
    exec("from hfhat import *", namespace)
    for name in hfhat.__all__:
        assert namespace[name] is getattr(hfhat, name)


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, a name listed in its
    ``__all__`` counting as read; ``__future__`` imports are directives."""
    tree = ast.parse(source)
    imported: dict = {}  # bound name -> line of its import
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    src = Path(hfhat.__file__).parent
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_unused_import_scan_sees_a_stray_import():
    source = "from __future__ import annotations\nfrom operator import add, sub\n\nx = add\n"
    assert _unused_imports(source) == ["sub (line 2)"]
    assert _unused_imports("import os.path\n__all__ = ['os']\n") == []
