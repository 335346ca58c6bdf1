"""The package's public surface: ``clonelab.__all__`` matches what
``clonelab/__init__.py`` imports, so a deleted or renamed name cannot
linger as a stale export."""

import ast
from pathlib import Path

import clonelab


def imported_public_names():
    tree = ast.parse(Path(clonelab.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")]


def test_every_exported_name_resolves_once():
    assert len(set(clonelab.__all__)) == len(clonelab.__all__)
    for name in clonelab.__all__:
        assert hasattr(clonelab, name), name


def test_every_imported_public_name_is_exported():
    assert sorted(imported_public_names()) == sorted(clonelab.__all__)
