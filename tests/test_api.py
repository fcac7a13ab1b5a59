"""Every exported name resolves, so a deleted function cannot leave a dangling export."""

import ast
import importlib
import inspect

import pytest

import ghd

MODULES = ["bits", "runtime", "sampling", "sketch", "covering", "streaming", "experiments", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"ghd.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(ghd))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        source = importlib.import_module(f"ghd.{module}")
        assert attr in source.__all__, (module, attr)
        assert getattr(ghd, attr) is getattr(source, attr)
