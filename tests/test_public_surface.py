"""Every module of the package exports only names it defines.

A name left in __all__ after its definition is gone breaks
`from zetawave.<module> import *` and every caller that looks it up.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zetawave

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(zetawave.__path__) if info.name != "__main__"
)


def test_modules_found():
    assert {"quad", "specfun", "waveform", "spectra", "verify", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"zetawave.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from zetawave.{name} import *", namespace)
    assert set(getattr(module, "__all__", [])) <= set(namespace)


def test_package_reexports_only_exported_names():
    # a name re-exported from zetawave/__init__.py but missing from its
    # module's __all__ is a surface no module declares
    tree = ast.parse(Path(zetawave.__file__).read_text())
    stray = [
        f"{node.module}.{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"zetawave.{node.module}").__all__
    ]
    assert stray == []
