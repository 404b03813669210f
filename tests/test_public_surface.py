"""Every module of the package exports only names it defines.

A name left in __all__ after its definition is gone breaks
`from zetawave.<module> import *` and every caller that looks it up.
"""

from __future__ import annotations

import importlib
import pkgutil

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
