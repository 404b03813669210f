"""The names the benchmark tracer wraps must exist on the package.

perfbench/tracer.py replaces module attributes by name at run time, so a
rename or a removed import in the package breaks traced runs without
failing any other test.  Its install() plan is read here as source, with
ast: the tracer is neither imported nor installed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _wrapped_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text())
    install = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    # local aliases such as `spectra = zetawave.spectra`
    modules = {
        target.id: _dotted(node.value)
        for node in ast.walk(install) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and _dotted(node.value).startswith("zetawave.")
    }
    pairs = []
    for node in ast.walk(install):
        # plan entries: (module, "attr", "span name", counter)
        if isinstance(node, ast.Tuple) and len(node.elts) == 4:
            module, attr = node.elts[0], node.elts[1]
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                name = _dotted(module)
                pairs.append((modules.get(name, name), attr.value))
        # attributes patched or read directly, e.g. spectra._finite_series_tools
        elif isinstance(node, ast.Attribute) and _dotted(node.value) in modules:
            pairs.append((modules[_dotted(node.value)], node.attr))
    return pairs


def test_every_traced_name_resolves():
    if not TRACER.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    pairs = _wrapped_names()
    assert len(pairs) > 40  # the plan was found and read
    missing = [
        f"{module}.{attr}" for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
