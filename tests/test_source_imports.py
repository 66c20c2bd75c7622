"""Every name a talentflow module imports is used in that module.

No linter ships with the test dependencies, so this AST scan stands in for
an unused-import check. The package's __init__.py imports only to re-export
and is exempt.
"""

import ast
from pathlib import Path

import pytest

import talentflow

MODULES = sorted(
    path for path in Path(talentflow.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for line, name in sorted((line, name) for name, line in imported.items())
        if name not in used
    ]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom x import a, b\nnp.f(a)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
