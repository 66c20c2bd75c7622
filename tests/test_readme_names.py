"""Every class name the README cites in backticks is one the code defines.

A backticked CamelCase name, or Name.attr, must resolve in a talentflow
module or be a Python builtin (as ValueError is), so that a class the code
renames or deletes does not live on in the prose. All-caps names such as
TALENTFLOW_OUT_DIR are not CamelCase and are not checked; fenced code
blocks are skipped.
"""

import builtins
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import talentflow

README = Path(__file__).resolve().parents[1] / "README.md"
# Standard-library names the README cites that are neither builtins nor
# talentflow's.
STDLIB_NAMES = {"FrozenInstanceError"}
NAME = re.compile(r"([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\.([A-Za-z_]\w*))?")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
MODULES = [builtins] + [
    importlib.import_module(f"talentflow.{info.name}")
    for info in pkgutil.iter_modules(talentflow.__path__)
]


def cited_names(text: str) -> list[tuple[str, str | None]]:
    """The (Name, attr or None) of each backticked CamelCase name, outside fences."""
    spans = SPAN.findall(FENCE.sub("", text))
    return [match.groups() for match in map(NAME.fullmatch, spans) if match]


def resolves(name: str, attr: str | None) -> bool:
    for module in MODULES:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if attr is None or hasattr(obj, attr):
            return True
        if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
            return True
    return False


def test_the_scan_reads_names_and_attributes_only():
    text = (
        "`HopGraph` and `GraphIndex.of`, not `YYYY-MM`, `RUSAGE_SELF` or\n"
        '`JobKey("a", "b")`.\n```python\n`Fenced`\n```\n'
    )
    assert cited_names(text) == [("HopGraph", None), ("GraphIndex", "of")]
    assert resolves("HopGraph", "nodes") and resolves("ValueError", None)
    assert not resolves("NoSuchClass", None) and not resolves("GraphIndex", "no_such_attr")


def test_every_name_the_readme_cites_resolves():
    names = cited_names(README.read_text(encoding="utf-8"))
    assert len(names) > 20
    unresolved = {
        ".".join(filter(None, cited))
        for cited in names
        if cited[0] not in STDLIB_NAMES and not resolves(*cited)
    }
    assert unresolved == set()
