"""Module layering: each module imports only from the layers below its own.

The imports are read from the source with ast, so this test imports no
library code and also sees imports made inside functions.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polycbf"

# Lowest layer first.
LAYERS = (
    ("errors", "csvtext"),
    ("barrier", "dynamics"),
    ("controller",),
    ("learner",),
    ("scenario",),
    ("adaptive",),
    ("cli",),
    ("__init__", "__main__"),
)
RANK = {module: k for k, layer in enumerate(LAYERS) for module in layer}


def package_imports(source: str) -> set:
    """Package modules that a source imports anywhere, relatively or as polycbf.*."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("polycbf."):
                    continue
                module = module[len("polycbf."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("polycbf."))
    return found


def test_finds_imports_inside_functions():
    source = "import math\ndef f():\n    from .adaptive import run\n    from . import cli\n"
    assert package_imports(source) == {"adaptive", "cli"}


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(RANK)


@pytest.mark.parametrize("module", sorted(RANK))
def test_module_imports_only_lower_layers(module):
    imported = package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    upward = sorted(m for m in imported if RANK.get(m, len(LAYERS)) >= RANK[module])
    assert not upward, f"{module} imports {upward}, which are not below it"
