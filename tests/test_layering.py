"""The package's layering: the core modules import no frontend."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "treebelief"
CORE = ("errors", "linalg", "tree", "exact", "contract", "dynamic")
FRONTENDS = ("jointree", "polytree", "protein", "formats", "bench", "cli")


def package_imports(source: str) -> set[str]:
    """Names of the treebelief modules that Python source imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("treebelief"):
                module = module[len("treebelief"):].lstrip(".")
            elif node.level != 1:
                continue
            if module:
                out.add(module.split(".")[0])
            else:  # from . import a, b
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("treebelief."):
                    out.add(alias.name.split(".")[1])
    return out


def test_reader_sees_every_import_form():
    source = (
        "from .jointree import FactoredMatrix\n"
        "from . import linalg, polytree\n"
        "from treebelief.bench import make_random\n"
        "import treebelief.cli\n"
        "import numpy as np\n"
        "from numpy import ndarray\n"
    )
    assert package_imports(source) == {"jointree", "linalg", "polytree", "bench", "cli"}


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(CORE) | set(FRONTENDS)


@pytest.mark.parametrize("module", CORE)
def test_core_imports_no_frontend(module):
    imported = package_imports((SRC / f"{module}.py").read_text())
    assert not imported & set(FRONTENDS)


def readme_layout() -> list[str]:
    """The modules that README's package-layout block names, in order."""
    text = (SRC.parents[1] / "README.md").read_text()
    block = text.split("## Package layout", 1)[1].split("```")[1]
    return re.findall(r"^  (\w+)\.py ", block, re.MULTILINE)


def test_readme_layout_names_every_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    names = readme_layout()
    assert len(names) == len(set(names))
    assert set(names) == modules
