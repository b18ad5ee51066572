"""Every name that a module of the package imports is used in it."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sct"

# Kept only because perfbench/test_perfbench.py::
# test_tracer_patches_every_import_site_and_restores_it asserts them as
# import sites of the traced functions.
TRACER_SITES = {
    "cli": {"z2_quartic"},
    "fluctuations": {"jacobi_sn_cn_dn"},
    "paths": {"jacobi_sn_cn_dn"},
    "thermo": {"jacobi_sn_cn_dn"},
}


def unused_imports(source: str) -> set:
    """The names that source imports and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.f(e)\n"
    assert unused_imports(source) == {"os", "c"}


# __init__ imports the package's public names for its users
@pytest.mark.parametrize("module", sorted(path.stem for path in SOURCE.glob("*.py")
                                          if path.stem != "__init__"))
def test_every_import_is_used(module):
    unused = unused_imports((SOURCE / f"{module}.py").read_text())
    assert unused == TRACER_SITES.get(module, set())
