"""Linter rules without a linter: every package module and test file uses each name it imports, and only
``_lapack`` imports scipy."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "iss_parabolic"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_a_name_named_only_in_a_docstring():
    source = '"""Uses ``BLOCK_BYTES``."""\nimport os.path\nfrom .grid import BLOCK_BYTES, Grid1D\nGrid1D(os.sep)\n'
    assert _unused_imports(source) == ["BLOCK_BYTES"]


# The package's __init__ imports names to re-export them.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _scipy_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [name for name in modules if name == "scipy" or name.startswith("scipy.")]


def test_finds_scipy_imports_at_any_depth():
    source = "import scipyx\nfrom .scipy import a\ndef f():\n    from scipy.linalg import solve\n    import scipy\n"
    assert _scipy_imports(source) == ["scipy.linalg", "scipy"]


# Importing scipy.linalg costs ~0.2 s of every start-up; _lapack loads the compiled routines without it.
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_lapack.py"), ids=lambda p: p.name)
def test_only_the_lapack_loader_imports_scipy(path):
    assert _scipy_imports(path.read_text()) == []
