"""Linter rules without a linter: every package module and test file uses each name it imports, only
``_lapack`` imports scipy, the stepping loop of ``solver._march`` passes no keyword, reads no attribute of
``np`` or ``math`` and reads no slice, and no public function or class is there for the unit tests alone."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "iss_parabolic"
PERFBENCH = TESTS.parent / "perfbench"


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


def _per_step_lookups(source: str, function: str) -> list[str]:
    """Keyword arguments (f2py and the ufuncs parse them on every call), reads of ``np.`` or ``math.``
    attributes and slice reads (each builds a view) inside the ``for`` statements of ``function``, as
    ``"<line>: <what>"``.  A slice store such as ``rhs[:] = out`` builds no view and is allowed."""
    tree = ast.parse(source)
    (func,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function]
    loops = [node for node in ast.walk(func) if isinstance(node, ast.For)]
    assert loops, f"{function} has no for statement"
    found = set()
    for node in (inner for loop in loops for inner in ast.walk(loop)):
        if isinstance(node, ast.Call) and node.keywords:
            found.add(f"{node.lineno}: keyword argument")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "math"):
            found.add(f"{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _has_slice(node.slice):
            found.add(f"{node.lineno}: slice read")
    return sorted(found)


def _has_slice(index: ast.expr) -> bool:
    return isinstance(index, ast.Slice) or (isinstance(index, ast.Tuple) and any(map(_has_slice, index.elts)))


def test_finds_keywords_and_module_attributes_in_a_loop():
    source = (
        "def _march(x, f):\n"
        "    add = np.add\n"
        "    for m in range(3):\n"
        "        np.add(x, x, out=x)\n"
        "        f(x, **{'a': 1}) or math.isfinite(x.item(0))\n"
        "        add(x, x, x)\n"
        "def other(x):\n"
        "    for m in range(3):\n"
        "        np.add(x, x, out=x)\n"
    )
    assert _per_step_lookups(source, "_march") == ["4: keyword argument", "4: np.add", "5: keyword argument", "5: math.isfinite"]


def test_finds_slice_reads_in_a_loop_but_not_slice_stores():
    source = (
        "def _march(data, x, rhs, out):\n"
        "    ahead = data[:-1, 2:]\n"
        "    for m in range(3):\n"
        "        x = data[m]\n"
        "        f(x[2:], x[:-2])\n"
        "        g(data[m, 1:-1])\n"
        "        rhs[:] = out\n"
        "        data[m + 1, 0] = x[0]\n"
    )
    assert _per_step_lookups(source, "_march") == ["5: slice read", "6: slice read"]


# At n = 63 a heat step is mostly interpreter work around one LAPACK call; the loop binds its callables once
# and zips the row views it reads.
def test_march_loop_passes_no_keywords_and_reads_no_module_attributes():
    assert _per_step_lookups((PACKAGE / "solver.py").read_text(), "_march") == []


def _test_only_names(package: list[str], users: list[str]) -> set[str]:
    """Public module-level functions and classes defined in the sources ``package`` whose name no source in
    ``users`` reads as a name or an attribute."""
    defined = {node.name for source in package for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    used = set()
    for node in (node for source in users for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return defined - used


def test_finds_public_definitions_no_user_names():
    package = ["def f():\n    return g\ndef g(): pass\nclass C: pass\ndef tested(): pass\ndef _p(): pass\n"]
    users = package + ['"""Calls ``tested``."""\nimport m\nm.C()\nSPANS = {"f": "f"}\n']
    assert _test_only_names(package, users) == {"f", "tested"}


# Public names no package module, benchmark script or acceptance test reads, each kept for a reason.
TEST_ONLY = {
    "apply_transform": "perfbench/tracing.py SPANS wraps it by name (ROADMAP items 11 and 12)",
    "norm_weighted_sup": "perfbench/tracing.py SPANS wraps it by name (ROADMAP items 11 and 12)",
    "combine_bounds": "the paper's constant-input reduction, awaiting its executable check (ROADMAP item 6)",
}


def test_public_names_the_unit_tests_alone_read_are_the_listed_ones():
    package = sorted(PACKAGE.glob("*.py"))
    users = [p for p in package if p.name != "__init__.py"] + sorted(PERFBENCH.glob("*.py"))
    users.append(TESTS / "test_acceptance.py")
    assert _test_only_names([p.read_text() for p in package], [p.read_text() for p in users]) == set(TEST_ONLY)
