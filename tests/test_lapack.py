"""The package's LAPACK/BLAS routines are scipy's own objects, loaded without ``scipy.linalg``."""

import pytest
import scipy.linalg.blas
import scipy.linalg.lapack

from conftest import fresh_python
from iss_parabolic import _lapack, backstepping, solver

SAME_OBJECTS = (
    "import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack, scipy.linalg as linalg\n"
    "from iss_parabolic import backstepping as b, solver as s\n"
    "print(s.dpttrf is lapack.dpttrf, s.dpttrs is lapack.dpttrs, b.dtrtri is lapack.dtrtri, b.dtrmm is blas.dtrmm,\n"
    "      s.dpttrs is linalg._flapack.dpttrs, b.dtrmm is linalg._fblas.dtrmm)"
)


def test_cli_start_up_leaves_heavy_scipy_modules_unloaded():
    # In-process, other test modules have imported them already; only a fresh process sees a regression.
    # Importing the CLI imports the package, so this covers a bare package import too.
    unwanted = ("scipy.integrate", "scipy.linalg", "scipy._lib._array_api")
    assert fresh_python("-c", f"import iss_parabolic.cli, sys; print([m for m in {unwanted!r} if m in sys.modules])") == "[]"


def test_routines_are_scipys_own_objects():
    assert solver.dpttrf is scipy.linalg.lapack.dpttrf
    assert solver.dpttrs is scipy.linalg.lapack.dpttrs
    assert backstepping.dtrtri is scipy.linalg.lapack.dtrtri
    assert backstepping.dtrmm is scipy.linalg.blas.dtrmm


@pytest.mark.parametrize("first", ["scipy.linalg", "iss_parabolic"])
def test_routines_are_scipys_own_objects_in_either_import_order(first):
    # scipy.linalg must also bind its own _flapack and _fblas, whichever of the two loaded them first.
    assert fresh_python("-c", f"import {first}\n{SAME_OBJECTS}") == "True True True True True True"


def test_missing_extension_raises_naming_it():
    with pytest.raises(ImportError, match=r"scipy \S+ ships no compiled scipy\.linalg\._no_such_module") as info:
        _lapack._extension("_no_such_module")
    assert info.value.name == "scipy.linalg._no_such_module"
