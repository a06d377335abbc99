"""The four LAPACK/BLAS routines the package calls, from scipy's compiled modules.

``import scipy.linalg`` costs ~0.2 s at start-up (scipy's array-API layer,
``numpy.f2py``, ``numpy.testing``) to reach ``dpttrf``, ``dpttrs``,
``dtrtri`` and ``dtrmm``.  This module loads only the extension modules that
define them, ``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, and leaves
``sys.modules`` without them, so a later ``import scipy.linalg`` loads and binds
them itself.  Either way the names below are the very objects
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` export, in either import order.
"""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy


def _extension(name: str):
    """The compiled module ``scipy.linalg.<name>``, loaded without importing ``scipy.linalg``."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    finder = FileFinder(str(Path(scipy.__path__[0], "linalg")), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(full)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} ships no compiled {full}", name=full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # Loading registers the module under its real name.  Left there, a later ``import scipy.linalg`` would find
    # it and never bind ``scipy.linalg.<name>``; loaded again then, it carries this load's function objects.
    sys.modules.pop(full, None)
    return module


_flapack = _extension("_flapack")
dpttrf, dpttrs, dtrtri = _flapack.dpttrf, _flapack.dpttrs, _flapack.dtrtri
dtrmm = _extension("_fblas").dtrmm
