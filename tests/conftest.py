import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iss_parabolic
from iss_parabolic import BoundarySignal, Field, Grid1D, SemilinearProblem

SRC = str(Path(iss_parabolic.__file__).resolve().parents[1])
# Fixed BLAS threading for pinned bits: one thread, the setting the benchmark runs under.
PINNED_BLAS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"), "1")


@pytest.fixture
def grid_small() -> Grid1D:
    return Grid1D(n_interior=49, dt=2e-4, t_final=0.2)


@pytest.fixture
def grid_medium() -> Grid1D:
    return Grid1D(n_interior=99, dt=2e-4, t_final=0.3)


def heat_problem(grid, initial_fn, d0=None, d1=None, a=1.0) -> SemilinearProblem:
    """Heat problem on ``grid`` with callable or constant boundary data."""
    d0 = BoundarySignal.zero() if d0 is None else d0
    d1 = BoundarySignal.zero() if d1 is None else d1
    return SemilinearProblem(
        a=a,
        initial=Field(initial_fn(grid.nodes), grid),
        boundary_left=d0,
        boundary_right=d1,
    )


def eigenfield(grid) -> Field:
    return Field(np.sin(np.pi * grid.nodes), grid)


def fresh_python(*args: str, env: dict[str, str] | None = None) -> str:
    """Standard output of ``python *args`` in a new interpreter that imports the package from this checkout.

    ``env`` adds to (or overrides) this process's environment.  A nonzero exit fails with the child's stderr.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *args], env={**os.environ, **(env or {}), "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()
