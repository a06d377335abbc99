import numpy as np
import pytest

from iss_parabolic import BoundarySignal, Field, Grid1D, SemilinearProblem


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
