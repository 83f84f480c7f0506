import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spdelab.domain import DomainSpec, build_grid, build_laplacian, solve_eigenpairs

settings.register_profile(
    "spdelab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("spdelab")


@pytest.fixture(scope="session")
def interval_512():
    dom = DomainSpec("interval", (np.pi,))
    grid = build_grid(dom, 512)
    op = build_laplacian(dom, grid)
    eig = solve_eigenpairs(grid, 200)
    return dom, grid, op, eig


@pytest.fixture(scope="session")
def interval_48():
    dom = DomainSpec("interval", (np.pi,))
    grid = build_grid(dom, 48)
    op = build_laplacian(dom, grid)
    eig = solve_eigenpairs(grid, 40)
    return dom, grid, op, eig


@pytest.fixture(scope="session")
def rect_32():
    dom = DomainSpec("rectangle", (np.pi, np.pi))
    grid = build_grid(dom, 32)
    op = build_laplacian(dom, grid)
    eig = solve_eigenpairs(grid, 60)
    return dom, grid, op, eig
