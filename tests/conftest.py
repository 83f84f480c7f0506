import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spdelab.domain import DomainSpec, _laplacian, build_grid, solve_eigenpairs

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
    eig = solve_eigenpairs(grid, 200)
    return dom, grid, _laplacian(grid), eig


@pytest.fixture(scope="session")
def interval_48():
    dom = DomainSpec("interval", (np.pi,))
    grid = build_grid(dom, 48)
    eig = solve_eigenpairs(grid, 40)
    return dom, grid, _laplacian(grid), eig


@pytest.fixture(scope="session")
def rect_32():
    dom = DomainSpec("rectangle", (np.pi, np.pi))
    grid = build_grid(dom, 32)
    eig = solve_eigenpairs(grid, 60)
    return dom, grid, _laplacian(grid), eig
