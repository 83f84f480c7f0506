import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

from spdelab.domain import DomainSpec, build_grid, solve_eigenpairs

settings.register_profile(
    "spdelab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("spdelab")


def _laplacian(grid):
    """Dirichlet Laplacian (negative definite) of the grid, assembled as a
    sparse matrix: the reference the library's closed forms are checked
    against.

    1D gives the tridiagonal second-difference stencil (-2, 1)/h^2; 2D the
    tensor-product five-point stencil ``kron(T1, I) + kron(I, T2)``.
    """
    def stencil(h):
        off = np.full(grid.n - 1, 1.0 / h**2)
        return sp.diags([off, np.full(grid.n, -2.0 / h**2), off], (-1, 0, 1), format="csr")

    blocks = [stencil(h) for h in grid.h]
    if len(blocks) == 1:
        return blocks[0]
    eye = sp.identity(grid.n, format="csr")
    return sp.kron(blocks[0], eye, format="csr") + sp.kron(eye, blocks[1], format="csr")


def _heat_semigroup(f, t, eig):
    """The heat semigroup through the retained basis of eig,
    sum_k e^{-lam_k t} <f, phi_k> phi_k: the reference the sup-norm series
    and the mild residual are checked against."""
    return eig.modes @ (np.exp(-eig.eigenvalues * t) * eig.project(f))


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
