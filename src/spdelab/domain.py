"""Dirichlet Laplacian on an interval or rectangle: grids, eigenpairs, heat semigroup.

Everything downstream (mass pipeline, certificates, trajectory integration)
consumes the objects built here, and each derives what it needs from the
grid: the eigenpairs have a closed form, and the sparse matrix that only the
integrator factors is assembled from the grid by ``_laplacian``. Conventions:

* only interior nodes are stored; the zero boundary values are implicit;
* quadrature is the trapezoidal rule restricted to functions vanishing on the
  boundary, which makes every interior weight equal to the mesh cell volume
  and keeps the discrete pairing ``<f, g> = sum(w * f * g)`` exactly symmetric
  under the discrete Laplacian;
* ``psi`` denotes the principal eigenfunction normalized to unit discrete
  integral, while the column ``modes[:, 0]`` is the same mode normalized in
  the weighted L2 sense. The kernel-ratio report needs the latter.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, NumericalFailure, PreconditionFailure

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

MIN_POINTS_PER_AXIS = 8
# bytes of semigroup fields per block in sup_norm_decay: npoints floats per
# time, so a block of times stays cache-sized whatever the grid
SUP_NORM_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned spatial domain with zero boundary values.

    Parameters
    ----------
    kind : {"interval", "rectangle"}
        Shape of the domain.
    lengths : tuple of float
        ``(L,)`` for an interval, ``(L1, L2)`` for a rectangle. All positive.
    """

    kind: str
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        lengths = tuple(float(L) for L in self.lengths)
        expected = 1 if self.kind == "interval" else 2
        if len(lengths) != expected:
            raise ConfigurationError(
                f"{self.kind} needs {expected} length(s), got {len(lengths)}"
            )
        if any(L <= 0 or not math.isfinite(L) for L in lengths):
            raise ConfigurationError(f"lengths must be positive, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def dimension(self) -> int:
        return len(self.lengths)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Interior tensor grid with quadrature weights.

    ``axes[a]`` holds the interior coordinates along axis ``a`` (spacing
    ``h[a] = L_a / (n + 1)``), and ``weights`` is the flattened tensor of the
    per-node quadrature weights (the cell volume ``prod(h)`` at every interior
    node). Functions on the grid are flat arrays in row-major ``ij`` order.
    """

    domain: DomainSpec
    n: int
    axes: tuple[np.ndarray, ...]
    h: tuple[float, ...]
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return self.n ** self.domain.dimension

    def nodes(self) -> tuple[np.ndarray, ...]:
        """Flattened coordinate arrays, one per axis, each of length npoints."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return tuple(m.reshape(-1) for m in mesh)


def build_grid(domain: DomainSpec, n: int) -> GridSpec:
    """Construct the interior grid with ``n`` points per axis.

    Raises
    ------
    ConfigurationError
        If ``n < 8``; coarser grids cannot support the spectral operations.
    """
    n = int(n)
    if n < MIN_POINTS_PER_AXIS:
        raise ConfigurationError(f"grid too coarse: n={n} < {MIN_POINTS_PER_AXIS}")
    axes = []
    spacings = []
    for L in domain.lengths:
        h = L / (n + 1)
        axes.append(h * np.arange(1, n + 1))
        spacings.append(h)
    cell = float(np.prod(spacings))
    weights = np.full(n ** domain.dimension, cell)
    return GridSpec(domain=domain, n=n, axes=tuple(axes), h=tuple(spacings), weights=weights)


def _validate_initial(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Initial data as a float array on the grid: finite, nonnegative and not
    identically zero. A failure names the first offending node."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.npoints,):
        raise ConfigurationError(f"initial data has shape {f.shape}, grid has {grid.npoints} nodes")
    bad = ~np.isfinite(f)
    if bad.any():
        node = int(np.argmax(bad))
        raise ConfigurationError(f"initial data is not finite at node {node}: f={f[node]}")
    bad = f < 0
    if bad.any():
        node = int(np.argmax(bad))
        raise PreconditionFailure(f"initial data is negative at node {node}: f={f[node]}")
    if not np.any(f > 0):
        raise PreconditionFailure("initial data vanishes identically")
    return f


def _laplacian(grid: GridSpec) -> sp.csr_matrix:
    """Dirichlet Laplacian (negative definite) of the grid.

    1D gives the tridiagonal second-difference stencil (-2, 1)/h^2; 2D the
    tensor-product five-point stencil ``kron(T1, I) + kron(I, T2)``. Only the
    integrator's factorization reads the matrix, so scipy.sparse is imported
    here, on first use, and not with the package.
    """
    import scipy.sparse as sp

    def stencil(h):
        off = np.full(grid.n - 1, 1.0 / h**2)
        return sp.diags([off, np.full(grid.n, -2.0 / h**2), off], (-1, 0, 1), format="csr")

    blocks = [stencil(h) for h in grid.h]
    if len(blocks) == 1:
        return blocks[0]
    eye = sp.identity(grid.n, format="csr")
    return sp.kron(blocks[0], eye, format="csr") + sp.kron(eye, blocks[1], format="csr")


@dataclass(frozen=True, eq=False)
class EigenData:
    """First ``m`` Dirichlet eigenpairs of ``-Laplacian`` on the grid.

    Attributes
    ----------
    eigenvalues : ndarray, shape (m,)
        Ascending, all positive.
    modes : ndarray, shape (npoints, m)
        Orthonormal columns in the weighted L2 inner product; the first column
        is positive.
    psi : ndarray, shape (npoints,)
        Principal mode rescaled to unit discrete integral sum(w * psi) = 1.
    """

    grid: GridSpec
    eigenvalues: np.ndarray
    modes: np.ndarray
    psi: np.ndarray

    @property
    def lam1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam2(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def m(self) -> int:
        return int(self.eigenvalues.shape[0])

    def project(self, f: np.ndarray) -> np.ndarray:
        """Coefficients of ``f`` in the retained basis (weighted inner products)."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.grid.npoints,):
            raise ConfigurationError(
                f"grid function has shape {f.shape}, expected ({self.grid.npoints},)"
            )
        return self.modes.T @ (self.grid.weights * f)

    def projection_defect(self, f: np.ndarray) -> float:
        """Sup-norm of the part of ``f`` outside the retained basis."""
        coeff = self.project(f)
        return float(np.max(np.abs(np.asarray(f, dtype=float) - self.modes @ coeff)))


def weighted_inner(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> float:
    """Discrete pairing sum(w * f * g)."""
    return float(np.dot(grid.weights * np.asarray(f, dtype=float), np.asarray(g, dtype=float)))


def _modes_1d(n: int, h: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """First m eigenpairs of the positive 1D stencil -(-2, 1)/h^2, in closed form.

    lam_k = (2/h^2)(1 - cos(k pi/(n+1))), written as (4/h^2) sin^2(k pi/(2(n+1)))
    to avoid cancellation for small k, and v_k(j) = sqrt(2/(n+1)) sin(j k pi/(n+1)).
    Eigenvalues ascend, columns are orthonormal in plain l2, and the first
    column is positive.
    """
    theta = np.arange(1, m + 1) * (math.pi / (n + 1))
    lam = (2.0 / h * np.sin(0.5 * theta)) ** 2
    V = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(np.arange(1, n + 1), theta))
    return lam, V


def solve_eigenpairs(grid: GridSpec, m: int) -> EigenData:
    """The first ``m`` Dirichlet eigenpairs on ``grid``, ascending, from the
    closed-form spectrum of the stencil; no matrix is assembled.

    The rectangle case combines tensor-product pairs of the two 1D problems,
    which is exact for the separable five-point stencil.

    Raises
    ------
    ConfigurationError
        ``m < 2`` or more modes than grid nodes.
    NumericalFailure
        The principal mode fails the unit-mass normalization check.
    """
    m = int(m)
    if m < 2:
        raise ConfigurationError(f"need at least two modes, got m={m}")
    if m > grid.npoints:
        raise ConfigurationError(f"m={m} exceeds grid size {grid.npoints}")
    if grid.domain.dimension == 1:
        lam, V = _modes_1d(grid.n, grid.h[0], m)
        modes = V / math.sqrt(grid.h[0])  # plain l2 -> weighted L2 normalization
    else:
        m_axis = min(grid.n, m)
        lam_a, V_a = _modes_1d(grid.n, grid.h[0], m_axis)
        lam_b, V_b = _modes_1d(grid.n, grid.h[1], m_axis)
        sums = lam_a[:, None] + lam_b[None, :]
        flat = np.argsort(sums, axis=None, kind="stable")[:m]
        ia, ib = np.unravel_index(flat, sums.shape)
        lam = sums[ia, ib]
        # column j is kron(V_a[:, ia[j]], V_b[:, ib[j]]) in row-major ij order
        cell = math.sqrt(grid.h[0] * grid.h[1])
        modes = (V_a[:, None, ia] * V_b[None, :, ib]).reshape(grid.npoints, m) / cell
    phi1 = modes[:, 0]
    scale = weighted_inner(grid, np.ones_like(phi1), phi1)
    psi = phi1 / scale
    total = float(np.dot(grid.weights, psi))
    if abs(total - 1.0) > 1e-12:
        raise NumericalFailure(f"psi normalization defect {total - 1.0:.3e}")
    return EigenData(grid=grid, eigenvalues=lam, modes=modes, psi=psi)


def richardson_extrapolate(coarse: float, fine: float, ratio: float) -> float:
    """Second-order Richardson step with exact step-size ratio ``(h_c/h_f)**2``."""
    return (ratio * fine - coarse) / (ratio - 1.0)


def apply_heat_semigroup(f: np.ndarray, t: float, basis: EigenData) -> np.ndarray:
    """Heat semigroup through the retained spectral basis.

    Returns ``sum_k exp(-lam_k t) <f, phi_k> phi_k``. At ``t = 0`` this is the
    projection of ``f`` onto the basis, not ``f`` itself, when ``f`` has a
    component outside the first ``m`` modes.
    """
    if t < 0:
        raise ConfigurationError(f"negative time t={t}")
    coeff = basis.project(f)
    return basis.modes @ (np.exp(-basis.eigenvalues * t) * coeff)


def sup_norm_decay(f: np.ndarray, t, kappa: float, basis: EigenData):
    """Sup norm of ``exp(-kappa^2 t / 2) S_t f`` over the grid: a float for one
    time ``t``, an array of the same shape for an array of times."""
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ConfigurationError(f"negative time t={float(np.min(times))}")
    coeff = basis.project(f)
    flat = times.reshape(-1)
    out = np.empty(flat.size)
    # a positive multiple of 16 times per block: BLAS kernels sum the columns
    # left over past a multiple of 4 or 8 in another order, so only the last
    # block has such columns, as one block of all the times would
    npoints = basis.grid.npoints
    width = 16 * max(1, SUP_NORM_BLOCK_BYTES // (16 * 8 * npoints))
    # every block is written into one buffer, so no two blocks are alive at once
    buf = np.empty(npoints * min(width, flat.size))
    for lo in range(0, flat.size, width):
        chunk = flat[lo : lo + width]
        fields = buf[: npoints * chunk.size].reshape(npoints, chunk.size)
        decay = np.exp(-np.outer(basis.eigenvalues, chunk)) * coeff[:, None]
        np.matmul(basis.modes, decay, out=fields)
        out[lo : lo + width] = np.max(np.abs(fields, out=fields), axis=0)
    out *= np.exp(-0.5 * kappa**2 * flat)
    return float(out[0]) if times.ndim == 0 else out.reshape(times.shape)


@dataclass(frozen=True, eq=False)
class HeatKernelBoundReport:
    """Sampled kernel ratio against the two-sided sharp bounds.

    ``ratio[t] = exp(lam1 t) * sup_{x,y} p_t(x,y) / (phi1(x) phi1(y))`` with the
    L2-normalized principal mode. ``c`` is the smallest constant making both
    the lower bound ``ratio >= max(1, t^{-(d+2)/2} / c)`` and the upper bound
    ``ratio <= 1 + c (1 ^ t)^{-(d+2)/2} exp(-(lam2-lam1) t)`` hold on the
    sampled times; ``lower`` and ``upper`` are those bounds at each time, and
    ``passed`` marks the times where both hold.
    """

    times: np.ndarray
    ratios: np.ndarray
    c: float
    lower: np.ndarray
    upper: np.ndarray
    passed: np.ndarray
    truncation_estimate: float
    truncation_warning: bool


def _spectral_tail_estimate(basis: EigenData, t_min: float) -> float:
    # Weyl-scaled heuristic for the modes beyond m, in ratio units: mode j osc-
    # illates like the last retained one scaled by (j/m)^2 near the boundary.
    d = basis.grid.domain.dimension
    m = basis.m
    lam1 = basis.lam1
    lam_m = float(basis.eigenvalues[-1])
    phi1 = basis.modes[:, 0]
    last = float(np.max((basis.modes[:, -1] / phi1) ** 2))
    j = np.arange(m + 1, m + 5001, dtype=float)
    lam_j = lam_m * (j / m) ** (2.0 / d)
    return last * float(np.sum((j / m) ** 2 * np.exp(-(lam_j - lam1) * t_min)))


def heat_kernel_ratio_report(basis: EigenData, times) -> HeatKernelBoundReport:
    """Evaluate the kernel ratio and fit the sandwich constant on ``basis.grid``.

    The spectral kernel is symmetric positive semidefinite, so the pairwise
    supremum of ``p_t(x,y)/(phi1(x) phi1(y))`` sits on the diagonal
    (``M_ij <= sqrt(M_ii M_jj)``); the ratio reduces to a weighted row sum,
    making the ``ratio >= 1`` lower bound and the monotone decay exact in the
    discrete model.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise ConfigurationError("ratio sampling needs strictly positive times")
    if basis.m < 30:
        raise ConfigurationError(f"need at least 30 modes for short times, got {basis.m}")
    p = (basis.grid.domain.dimension + 2) / 2.0
    gaps = basis.eigenvalues - basis.eigenvalues[0]
    R2 = (basis.modes / basis.modes[:, [0]]) ** 2
    ratios = np.empty_like(times)
    for i, t in enumerate(times):
        ratios[i] = float(np.max(R2 @ np.exp(-gaps * t)))
    gap21 = float(basis.eigenvalues[1] - basis.eigenvalues[0])
    c_lower = float(np.max(times**-p / ratios))
    over = np.maximum(ratios - 1.0, 0.0)
    c_upper = float(np.max(over * np.minimum(times, 1.0) ** p * np.exp(gap21 * times)))
    c = max(c_lower, c_upper, np.finfo(float).tiny)
    lower = np.maximum(1.0, times**-p / c)
    upper = 1.0 + c * np.minimum(times, 1.0) ** -p * np.exp(-gap21 * times)
    est = _spectral_tail_estimate(basis, float(np.min(times)))
    warn = est > 0.01 * float(np.min(ratios))
    if warn:
        logger.warning(
            "spectral tail ~%.3e exceeds 1%% of the kernel at t=%.3e; add modes",
            est,
            float(np.min(times)),
        )
    return HeatKernelBoundReport(
        times=times,
        ratios=ratios,
        c=float(c),
        lower=lower,
        upper=upper,
        passed=(ratios >= lower * (1.0 - 1e-12)) & (ratios <= upper + 1e-12),
        truncation_estimate=float(est),
        truncation_warning=bool(warn),
    )
