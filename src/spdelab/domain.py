"""Dirichlet Laplacian on an interval or rectangle: grids, eigenpairs, the
sup-norm series of the heat semigroup and the heat-kernel ratio report.

Everything downstream (mass pipeline, certificates, trajectory integration)
consumes the objects built here, and each derives what it needs from the
grid: the Laplacian is the (-2, 1)/h^2 stencil on each axis, so its
eigenpairs have a closed form: ``_spectrum`` and ``_sine_vectors``, which
the eigenpairs and the integrator's step on rectangles read; no matrix is
assembled. Conventions:

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

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailure, PreconditionFailure, _refuse_oversized

logger = logging.getLogger(__name__)

MIN_POINTS_PER_AXIS = 8
# the fewest modes the kernel-ratio report samples short times with
MIN_RATIO_MODES = 30
# bytes of working arrays per block of times: sup_norm_decay's decay and
# buffer hold m floats per time each, the kernel-ratio report's product
# npoints floats per time, so a block stays cache-sized whatever the grid
SUP_NORM_BLOCK_BYTES = 1 << 20
# sup_norm_decay drops every modal term below this size at every node: such a
# term cannot change a sum of size 2^-946 or more, and the terms just above
# underflow are subnormal, which slow the block product several fold
SUP_NORM_FLOOR = 2.0**-1000


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
            raise ConfigurationError(f"kind must be 'interval' or 'rectangle', got {self.kind!r}")
        lengths = tuple(float(L) for L in self.lengths)
        expected = 1 if self.kind == "interval" else 2
        if len(lengths) != expected:
            raise ConfigurationError(
                f"lengths must hold {expected} number(s) for {self.kind!r}, got {len(lengths)}"
            )
        if any(L <= 0 or not math.isfinite(L) for L in lengths):
            raise ConfigurationError(f"lengths must be positive and finite, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def dimension(self) -> int:
        return len(self.lengths)


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
        If ``n < 8``, as coarser grids cannot support the spectral
        operations, if numpy cannot hold the n^d node weights, or if the
        stencil's eigenvalues or the cell volume are not positive finite
        floats.
    """
    n = int(n)
    if n < MIN_POINTS_PER_AXIS:
        raise ConfigurationError(f"grid too coarse: n={n} < {MIN_POINTS_PER_AXIS}")
    _refuse_oversized(n**domain.dimension, f"a grid of n={n} nodes per axis")
    spacings = [L / (n + 1) for L in domain.lengths]
    # the first and the last eigenvalue bound every other one and the
    # stencil's entries
    ends = np.array([1, n])
    with np.errstate(over="ignore", divide="ignore"):
        lo, hi = map(float, sum(_eigenvalues_1d(n, np.float64(h), ends) for h in spacings))
    cell = math.prod(spacings)
    if not (lo > 0 and math.isfinite(hi) and 0 < cell < math.inf):
        raise ConfigurationError(
            f"lengths {domain.lengths} at n={n} give eigenvalues from {lo!r} to {hi!r} "
            f"and cell volume {cell!r}; each must be a positive finite float"
        )
    axes = tuple(h * np.arange(1, n + 1) for h in spacings)
    weights = np.full(n ** domain.dimension, cell)
    return GridSpec(domain=domain, n=n, axes=axes, h=tuple(spacings), weights=weights)


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

    @functools.cached_property
    def mode_sup(self) -> np.ndarray:
        """max |phi_k| over the grid for each mode, built on first use and
        read-only."""
        mode_sup = np.max(np.abs(self.modes), axis=0)
        mode_sup.flags.writeable = False
        return mode_sup

    def leading(self, m: int) -> EigenData:
        """The first ``m`` eigenpairs, or this basis when it has no more:
        bitwise ``solve_eigenpairs(grid, m)``, which builds each column
        elementwise, whatever columns follow it."""
        if m >= self.m:
            return self
        return EigenData(
            grid=self.grid,
            eigenvalues=self.eigenvalues[:m].copy(),
            modes=np.ascontiguousarray(self.modes[:, :m]),
            psi=self.psi,
        )

    def project(self, f: np.ndarray) -> np.ndarray:
        """Coefficients of ``f`` in the retained basis (weighted inner products)."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.grid.npoints,):
            raise ConfigurationError(
                f"grid function has shape {f.shape}, expected ({self.grid.npoints},)"
            )
        return self.modes.T @ (self.grid.weights * f)


def weighted_inner(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> float | np.ndarray:
    """Discrete pairing sum(w * f * g) over the last axis: a float for one
    field, an array for a block of fields. Each pairing is one dot product of
    fixed length, so its bits do not depend on the block it is taken in."""
    pairing = np.vecdot(np.asarray(g, dtype=float) * np.asarray(f, dtype=float), grid.weights)
    return float(pairing) if pairing.ndim == 0 else pairing


def _eigenvalues_1d(n: int, h: float, k: np.ndarray) -> np.ndarray:
    """The eigenvalues of index k of the positive 1D stencil -(-2, 1)/h^2:
    lam_k = (2/h^2)(1 - cos(k pi/(n+1))), written as (4/h^2) sin^2(k pi/(2(n+1)))
    to avoid cancellation for small k."""
    return (2.0 / h * np.sin(0.5 * (k * (math.pi / (n + 1))))) ** 2


def _spectrum(grid: GridSpec) -> np.ndarray:
    """Every eigenvalue of the grid's positive stencil, as an (n,) * d tensor:
    on a rectangle, entry [i, j] is the first axis' eigenvalue of index i + 1
    plus the second axis' of index j + 1. The stencil is separable, so its
    eigenvectors are the tensor products of the axes' _sine_vectors."""
    k = np.arange(1, grid.n + 1)
    return functools.reduce(np.add.outer, [_eigenvalues_1d(grid.n, h, k) for h in grid.h])


def _sine_vectors(n: int, k: np.ndarray) -> np.ndarray:
    """The eigenvectors of index k of the 1D stencil on n nodes, as columns:
    v_k(j) = sqrt(2/(n+1)) sin(j k pi/(n+1)), orthonormal in plain l2 and
    positive for k = 1. They do not depend on the spacing.

    The sine has period 2(n+1) in the integer j k, so every entry is read
    from one table of the 2(n+1) values at m pi/(n+1), at the exact index
    j k mod 2(n+1): no angle carries a j k-sized rounding, the full matrix
    is bitwise symmetric, and the k = 1 column keeps the bits of
    sin(j (pi/(n+1)))."""
    period = 2 * (n + 1)
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (math.pi / (n + 1)))
    return table[np.outer(np.arange(1, n + 1), k) % period]


def solve_eigenpairs(grid: GridSpec, m: int) -> EigenData:
    """The first ``m`` Dirichlet eigenpairs on ``grid``, ascending, from the
    closed-form spectrum of the stencil; no matrix is assembled.

    The modes are the first m entries of ``_spectrum`` in stable order, ties
    in row-major order of their indices. Mode j is the tensor product of the
    axes' sine vectors at the indices of its entry, which is exact for the
    separable stencil, rescaled to unit weighted L2 norm.

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
    lam = _spectrum(grid)
    order = np.argsort(lam, axis=None, kind="stable")[:m]
    # column j is kron over the axes of the sine vectors at order[j]'s indices
    vectors = [_sine_vectors(grid.n, k + 1) for k in np.unravel_index(order, lam.shape)]
    modes = functools.reduce(lambda a, b: (a[:, None] * b[None]).reshape(-1, m), vectors)
    modes /= math.sqrt(math.prod(grid.h))  # plain l2 -> weighted L2 normalization
    phi1 = modes[:, 0]
    # np.dot keeps psi's bits: weighted_inner forms and sums the products
    # in another order, which moves psi in the last place on many grids
    psi = phi1 / np.dot(grid.weights, phi1)
    total = float(np.dot(grid.weights, psi))
    if abs(total - 1.0) > 1e-12:
        raise NumericalFailure(f"psi normalization defect {total - 1.0:.3e}")
    return EigenData(grid=grid, eigenvalues=lam.ravel()[order], modes=modes, psi=psi)


def richardson_extrapolate(coarse: float, fine: float, ratio: float) -> float:
    """Second-order Richardson step with exact step-size ratio ``(h_c/h_f)**2``."""
    return (ratio * fine - coarse) / (ratio - 1.0)


def sup_norm_decay(f: np.ndarray, t, kappa: float, basis: EigenData):
    """Sup norm of ``exp(-kappa^2 t / 2) S_t f`` over the grid: a float for one
    time ``t``, an array of the same shape for an array of times.

    The mode-k term ``c_k e^{-lam_k t} phi_k`` is at most
    ``|c_k| e^{-lam_k t} s_k`` in size, ``s_k = max |phi_k|``, and that bound
    only falls as ``t`` grows. Each block of times therefore multiplies out
    only the modes up to the last one at least ``SUP_NORM_FLOOR`` in size at
    the block's earliest time ``t0``, and zeroes the entries below the floor
    in the kept rows. A dropped term cannot change a sum of size 2^-946 or
    more, so the series differs from the full sum by at most
    ``m * SUP_NORM_FLOOR``.

    Each block also multiplies only the nodes that can hold its sup. Every
    kept ``lam_k`` is at least ``lam_1``, so for ``t >= t0`` the field at node
    x is at most ``e^{-lam_1 (t - t0)} U(x)``, with the node bound
    ``U(x) = sum_k |phi_k(x)| |c_k| e^{-lam_k t0}``. The block computes the row
    ``r(t)`` of the probe node, the one of largest U, and multiplies the
    nodes with ``U(x) (1 + eps) >= min_t r(t) e^{lam_1 (t - t0)}``, compared
    in logs. Any other node stays below the probe at every time of the
    block, and ``eps`` covers the rounding of both sides. The min leaves out
    the dead times, those whose every term is below the floor: their column
    of the product is all zeros, so the field is 0 at every node and any
    node holds the sup there. A block of dead times only is 0. The sup then
    matches the all-node product up to that product's own rounding: BLAS
    may sum a subset of rows differently from the same rows of the full
    product, by a few ulp.
    """
    times = np.asarray(t, dtype=float)
    if not np.all(times >= 0):  # NaN fails the comparison too
        bad = float(times[~(times >= 0)][0])
        raise ConfigurationError(f"times must be nonnegative numbers, got t={bad}")
    coeff = basis.project(f)
    flat = times.reshape(-1)
    out = np.empty(flat.size)
    abs_modes = np.abs(basis.modes)
    # eps, in units of 2^-53: 2m for the two sums of up to m terms (U and the
    # product, each within m 2^-53 of its sum of |terms|), 2Z for the exponents lam_k t
    # of two kept terms, each rounded by up to 2^-53 lam_k t, 8Z for the logs
    # and lam_1 (t - t0), each within 2 ulp of a value of size at most Z, and
    # 6 for exp and the product with c_k. Z = 745 + ln max(1, sum |c_k| s_k)
    # bounds each of these sizes: a kept term is at least 2^-1000 in size, a
    # nonzero U or r at least 2^-1074. 2^-52 (m + 6Z) covers the sum with
    # room for second-order terms.
    scale = math.log(max(1.0, float(np.sum(np.abs(coeff) * basis.mode_sup))))
    slack = math.log1p(2.0**-52 * (basis.m + 6.0 * (745.0 + scale)))
    # a positive multiple of 16 times per block: BLAS kernels sum the columns
    # left over past a multiple of 4 or 8 in another order, so only the last
    # block has such columns, as one block of all the times would. The decay
    # and the buffer hold m floats per time each, and the budget is theirs.
    m, npoints = basis.m, basis.grid.npoints
    width = 16 * max(1, SUP_NORM_BLOCK_BYTES // (16 * 16 * m))
    # every block is written into one buffer, so no two blocks are alive at
    # once; it also holds 16 times at every node, the fewest a block
    # multiplies at once
    buf = np.empty(max(m * min(width, flat.size), npoints * min(16, flat.size)))
    for lo in range(0, flat.size, width):
        chunk = flat[lo : lo + width]
        out[lo : lo + width] = _block_sup(chunk, coeff, basis, abs_modes, slack, buf)
        out[lo : lo + width] *= np.exp(-0.5 * kappa**2 * chunk)
    return float(out[0]) if times.ndim == 0 else out.reshape(times.shape)


def _block_sup(
    chunk: np.ndarray,
    coeff: np.ndarray,
    basis: EigenData,
    abs_modes: np.ndarray,
    slack: float,
    buf: np.ndarray,
) -> np.ndarray:
    """max_x |(S_t f)(x)| at each time t of one block, from the kept modes at
    the candidate nodes (see sup_norm_decay). Its temporaries die with it."""
    lam, modes, sup_modes = basis.eigenvalues, basis.modes, basis.mode_sup
    t0 = np.min(chunk)
    weight = np.abs(np.exp(-lam * t0) * coeff)
    kept = np.flatnonzero(weight * sup_modes >= SUP_NORM_FLOOR)
    k = int(kept[-1]) + 1 if kept.size else 0
    # built in place: einsum forms the products lam_k (-t) of np.outer with
    # no broadcast buffers, and lam t is exact under negation
    decay = np.einsum("k,t->kt", lam[:k], -chunk)
    np.exp(decay, out=decay)
    decay *= coeff[:k, None]
    # the buffer is free until the product: it holds the sizes
    size = np.abs(decay, out=buf[: decay.size].reshape(decay.shape))
    size *= sup_modes[:k, None]
    decay[size < SUP_NORM_FLOOR] = 0.0
    # an infinite time is dead too: each of its terms is 0
    live = np.any(decay, axis=0)
    if not live.any():
        return np.zeros(chunk.size)
    # the node bound U at t0 and the row r of the probe, the node of largest
    # U, which the test below always keeps; log 0 is -inf, so a live time
    # where r underflows keeps every node
    bound = abs_modes[:, :k] @ weight[:k]
    with np.errstate(divide="ignore"):
        row = np.log(np.abs(modes[np.argmax(bound), :k] @ decay)[live])
        row += lam[0] * (chunk[live] - t0)
        keep = np.log(bound) + slack >= np.min(row)
    # past half the grid the block multiplies every node, so the gathered
    # rows never hold more than half the basis
    rows = modes[keep, :k] if 2 * np.count_nonzero(keep) <= keep.size else modes[:, :k]
    # the rows times column sub-blocks of a positive multiple of 16 times
    # that fill the buffer, which at the certify shapes is the whole block
    step = 16 * max(1, buf.size // (16 * rows.shape[0]))
    sup = np.empty(chunk.size)
    for lo in range(0, chunk.size, step):
        cols = decay[:, lo : lo + step]
        fields = buf[: rows.shape[0] * cols.shape[1]].reshape(rows.shape[0], cols.shape[1])
        np.matmul(rows, cols, out=fields)
        np.max(np.abs(fields, out=fields), axis=0, out=sup[lo : lo + step])
    return sup


@dataclass(frozen=True, eq=False)
class HeatKernelBoundReport:
    """Sampled kernel ratio against the two-sided sharp bounds.

    ``ratio[t] = exp(lam1 t) * sup_{x,y} p_t(x,y) / (phi1(x) phi1(y))`` with the
    L2-normalized principal mode. ``c`` is the smallest constant making both
    the lower bound ``ratio >= max(1, t^{-(d+2)/2} / c)`` and the upper bound
    ``ratio <= 1 + c min(1, t)^{-(d+2)/2} exp(-(lam2-lam1) t)`` hold on the
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


def _spectral_tail_bound(basis: EigenData, t_min: float) -> float:
    """Upper bound, in ratio units, on the kernel ratio's terms from the modes
    past the basis at t_min. A mode over the principal one is sin(k x)/sin(x)
    at each node, at most k in size, or a product of two such quotients on a
    rectangle, so the bound sums k^2 (or (a b)^2) e^{-(lam_k - lam1) t_min}
    over every mode of the grid past the m-th in solve_eigenpairs' order.
    """
    grid, k = basis.grid, np.arange(1, basis.grid.n + 1)
    lam = _spectrum(grid)
    weight = functools.reduce(np.multiply.outer, [k.astype(float) ** 2] * len(grid.h))
    past = np.argsort(lam, axis=None, kind="stable")[basis.m :]
    gaps = lam.ravel()[past] - basis.lam1
    return float(np.sum(weight.ravel()[past] * np.exp(-gaps * t_min)))


def heat_kernel_ratio_report(basis: EigenData, times) -> HeatKernelBoundReport:
    """Evaluate the kernel ratio and fit the sandwich constant on ``basis.grid``.

    The spectral kernel is symmetric positive semidefinite, so the pairwise
    supremum of ``p_t(x,y)/(phi1(x) phi1(y))`` sits on the diagonal
    (``M_ij <= sqrt(M_ii M_jj)``); the ratio reduces to a weighted row sum,
    making the ``ratio >= 1`` lower bound and the monotone decay exact in the
    discrete model.
    """
    times = np.asarray(times, dtype=float)
    bad = times[~((times > 0) & (times < math.inf))]  # NaN fails both comparisons
    if bad.size:
        raise ConfigurationError(f"ratio sampling needs positive finite times, got t={bad[0]}")
    if basis.m < MIN_RATIO_MODES:
        raise ConfigurationError(
            f"need at least {MIN_RATIO_MODES} modes for short times, got {basis.m}"
        )
    p = (basis.grid.domain.dimension + 2) / 2.0
    gaps = basis.eigenvalues - basis.eigenvalues[0]
    R2 = (basis.modes / basis.modes[:, [0]]) ** 2
    # each block of times is one (times x modes) @ (modes x nodes) product,
    # whose rows are the per-time row sums R2 @ e^{-gaps t}
    per_block = max(1, SUP_NORM_BLOCK_BYTES // (8 * basis.grid.npoints))
    ratios = np.empty_like(times)
    for lo in range(0, times.size, per_block):
        decay = np.exp(-np.outer(times[lo : lo + per_block], gaps))
        np.max(decay @ R2.T, axis=1, out=ratios[lo : lo + per_block])
    gap21 = float(basis.eigenvalues[1] - basis.eigenvalues[0])
    with np.errstate(over="ignore"):  # refused below as a non-finite c
        c_lower = float(np.max(times**-p / ratios))
    # only a time where the ratio exceeds one bounds c through the upper
    # bound; at the others e^{gap t} may overflow, and 0 * inf is nan
    above = ratios > 1.0
    t_up = times[above]
    terms = (ratios[above] - 1.0) * np.minimum(t_up, 1.0) ** p * np.exp(gap21 * t_up)
    c_upper = float(np.max(terms, initial=0.0))
    c = max(c_lower, c_upper, np.finfo(float).tiny)
    if not math.isfinite(c):
        raise ConfigurationError(
            f"the kernel-ratio constant is not finite: t^(-{p:g}) overflows at t={times.min():g}"
        )
    lower = np.maximum(1.0, times**-p / c)
    upper = 1.0 + c * np.minimum(times, 1.0) ** -p * np.exp(-gap21 * times)
    est = _spectral_tail_bound(basis, float(np.min(times)))
    warn = est > 0.01 * float(np.min(ratios))
    if warn:
        logger.warning(
            "spectral tail bound %.3e exceeds 1%% of the kernel at t=%.3e; add modes",
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
