"""Brownian paths, exponential functionals, and the limiting gamma law.

``exp_functional`` integrates every path functional: the blowup functional,
which is also the heat-kernel certificate's, and the certificates' weighted
integrals. ``_clamped_exp`` clamps its exponents and the Monte Carlo kernel's.

The sampling scheme is counter-based: every path owns the generator seeded by
``[seed, path_index]`` and reads its increments from that one stream, in one
call or in consecutive chunks; chunked ``standard_normal`` draws are bitwise
equal to a single draw. The Monte Carlo kernel draws each chunk into the
path's own row of a block of MC_BLOCK paths, so a row holds exactly the draws
of that path. Paths are therefore bitwise reproducible regardless of
chunking, block width, worker count, or the order in which indices are
visited.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _refuse_oversized

# exponent ceiling: exp(700) is still finite in float64, exp(710) is not
EXP_CLAMP = 700.0


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Wiener values on the uniform grid t_k = k*dt, with W(0) = 0. The grid
    ends at the last value: T = times[-1]."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"need a positive finite dt, got dt={self.dt}")
        if len(self.values) < 2:
            raise ConfigurationError(f"a path needs a step, got {len(self.values)} values")
        if self.values[0] != 0.0:
            raise ConfigurationError("Brownian path must start at zero")

    @property
    def nsteps(self) -> int:
        return len(self.values) - 1

    @functools.cached_property
    def times(self) -> np.ndarray:
        """Grid times k*dt, built on first use and read-only."""
        times = self.dt * np.arange(len(self.values))
        times.flags.writeable = False
        return times

    @classmethod
    def frozen_zero(cls, horizon: float, dt: float) -> "BrownianPath":
        """Diagnostic injection: the identically-zero path."""
        nsteps = _n_steps(horizon, dt)
        _refuse_oversized(nsteps + 1, f"a path of T={horizon} at dt={dt}")
        return cls(dt=dt, values=np.zeros(nsteps + 1))


def _n_steps(horizon: float, dt: float) -> int:
    """floor(horizon/dt), allowing 1e-9 of a step for rounding."""
    if not 0 < dt <= horizon:
        raise ConfigurationError(f"need 0 < dt <= horizon, got dt={dt} T={horizon}")
    steps = horizon / dt + 1e-9
    if not math.isfinite(steps):
        raise ConfigurationError(f"horizon/dt is not a finite step count: T={horizon} dt={dt}")
    return int(math.floor(steps))


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    """The generator of path ``path_index`` under ``seed``; the only place
    randomness enters."""
    return np.random.default_rng([seed, path_index])


def brownian_increments(seed: int, path_index: int, nsteps: int) -> np.ndarray:
    """The first nsteps unit-variance draws of one path's stream.

    The path constructor reads them in one call and the Monte Carlo kernel in
    chunks of the same stream, so a (seed, index) pair pins the path bitwise.
    """
    return _path_rng(seed, path_index).standard_normal(nsteps)


def sample_brownian(horizon: float, dt: float, seed: int, path_index: int) -> BrownianPath:
    """Draw one reproducible Brownian path on the uniform grid."""
    nsteps = _n_steps(horizon, dt)
    _refuse_oversized(nsteps + 1, f"a path of T={horizon} at dt={dt}")
    incr = math.sqrt(dt) * brownian_increments(seed, path_index, nsteps)
    values = np.empty(nsteps + 1)
    values[0] = 0.0
    np.cumsum(incr, out=values[1:])
    return BrownianPath(dt=dt, values=values)


def gamma_shape(beta: float, kappa: float, lam1: float) -> float:
    """Shape alpha = (2*lam1 + kappa^2)/(kappa^2*beta) of the limiting gamma law.

    Evaluated as -mu/(kappa*beta/2) with mu = -(lam1 + kappa^2/2)/kappa; the
    textbook quotient can differ in the last ulp, and blowup.csv writes alpha
    with all its digits.

    Raises
    ------
    ConfigurationError
        If kappa == 0: the noiseless problem has no limiting gamma law, use
        the deterministic dichotomy instead. Also if alpha overflows, which
        a tiny kappa does.
    """
    if kappa == 0:
        raise ConfigurationError("kappa=0: use the deterministic dichotomy, mu is undefined")
    if beta <= 0 or kappa < 0 or lam1 <= 0:
        raise ConfigurationError(f"need beta>0, kappa>0, lam1>0, got {beta}, {kappa}, {lam1}")
    mu = -(lam1 + 0.5 * kappa**2) / kappa
    scale = 0.5 * kappa * beta
    alpha = -(mu / scale) if scale > 0 else math.inf
    if not math.isfinite(alpha):
        raise ConfigurationError(
            f"the gamma shape alpha = (2 lam1 + kappa^2)/(kappa^2 beta) overflows at "
            f"kappa={kappa!r}, beta={beta!r}, lam1={lam1!r}"
        )
    return alpha


def _clamped_exp(expo: np.ndarray):
    """Exponentiate expo in place, each entry clamped to EXP_CLAMP, and return
    whether each row (the last axis) had an entry clamped."""
    clamped = expo.max(axis=-1) > EXP_CLAMP
    if clamped.any():
        np.minimum(expo, EXP_CLAMP, out=expo)
    np.exp(expo, out=expo)
    return clamped


def exp_functional(
    path: BrownianPath, a: float, b: float, log_weight=0.0
) -> tuple[np.ndarray, bool]:
    """Running trapezoidal values of int_0^t exp(a s + b W_s + log_weight(s)) ds
    on the path grid, and whether an exponent passed EXP_CLAMP and was
    clamped. log_weight is a scalar or sampled on the path grid."""
    expo = a * path.times + b * path.values + log_weight
    clamped = bool(_clamped_exp(expo))
    steps = 0.5 * path.dt * (expo[1:] + expo[:-1])
    return np.concatenate(([0.0], np.cumsum(steps))), clamped


def gamma_tail(alpha: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(alpha, z), the Gamma(alpha, 1) tail."""
    if alpha <= 0:
        raise ValueError(f"shape must be positive, got {alpha}")
    if z < 0:
        raise ValueError(f"tail argument must be >= 0, got {z}")
    # imported on first use: at module level it slows `import spdelab.cli`
    from scipy.special import gammaincc

    return float(gammaincc(alpha, z))


def blowup_density(y, lam1: float, kappa: float, beta: float):
    """Density of the limiting value of the exponential functional.

    h(y) = (2/(kappa^2 beta^2 y))^alpha * exp(-2/(kappa^2 beta^2 y))
    / (y Gamma(alpha)) with alpha = (2 lam1 + kappa^2)/(kappa^2 beta): the
    density of 2/(kappa^2 beta^2 Z) for Z ~ Gamma(alpha), which integrates to
    one. Scalar y gives a float, array y an array.
    """
    if kappa <= 0 or beta <= 0 or lam1 <= 0:
        raise ValueError(f"need lam1, kappa, beta > 0, got {lam1}, {kappa}, {beta}")
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("density argument must be positive")
    alpha = gamma_shape(beta, kappa, lam1)
    u = 2.0 / (kappa**2 * beta**2 * y)
    out = np.exp(alpha * np.log(u) - u - math.lgamma(alpha)) / y
    return float(out) if out.ndim == 0 else out
