"""Brownian paths, exponential functionals, and the limiting gamma law.

The sampling scheme is counter-based: every path owns the generator seeded by
``[seed, path_index]`` and reads its increments from that one stream, in one
call or in consecutive chunks; chunked ``standard_normal`` draws are bitwise
equal to a single draw. The Monte Carlo kernel draws each chunk into the
path's own row of a block of MC_BLOCK paths, so a row holds exactly the draws
of that path. Paths are therefore bitwise reproducible regardless of
chunking, block width, thread count, or the order in which indices are
visited.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailure

# exponent ceiling: exp(700) is still finite in float64, exp(710) is not
EXP_CLAMP = 700.0

_GAMMA_EPS = 3e-15
_GAMMA_ITMAX = 500
_FPMIN = 1e-300


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Wiener values on the uniform grid t_k = k*dt, with W(0) = 0.

    ``seed``/``path_index`` record how the path was drawn; injected diagnostic
    paths (e.g. the frozen zero path) carry ``None`` for both.
    """

    dt: float
    horizon: float
    values: np.ndarray
    seed: int | None = None
    path_index: int | None = None

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0 or self.dt > self.horizon:
            raise ConfigurationError(f"need 0 < dt <= horizon, got dt={self.dt} T={self.horizon}")
        if self.values[0] != 0.0:
            raise ConfigurationError("Brownian path must start at zero")
        expected = _n_steps(self.horizon, self.dt) + 1
        if len(self.values) != expected:
            raise ConfigurationError(
                f"path length {len(self.values)} does not match horizon/dt grid ({expected})"
            )

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
        return cls(dt=dt, horizon=horizon, values=np.zeros(_n_steps(horizon, dt) + 1))


def _n_steps(horizon: float, dt: float) -> int:
    return int(math.floor(horizon / dt + 1e-9))


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
    if dt <= 0 or horizon <= 0 or dt > horizon:
        raise ConfigurationError(f"need 0 < dt <= horizon, got dt={dt} T={horizon}")
    nsteps = _n_steps(horizon, dt)
    incr = math.sqrt(dt) * brownian_increments(seed, path_index, nsteps)
    values = np.empty(nsteps + 1)
    values[0] = 0.0
    np.cumsum(incr, out=values[1:])
    return BrownianPath(dt=dt, horizon=horizon, values=values, seed=seed, path_index=path_index)


def gamma_shape(beta: float, kappa: float, lam1: float) -> float:
    """Shape alpha = (2*lam1 + kappa^2)/(kappa^2*beta) of the limiting gamma law.

    Evaluated as -mu/(kappa*beta/2) with mu = -(lam1 + kappa^2/2)/kappa; the
    textbook quotient can differ in the last ulp, and blowup.csv writes alpha
    with all its digits.

    Raises
    ------
    ConfigurationError
        If kappa == 0: the noiseless problem has no limiting gamma law, use
        the deterministic dichotomy instead.
    """
    if kappa == 0:
        raise ConfigurationError("kappa=0: use the deterministic dichotomy, mu is undefined")
    if beta <= 0 or kappa < 0 or lam1 <= 0:
        raise ConfigurationError(f"need beta>0, kappa>0, lam1>0, got {beta}, {kappa}, {lam1}")
    mu = -(lam1 + 0.5 * kappa**2) / kappa
    return -(mu / (0.5 * kappa * beta))


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral of uniformly spaced samples, starting at 0."""
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(0.5 * dt * (values[1:] + values[:-1]), out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class ExpFunctional:
    """Running trapezoidal values of A(t) = int_0^t exp(a s + b W_s) ds."""

    a: float
    b: float
    dt: float
    values: np.ndarray
    saturated: bool


def exp_functional(path: BrownianPath, a: float, b: float) -> ExpFunctional:
    """Integrate exp(a s + b W_s) along the path by the trapezoidal rule.

    If the exponent ever exceeds the float64 ceiling it is clamped and the
    result flagged ``saturated``: the value is then a (finite) understatement
    signalling the blowup regime, not a silent infinity.
    """
    expo = a * path.times + b * path.values
    saturated = bool(np.max(expo) > EXP_CLAMP)
    if saturated:
        expo = np.minimum(expo, EXP_CLAMP)
    values = _cumtrapz(np.exp(expo), path.dt)
    return ExpFunctional(a=a, b=b, dt=path.dt, values=values, saturated=saturated)


def _lower_series(a: float, x: float) -> float:
    # regularized lower incomplete gamma by its power series, NR style
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NumericalFailure(f"gamma series did not converge for a={a}, x={x}")


def _upper_contfrac(a: float, x: float) -> float:
    # regularized upper incomplete gamma by modified-Lentz continued fraction
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < _GAMMA_EPS:
            return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    raise NumericalFailure(f"gamma continued fraction did not converge for a={a}, x={x}")


def gamma_tail(alpha: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(alpha, z), the Gamma(alpha, 1) tail.

    Series/continued-fraction split at z = alpha + 1; accurate to ~1e-13.
    """
    if alpha <= 0:
        raise ValueError(f"shape must be positive, got {alpha}")
    if z < 0:
        raise ValueError(f"tail argument must be >= 0, got {z}")
    if z == 0.0:
        return 1.0
    if z < alpha + 1.0:
        return 1.0 - _lower_series(alpha, z)
    return _upper_contfrac(alpha, z)


def _regularized_lower(alpha: float, z: float) -> float:
    # P(alpha, z) without argument checks, for the Monte Carlo stopping rule;
    # the series branch stays accurate for tiny z
    if z == 0.0:
        return 0.0
    if z < alpha + 1.0:
        return _lower_series(alpha, z)
    return 1.0 - _upper_contfrac(alpha, z)


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
