"""Mass pipeline: lower solution, hitting times, Monte Carlo blowup probability.

The scalar reduction works on the weighted mass v(t, psi). The lower solution
I(t) solves the mass inequality turned ODE, and blows up exactly when the
exponential functional A(t) reaches the threshold x* = v0psi^(-beta)/beta.
The probability that this ever happens has the closed gamma-tail form
1 - Q(alpha, 2/(kappa^2 beta^2 x*)); the Monte Carlo estimator below exists to
be checked against it, not the other way around.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .domain import EigenData, weighted_inner
from .errors import BlownUp, ConfigurationError
from .stochastic import (
    EXP_CLAMP,
    BrownianPath,
    _n_steps,
    brownian_increments,
    derive_params,
    exp_functional,
    exp_functional_mean_tail,
    gamma_tail,
)

logger = logging.getLogger(__name__)

MIN_MC_PATHS = 1_000


@dataclass(frozen=True)
class PowerLaw:
    """Nonlinearity G(z) = coeff * z^(1+beta) for z >= 0."""

    coeff: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.coeff <= 0 or self.beta <= 0:
            raise ConfigurationError(f"power law needs coeff, beta > 0, got {self}")

    def __call__(self, z):
        return self.coeff * np.power(np.maximum(z, 0.0), 1.0 + self.beta)


@dataclass(frozen=True, eq=False)
class TabulatedNonlinearity:
    """Monotone tabulated nonlinearity with G(0) = 0 and G(z)/z increasing.

    Evaluated by linear interpolation; arguments beyond the last table entry
    are clamped to it, so keep the table wide enough for the intended run.
    """

    z: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if z.ndim != 1 or z.shape != g.shape or len(z) < 2:
            raise ConfigurationError("tabulated nonlinearity needs matching 1d tables")
        if z[0] != 0.0 or g[0] != 0.0:
            raise ConfigurationError("tabulated nonlinearity must anchor G(0) = 0")
        if np.any(np.diff(z) <= 0):
            raise ConfigurationError("tabulated abscissae must be strictly increasing")
        ratio = g[1:] / z[1:]
        if np.any(np.diff(ratio) < -1e-12 * np.abs(ratio[:-1])):
            raise ConfigurationError("G(z)/z must be nondecreasing on the tabulation")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "g", g)

    def __call__(self, x):
        return np.interp(np.maximum(x, 0.0), self.z, self.g)


@dataclass(frozen=True)
class ModelParams:
    """Reaction model: exponents, noise strength, and the two-sided constants.

    C bounds the nonlinearity from below (C z^(1+beta) <= G(z)), Lambda from
    above; a PowerLaw G sits exactly on both bounds when C = Lambda = coeff,
    which the defaults give. Cstar is the optional saturation range bound used
    by the saturation certificate.
    """

    beta: float
    kappa: float
    C: float = 1.0
    Lambda: float = 1.0
    Cstar: float | None = None
    G: Callable = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.kappa < 0:
            raise ConfigurationError(f"kappa must be >= 0, got {self.kappa}")
        if self.C <= 0 or self.Lambda <= 0:
            raise ConfigurationError("bound constants C, Lambda must be positive")
        if self.Cstar is not None and self.Cstar <= 0:
            raise ConfigurationError("Cstar must be positive when set")
        if self.C > self.Lambda:
            raise ConfigurationError(f"lower constant C={self.C} exceeds Lambda={self.Lambda}")
        if self.G is None:
            object.__setattr__(self, "G", PowerLaw(coeff=self.Lambda, beta=self.beta))
        if isinstance(self.G, PowerLaw):
            if self.G.beta != self.beta:
                raise ConfigurationError(
                    f"power-law exponent {self.G.beta} disagrees with beta={self.beta}"
                )
            if not (self.C <= self.G.coeff <= self.Lambda):
                raise ConfigurationError(
                    f"power-law coefficient {self.G.coeff} outside [C, Lambda]"
                )


@dataclass(frozen=True)
class BlowupThreshold:
    """Initial mass v0psi and the hitting level x* = v0psi^(-beta)/beta."""

    v0psi: float
    x_star: float
    beta: float

    def __post_init__(self):
        if self.v0psi <= 0 or self.beta <= 0:
            raise ConfigurationError("threshold needs v0psi > 0 and beta > 0")
        expected = self.v0psi ** (-self.beta) / self.beta
        if not math.isclose(self.x_star, expected, rel_tol=1e-12):
            raise ConfigurationError(
                f"x_star={self.x_star} inconsistent with v0psi={self.v0psi}, beta={self.beta}"
            )

    @classmethod
    def from_initial_mass(cls, v0psi: float, beta: float) -> "BlowupThreshold":
        return cls(v0psi=float(v0psi), x_star=float(v0psi) ** (-beta) / beta, beta=float(beta))


class OutcomeStatus(str, Enum):
    BLEW_UP = "blew_up"
    CENSORED = "censored"


@dataclass(frozen=True)
class BlowupOutcome:
    status: OutcomeStatus
    tau: float | None
    horizon: float
    seed: int | None = None
    path_index: int | None = None

    def __post_init__(self):
        if self.status is OutcomeStatus.BLEW_UP:
            if self.tau is None or self.tau > self.horizon * (1 + 1e-12):
                raise ConfigurationError("blew-up outcome needs tau <= horizon")
        elif self.tau is not None:
            raise ConfigurationError("censored outcome must not carry a tau")


class BlowupBound(NamedTuple):
    p_blowup_lower: float
    p_global: float
    alpha: float
    z_star: float


def _drift_scale(threshold: BlowupThreshold, kappa: float, lam1: float) -> tuple[float, float]:
    beta = threshold.beta
    return -(lam1 + 0.5 * kappa**2) * beta, kappa * beta


def lower_solution_series(
    path: BrownianPath,
    threshold: BlowupThreshold,
    kappa: float,
    lam1: float,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Lower solution I(t_k) on the path grid.

    Returns (times, values, blown_index). Entries from the first index where
    the bracket v0psi^(-beta) - beta A(t) hits zero are NaN, and that index is
    reported (None if the solution stays finite through the horizon).
    """
    beta = threshold.beta
    a, b = _drift_scale(threshold, kappa, lam1)
    A = exp_functional(path, a, b).values
    bracket = threshold.v0psi ** (-beta) - beta * A
    alive = bracket > 0.0
    blown_index = None if bool(alive.all()) else int(np.argmin(alive))
    t = path.times
    values = np.full_like(A, np.nan)
    ok = alive
    values[ok] = np.exp(-(lam1 + 0.5 * kappa**2) * t[ok]) * bracket[ok] ** (-1.0 / beta)
    return t, values, blown_index


def lower_solution(
    path: BrownianPath,
    threshold: BlowupThreshold,
    kappa: float,
    lam1: float,
    t: float,
) -> float:
    """Lower solution I(t) at a single time on the path grid.

    Raises
    ------
    BlownUp
        If t is at or past the divergence time of the bracket.
    """
    if t < 0 or t > path.horizon * (1 + 1e-12):
        raise ConfigurationError(f"t={t} outside the path horizon {path.horizon}")
    times, values, blown_index = lower_solution_series(path, threshold, kappa, lam1)
    val = float(np.interp(t, times, values))
    if blown_index is not None and t >= times[blown_index] - 1e-15:
        raise BlownUp(times[blown_index])
    if not math.isfinite(val):
        raise BlownUp(t)
    return val


def tau_from_path(
    path: BrownianPath,
    threshold: BlowupThreshold,
    kappa: float,
    lam1: float,
) -> BlowupOutcome:
    """First time A(t) reaches x*, linearly interpolated inside the step."""
    a, b = _drift_scale(threshold, kappa, lam1)
    A = exp_functional(path, a, b).values
    x_star = threshold.x_star
    if A[-1] < x_star:
        return BlowupOutcome(
            status=OutcomeStatus.CENSORED,
            tau=None,
            horizon=path.horizon,
            seed=path.seed,
            path_index=path.path_index,
        )
    k = int(np.argmax(A >= x_star))
    t = path.times
    if k == 0:  # x_star <= 0 cannot happen; A[0] = 0 < x_star always
        tau = 0.0
    else:
        dA = A[k] - A[k - 1]
        frac = 0.0 if dA == 0 else (x_star - A[k - 1]) / dA
        tau = float(t[k - 1] + frac * (t[k] - t[k - 1]))
    return BlowupOutcome(
        status=OutcomeStatus.BLEW_UP,
        tau=tau,
        horizon=path.horizon,
        seed=path.seed,
        path_index=path.path_index,
    )


def analytic_blowup_bound(
    lam1: float,
    kappa: float,
    beta: float,
    threshold: BlowupThreshold,
) -> BlowupBound:
    """Closed-form bound pair: P[hit] >= 1 - Q(alpha, z*), its complement exact."""
    if kappa == 0:
        raise ConfigurationError("kappa=0: use deterministic_dichotomy, the gamma law degenerates")
    params = derive_params(beta, kappa, lam1)
    z_star = 2.0 / (kappa**2 * beta**2 * threshold.x_star)
    p_global = gamma_tail(params.alpha, z_star)
    return BlowupBound(
        p_blowup_lower=1.0 - p_global,
        p_global=p_global,
        alpha=params.alpha,
        z_star=z_star,
    )


class Dichotomy(str, Enum):
    BLOWUP_CERTIFIED = "blowup_certified"
    TAU_INFINITE = "tau_infinite"


def deterministic_dichotomy(f: np.ndarray, eigen: EigenData, beta: float) -> Dichotomy:
    """Noiseless classification by initial mass against lam1^(1/beta).

    The boundary case <f, psi> = lam1^(1/beta) classifies as TAU_INFINITE
    (the hitting functional saturates without crossing).
    """
    if beta <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    mass = weighted_inner(eigen.grid, f, eigen.psi)
    threshold = eigen.lam1 ** (1.0 / beta)
    return Dichotomy.BLOWUP_CERTIFIED if mass > threshold else Dichotomy.TAU_INFINITE


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Monte Carlo hitting estimate with its analytic reference."""

    p_hat: float
    n_paths: int
    analytic_reference: float
    truncation_allowance: float
    n_censored: int
    n_saturated: int
    seed: int

    @property
    def stderr(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_paths)


def _terminal_chunk(
    seed: int,
    lo: int,
    hi: int,
    nsteps: int,
    dt: float,
    drift: np.ndarray,
    b: float,
    x_star: float,
) -> tuple[int, float, int]:
    """Terminal A(T) per path for indices [lo, hi); A is nondecreasing, so the
    hit happens iff A(T) >= x*. Returns (hits, max censored A(T), saturations)."""
    sqrt_dt = math.sqrt(dt)
    hits = 0
    saturated = 0
    max_censored = 0.0
    for idx in range(lo, hi):
        w = brownian_increments(seed, idx, nsteps)
        w *= sqrt_dt
        np.cumsum(w, out=w)
        w *= b
        w += drift
        if w[-1] > EXP_CLAMP or np.max(w) > EXP_CLAMP:
            saturated += 1
            np.minimum(w, EXP_CLAMP, out=w)
        np.exp(w, out=w)
        a_T = dt * (0.5 + float(np.sum(w)) - 0.5 * float(w[-1]))
        if a_T >= x_star:
            hits += 1
        elif a_T > max_censored:
            max_censored = a_T
    return hits, max_censored, saturated


def mc_blowup_probability(
    params: ModelParams,
    lam1: float,
    threshold: BlowupThreshold,
    n_paths: int,
    horizon: float,
    dt: float,
    seed: int,
    workers: int = 1,
) -> ProbabilityEstimate:
    """Estimate the hitting probability over n_paths independent paths.

    Each path index draws its own generator stream and the reduction is a sum
    of indicator counts, so the estimate is identical for any worker count.
    The thread pool never exceeds os.cpu_count() threads.
    The truncation allowance is the Markov bound on mass hiding beyond the
    horizon: E[tail] / (x* - max censored A(T)), capped at one.
    """
    if params.kappa <= 0:
        raise ConfigurationError("Monte Carlo needs kappa > 0; use deterministic_dichotomy")
    if n_paths < MIN_MC_PATHS:
        raise ConfigurationError(f"need at least {MIN_MC_PATHS} paths, got {n_paths}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if threshold.beta != params.beta:
        raise ConfigurationError("threshold and params disagree on beta")
    a, b = _drift_scale(threshold, params.kappa, lam1)
    nsteps = _n_steps(horizon, dt)
    drift = a * dt * np.arange(1, nsteps + 1)
    workers = min(workers, os.cpu_count() or 1)
    bounds = np.linspace(0, n_paths, workers + 1).astype(int)
    jobs = [(int(bounds[i]), int(bounds[i + 1])) for i in range(workers) if bounds[i] < bounds[i + 1]]
    if len(jobs) == 1:
        results = [_terminal_chunk(seed, jobs[0][0], jobs[0][1], nsteps, dt, drift, b, threshold.x_star)]
    else:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [
                pool.submit(_terminal_chunk, seed, lo, hi, nsteps, dt, drift, b, threshold.x_star)
                for lo, hi in jobs
            ]
            results = [f.result() for f in futures]
    hits = sum(r[0] for r in results)
    max_censored = max(r[1] for r in results)
    n_saturated = sum(r[2] for r in results)
    n_censored = n_paths - hits
    p_hat = hits / n_paths
    if n_censored == 0:
        allowance = 0.0
    else:
        tail_mean = exp_functional_mean_tail(a, b, horizon)
        gap = threshold.x_star - max_censored
        allowance = 1.0 if (not math.isfinite(tail_mean) or gap <= 0) else min(1.0, tail_mean / gap)
    reference = analytic_blowup_bound(lam1, params.kappa, params.beta, threshold).p_blowup_lower
    logger.info(
        "mc hitting estimate: p_hat=%.5f (N=%d, censored=%d, allowance=%.3g, reference=%.5f)",
        p_hat,
        n_paths,
        n_censored,
        allowance,
        reference,
    )
    return ProbabilityEstimate(
        p_hat=p_hat,
        n_paths=n_paths,
        analytic_reference=reference,
        truncation_allowance=allowance,
        n_censored=n_censored,
        n_saturated=n_saturated,
        seed=seed,
    )
