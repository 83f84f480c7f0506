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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .domain import EigenData, weighted_inner
from .errors import ConfigurationError
from .stochastic import (
    EXP_CLAMP,
    BrownianPath,
    _n_steps,
    _path_rng,
    _regularized_lower,
    derive_params,
    exp_functional,
    gamma_tail,
)

logger = logging.getLogger(__name__)

MIN_MC_PATHS = 1_000
# draws per generator call in the Monte Carlo kernel: small chunks lose to
# the per-call overhead, large ones draw past the point where a path stops
MC_CHUNK = 2000
# paths per block of the Monte Carlo kernel: each chunk operation is one numpy
# call over MC_BLOCK rows; wider blocks only grow the per-thread buffer
MC_BLOCK = 64
# a path stops once the probability that it still hits is at most this
MC_STOP_PROB = 1e-10


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


def _advance_paths(
    seed: int,
    lo: int,
    hi: int,
    nsteps: int,
    dt: float,
    drift: np.ndarray,
    b: float,
    x_stars: Sequence[float],
    alpha: float,
) -> list[list[tuple[float, float, bool, int]]]:
    """Trapezoidal A(t) of paths lo..hi-1, advanced in blocks of MC_BLOCK
    paths and chunks of MC_CHUNK steps, against every threshold of x_stars
    at once; each (path, threshold) pair resolves when the path reaches that
    x*, the gamma law stops it there, or at the horizon.

    Each path draws its chunk into its own row of one reusable buffer from
    its own stream; the rest of a chunk is one numpy call per operation on
    the whole block, and every row is reduced on its own, so a path's result
    is bitwise the same for any block width or index split. A is
    nondecreasing, so a path has hit x* iff its chunk-end A >= x*. Past t the
    rest of A_inf is e^{at+bW_t} times an independent copy of A_inf, whose
    law is 2/(b^2 Z) with Z ~ Gamma(alpha); the path still hits x* with
    probability p = P(alpha, 2 e^{at+bW_t} / (b^2 (x* - A(t)))), and that
    threshold resolves once p <= MC_STOP_PROB. A threshold resolves at the
    chunk end where a run against it alone would stop the path, so its tuple
    is bitwise that run's; the row leaves the block once all its thresholds
    have resolved. Returns, per path in index order, one tuple per threshold
    in input order: (A at the stop, p at the stop or 0 after a hit, whether
    the exponent was clamped by then, steps advanced by then).
    """
    sqrt_dt = math.sqrt(dt)
    z_scale = 2.0 / (b * b)
    results: list = [None] * (hi - lo)
    buf = np.empty((min(MC_BLOCK, hi - lo), min(MC_CHUNK, nsteps)))
    for first in range(lo, hi, MC_BLOCK):
        rows = list(range(first, min(first + MC_BLOCK, hi)))
        rngs = [_path_rng(seed, i) for i in rows]
        # per row: its tuples so far and the thresholds still open for it
        found = [[None] * len(x_stars) for _ in rows]
        pending = [list(enumerate(x_stars)) for _ in rows]
        w_last = np.zeros(len(rows))
        e_last = np.ones(len(rows))
        A = np.zeros(len(rows))
        saturated = np.zeros(len(rows), dtype=bool)
        for start in range(0, nsteps, MC_CHUNK):
            stop = min(start + MC_CHUNK, nsteps)
            w = buf[: len(rows), : stop - start]
            for row, rng in zip(w, rngs):
                rng.standard_normal(out=row)
            w *= sqrt_dt
            w[:, 0] += w_last
            np.cumsum(w, axis=1, out=w)
            w_last = w[:, -1].copy()
            w *= b
            w += drift[start:stop]
            clamped = w.max(axis=1) > EXP_CLAMP
            if clamped.any():
                saturated |= clamped
                np.minimum(w, EXP_CLAMP, out=w)
            np.exp(w, out=w)
            A += dt * (0.5 * e_last + w.sum(axis=1) - 0.5 * w[:, -1])
            e_last = w[:, -1].copy()
            keep = np.ones(len(rows), dtype=bool)
            for r, (a_r, e_r) in enumerate(zip(A.tolist(), e_last.tolist())):
                still = []
                for j, x_star in pending[r]:
                    if a_r >= x_star:
                        p = 0.0
                    else:
                        p = _regularized_lower(alpha, z_scale * e_r / (x_star - a_r))
                        if p > MC_STOP_PROB and stop < nsteps:
                            still.append((j, x_star))
                            continue
                    found[r][j] = (a_r, p, bool(saturated[r]), stop)
                pending[r] = still
                if not still:
                    results[rows[r] - lo] = found[r]
                    keep[r] = False
            rows, rngs, found, pending = (
                [x for x, k in zip(seq, keep) if k] for seq in (rows, rngs, found, pending)
            )
            w_last, e_last, A, saturated = w_last[keep], e_last[keep], A[keep], saturated[keep]
            if not rows:
                break
    return results


@dataclass(frozen=True)
class SweepEstimate:
    """One Monte Carlo pass over n_paths paths: an estimate per threshold,
    in input order, and the normals the pass drew."""

    n_paths: int
    seed: int
    normals_drawn: int
    estimates: tuple[ProbabilityEstimate, ...]


def mc_blowup_probability(
    params: ModelParams,
    lam1: float,
    thresholds: Sequence[BlowupThreshold],
    n_paths: int,
    horizon: float,
    dt: float,
    seed: int,
    workers: int = 1,
) -> SweepEstimate:
    """Estimate the hitting probability of every threshold from one pass over
    n_paths independent paths.

    a, b and the drift of A(t) depend only on beta, kappa and lam1, so every
    threshold reads the same paths and only x* differs: each path is drawn
    and advanced once for the whole sweep. Each path index draws its own
    generator stream and runs only until, for every threshold, it has hit x*,
    the gamma law gives it at most MC_STOP_PROB of still hitting, or the
    horizon. Each worker thread advances its index range in blocks of
    MC_BLOCK paths, one row per path; see ``_advance_paths``. A threshold's
    per-path results equal those of a pass against it alone, so its estimate
    does not depend on which other thresholds share the pass. Every row is
    its own path, so results do not depend on the block width, and the hits
    are counted, so the estimates are identical for any worker count. The
    thread pool never exceeds os.cpu_count() threads.

    The truncation allowance of a threshold is the mean over paths of the
    probability that a path still hits after it stopped (0 for a hit), summed
    exactly in path-index order: the expected fraction of paths, censored at
    their stop, that would hit by t = inf. p_hat + allowance therefore
    estimates P[A_inf >= x*], the analytic reference, without bias up to the
    time-step error of the trapezoidal A.
    """
    if params.kappa <= 0:
        raise ConfigurationError("Monte Carlo needs kappa > 0; use deterministic_dichotomy")
    if not thresholds:
        raise ConfigurationError("Monte Carlo needs at least one threshold")
    if n_paths < MIN_MC_PATHS:
        raise ConfigurationError(f"need at least {MIN_MC_PATHS} paths, got {n_paths}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if any(threshold.beta != params.beta for threshold in thresholds):
        raise ConfigurationError("threshold and params disagree on beta")
    if not 0 < dt <= horizon:
        raise ConfigurationError(f"need 0 < dt <= horizon, got dt={dt} T={horizon}")
    bounds = [analytic_blowup_bound(lam1, params.kappa, params.beta, thr) for thr in thresholds]
    a, b = _drift_scale(thresholds[0], params.kappa, lam1)
    nsteps = _n_steps(horizon, dt)
    drift = a * dt * np.arange(1, nsteps + 1)
    x_stars = [thr.x_star for thr in thresholds]
    args = (nsteps, dt, drift, b, x_stars, bounds[0].alpha)
    workers = min(workers, os.cpu_count() or 1)
    cuts = np.linspace(0, n_paths, workers + 1).astype(int)
    jobs = [(int(cuts[i]), int(cuts[i + 1])) for i in range(workers) if cuts[i] < cuts[i + 1]]
    if len(jobs) == 1:
        results = [_advance_paths(seed, *jobs[0], *args)]
    else:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(_advance_paths, seed, lo, hi, *args) for lo, hi in jobs]
            results = [f.result() for f in futures]
    paths = [path for result in results for path in result]
    # a row stays in the block until its last threshold resolves
    drawn = sum(max(steps for _, _, _, steps in path) for path in paths)
    estimates = []
    for j, (x_star, bound) in enumerate(zip(x_stars, bounds)):
        A_stop, p_stop, saturated, _ = zip(*(path[j] for path in paths))
        hits = sum(A >= x_star for A in A_stop)
        estimates.append(
            ProbabilityEstimate(
                p_hat=hits / n_paths,
                n_paths=n_paths,
                analytic_reference=bound.p_blowup_lower,
                truncation_allowance=math.fsum(p_stop) / n_paths,
                n_censored=n_paths - hits,
                n_saturated=sum(saturated),
                seed=seed,
            )
        )
    logger.info(
        "mc pass: N=%d, normals drawn=%d of %d; %s",
        n_paths,
        drawn,
        n_paths * nsteps,
        "; ".join(
            f"v0psi={thr.v0psi:g}: p_hat={est.p_hat:.5f} allowance={est.truncation_allowance:.3g}"
            for thr, est in zip(thresholds, estimates)
        ),
    )
    return SweepEstimate(n_paths=n_paths, seed=seed, normals_drawn=drawn, estimates=tuple(estimates))
