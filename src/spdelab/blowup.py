"""Mass pipeline: lower solution, its blowup time, Monte Carlo blowup probability.

The scalar reduction works on the weighted mass v(t, psi). The lower solution
I(t) solves the mass inequality turned ODE, and blows up exactly when the
exponential functional A(t) reaches the level x* = v0psi^(-beta)/(C beta) of
``hitting_level``; one pass of A(t) over a path gives both the series I(t_k)
and that time tau. The lower solution and the Monte Carlo kernel share one hit
rule, A(t_k) >= x*.
The probability that this ever happens has the closed gamma-tail form
1 - Q(alpha, 2/(kappa^2 beta^2 x*)); the Monte Carlo estimator below exists to
be checked against it, not the other way around.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, PreconditionFailure
from .stochastic import (
    BrownianPath,
    _clamped_exp,
    _n_steps,
    exp_functional,
    gamma_shape,
    gamma_tail,
    path_generators,
)

logger = logging.getLogger(__name__)

MIN_MC_PATHS = 1_000
# draws per generator call in the Monte Carlo kernel: small chunks lose to
# the per-call overhead, large ones draw past the point where a path stops
MC_CHUNK = 2000
# paths per block of the Monte Carlo kernel: each chunk operation is one numpy
# call over MC_BLOCK rows; wider blocks only grow the per-worker buffer
MC_BLOCK = 64
# a path stops once the probability that it still hits is at most this
MC_STOP_PROB = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Reaction model: the exponent beta, the noise strength kappa, and the
    reaction Lambda z^(1+beta) of the paper's prototype equation.

    C is the lower constant of the theorems, 0 <= C <= Lambda: the lower
    solution reads C, the integrator and the certificates read Lambda, so
    the lab's bounds keep their two-sided form. Lambda = 0, and with it
    C = 0, is the linear equation. Cstar is the optional saturation range
    bound used by the saturation certificate.
    """

    beta: float
    kappa: float
    C: float = 1.0
    Lambda: float = 1.0
    Cstar: float | None = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.kappa < 0:
            raise ConfigurationError(f"kappa must be >= 0, got {self.kappa}")
        # the gamma law, the certificates and the integrator square kappa and
        # kappa beta; a float ** raises where a product gives inf
        if not math.isfinite(self.kappa * self.kappa):
            raise ConfigurationError(f"kappa={self.kappa!r} is too large: kappa^2 overflows")
        kb = self.kappa * self.beta
        if not math.isfinite(kb * kb):
            raise ConfigurationError(
                f"beta={self.beta!r} is too large at kappa={self.kappa!r}: "
                "(kappa beta)^2 overflows"
            )
        for name, value in (("C", self.C), ("Lambda", self.Lambda)):
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.Cstar is not None and self.Cstar <= 0:
            raise ConfigurationError(f"Cstar must be positive when set, got {self.Cstar}")
        if self.C > self.Lambda:
            raise ConfigurationError(f"C must be <= Lambda={self.Lambda}, got {self.C}")


def _check_lower_bound(params: ModelParams) -> None:
    """The lower solution divides by C beta, so it needs C beta > 0: C = 0,
    the linear equation among them, has none, and neither has a C beta that
    underflows to 0."""
    if not params.C * params.beta > 0:
        raise PreconditionFailure(
            f"the lower solution needs C beta > 0, got C={params.C!r}, beta={params.beta!r}"
        )


def hitting_level(v0psi: float, params: ModelParams) -> float:
    """Level x* = v0psi^(-beta)/(C beta) of initial mass v0psi, with beta and
    the lower constant C of params: the lower solution blows up when A(t)
    reaches it. +inf where a tiny mass overflows the power, which puts x* out
    of reach; a mass that is not > 0, NaN included, is refused, and so is a
    model with no lower solution (``_check_lower_bound``)."""
    _check_lower_bound(params)
    if not v0psi > 0:
        raise ConfigurationError(f"hitting level needs v0psi > 0, got {v0psi}")
    try:
        mass_power = float(v0psi) ** (-params.beta)
    except OverflowError:
        mass_power = math.inf
    return mass_power / (params.C * params.beta)


class BlowupBound(NamedTuple):
    p_blowup_lower: float
    p_global: float
    alpha: float
    z_star: float


def _drift_scale(beta: float, kappa: float, lam1: float) -> tuple[float, float]:
    return -(lam1 + 0.5 * kappa**2) * beta, kappa * beta


def lower_solution_series(
    path: BrownianPath, level: float, params: ModelParams, lam1: float
) -> tuple[np.ndarray, np.ndarray, int | None, float | None]:
    """Lower solution I(t_k) on the path grid and its blowup time tau, for
    the hitting level of ``hitting_level``, with beta, kappa and C read from
    params.

    Returns (times, values, blown_index, tau). A step is blown where
    A(t_k) >= level, the Monte Carlo kernel's hit rule; on the others
    I(t) = e^{-(lam1 + kappa^2/2) t} (C beta (level - A(t)))^(-1/beta).
    Entries from the first blown index are NaN, and that index is reported.
    tau is the time A(t) reaches the level, linearly interpolated inside the
    step that ends at blown_index. Both are None if the solution stays finite
    through the horizon.
    """
    beta, kappa = params.beta, params.kappa
    a, b = _drift_scale(beta, kappa, lam1)
    A, _ = exp_functional(path, a, b)
    alive = A < level
    t = path.times
    values = np.full_like(A, np.nan)
    gap = params.C * beta * (level - A[alive])
    values[alive] = np.exp(-(lam1 + 0.5 * kappa**2) * t[alive]) * gap ** (-1.0 / beta)
    if alive.all():
        return t, values, None, None
    k = int(np.argmin(alive))
    tau = 0.0  # k == 0 only when v0psi^(-beta) underflows to a level of 0
    if k > 0:
        dA = A[k] - A[k - 1]
        frac = 0.0 if dA == 0 else (level - A[k - 1]) / dA
        tau = float(t[k - 1] + frac * (t[k] - t[k - 1]))
    return t, values, k, tau


def analytic_blowup_bound(lam1: float, kappa: float, beta: float, level: float) -> BlowupBound:
    """P[A_inf < x] = Q(alpha, z), z = 2/(kappa^2 beta^2 x), and its
    complement: A_inf = int_0^inf e^{a s + b W_s} ds with (a, b) of
    ``_drift_scale`` is 2/(kappa^2 beta^2 Z), Z ~ Gamma(alpha). At the level
    x* of a mass this bounds P[blowup] from below; at a heat-kernel threshold
    p_global is the certification probability. x = +inf gives P[hit] = 0; a
    level that is NaN, <= 0 or underflows kappa^2 beta^2 x is refused."""
    alpha = gamma_shape(beta, kappa, lam1)
    scale = kappa**2 * beta**2 * level
    if not scale > 0:
        raise ConfigurationError(
            f"the gamma law has no finite argument at kappa={kappa!r}, beta={beta!r} and "
            f"level {level!r}: kappa^2 beta^2 level must be > 0"
        )
    z_star = 2.0 / scale
    p_global = gamma_tail(alpha, z_star)
    return BlowupBound(p_blowup_lower=1.0 - p_global, p_global=p_global, alpha=alpha, z_star=z_star)


class Dichotomy(str, Enum):
    BLOWUP_CERTIFIED = "blowup_certified"
    TAU_INFINITE = "tau_infinite"


class DichotomyVerdict(NamedTuple):
    outcome: Dichotomy
    threshold: float


def deterministic_dichotomy(mass: float, lam1: float, params: ModelParams) -> DichotomyVerdict:
    """Noiseless classification of the psi-mass against the lower solution's
    threshold (lam1/C)^(1/beta), with beta and the lower constant C of params:
    above it the lower solution of the reaction C z^(1+beta) blows up.

    The boundary case mass = (lam1/C)^(1/beta) classifies as TAU_INFINITE
    (the hitting functional saturates without crossing), and so does every
    mass when the power overflows, which puts the threshold at +inf. As
    ``hitting_level`` it refuses a model with no lower solution.
    """
    _check_lower_bound(params)
    try:
        threshold = (lam1 / params.C) ** (1.0 / params.beta)
    except OverflowError:
        threshold = math.inf
    outcome = Dichotomy.BLOWUP_CERTIFIED if mass > threshold else Dichotomy.TAU_INFINITE
    return DichotomyVerdict(outcome, threshold)


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Monte Carlo hitting estimate of one level, and the gamma law of
    A_inf at that level, which the estimate is checked against."""

    p_hat: float
    n_paths: int
    truncation_allowance: float
    n_censored: int
    n_saturated: int
    bound: BlowupBound

    @property
    def stderr(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_paths)


def _advance_paths(
    seed: int,
    lo: int,
    hi: int,
    nsteps: int,
    dt: float,
    a_dt: float,
    b: float,
    x_stars: Sequence[float],
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoidal A(t) of paths lo..hi-1, advanced in blocks of MC_BLOCK
    paths and chunks of MC_CHUNK steps, against every threshold of x_stars
    at once; each (path, threshold) cell resolves when the path reaches that
    x*, the gamma law stops it there, or at the horizon.

    Each path draws its chunk into its own row of one reusable buffer from
    its own stream. The first block builds the generators, and each later
    block reseeds them in one ``path_generators`` call; each stream is still
    bitwise ``np.random.default_rng([seed, i])``'s under the running numpy.
    The rest of a chunk is one numpy call per operation on the whole block,
    and every cell is computed on its own, so a path's results are bitwise
    the same for any block width or index split. A is nondecreasing, so a
    path has hit x* iff its chunk-end A >= x*. Past t the
    rest of A_inf is e^{at+bW_t} times an independent copy of A_inf, whose
    law is 2/(b^2 Z) with Z ~ Gamma(alpha); the path still hits x* with
    probability p = P(alpha, 2 e^{at+bW_t} / (b^2 (x* - A(t)))), one
    gammainc call per chunk over the open cells that did not hit, and that
    cell resolves once p <= MC_STOP_PROB. A cell resolves at the chunk end
    where a run against its threshold alone would stop the path, so its
    entries are bitwise that run's; the row leaves the block once all its
    cells have resolved. Returns four (paths, thresholds) arrays, paths in
    index order and thresholds in input order: A at the stop, p at the stop
    (0 after a hit), whether the exponent was clamped by then, and the steps
    advanced by then.
    """
    # imported on first use: at module level it slows `import spdelab.cli`
    from scipy.special import gammainc

    sqrt_dt = math.sqrt(dt)
    z_scale = 2.0 / (b * b)
    x = np.asarray(x_stars, dtype=float)
    shape = (hi - lo, len(x))
    A_stop, p_stop = np.empty(shape), np.empty(shape)
    sat_stop, steps = np.empty(shape, dtype=bool), np.empty(shape, dtype=np.int64)
    buf = np.empty((min(MC_BLOCK, hi - lo), min(MC_CHUNK, nsteps)))
    pool = None
    for first in range(lo, hi, MC_BLOCK):
        rows = np.arange(first - lo, min(first + MC_BLOCK, hi) - lo)
        # the first block builds the generators, later blocks reseed them
        pool = rngs = path_generators(seed, range(first, first + len(rows)), pool)
        is_open = np.ones((len(rows), len(x)), dtype=bool)
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
            # the drift a t_k = a_dt k of steps start+1..stop, built per
            # chunk so that no array grows with the horizon
            w += a_dt * np.arange(start + 1, stop + 1)
            saturated |= _clamped_exp(w)
            A += dt * (0.5 * e_last + w.sum(axis=1) - 0.5 * w[:, -1])
            e_last = w[:, -1].copy()
            hit = A[:, None] >= x
            p = np.zeros(is_open.shape)
            r, j = np.nonzero(is_open & ~hit)
            p[r, j] = gammainc(alpha, z_scale * e_last[r] / (x[j] - A[r]))
            done = is_open & (hit | (p <= MC_STOP_PROB) | (stop == nsteps))
            r, j = np.nonzero(done)
            A_stop[rows[r], j] = A[r]
            p_stop[rows[r], j] = p[r, j]
            sat_stop[rows[r], j] = saturated[r]
            steps[rows[r], j] = stop
            is_open &= ~done
            keep = is_open.any(axis=1)
            if not keep.any():
                break
            rows, is_open = rows[keep], is_open[keep]
            rngs = [rng for rng, k in zip(rngs, keep) if k]
            w_last, e_last, A, saturated = w_last[keep], e_last[keep], A[keep], saturated[keep]
    return A_stop, p_stop, sat_stop, steps


@dataclass(frozen=True)
class SweepEstimate:
    """One Monte Carlo pass over n_paths paths: an estimate per threshold,
    in input order, the normals the pass drew, and the processes that
    advanced the paths. The estimates do not depend on the worker count, so
    it takes no part in comparisons."""

    n_paths: int
    normals_drawn: int
    estimates: tuple[ProbabilityEstimate, ...]
    workers: int = field(default=1, compare=False)


def mc_blowup_probability(
    params: ModelParams,
    lam1: float,
    levels: Sequence[float],
    n_paths: int,
    horizon: float,
    dt: float,
    seed: int,
    workers: int = 1,
) -> SweepEstimate:
    """Estimate P[A_inf >= x] at every level x from one pass over n_paths
    independent paths.

    A level is the x* of a mass or a heat-kernel certificate threshold.
    a, b and the drift of A(t) depend only on beta, kappa and lam1, so every
    level reads the same paths and only x differs: each path is drawn and
    advanced once for the whole sweep. Each path index draws its own
    generator stream and runs only until, for every level, it has hit x, the
    gamma law gives it at most MC_STOP_PROB of still hitting, or the horizon.
    With workers > 1 the index range is cut into min(workers,
    os.cpu_count()) contiguous ranges, and each range runs in its own
    process, forked from this one; a single range runs in this process. Each
    range is advanced in blocks of MC_BLOCK paths, one row per path; see
    ``_advance_paths``. A level's per-path results equal those of a pass
    against it alone, so its estimate does not depend on which other levels
    share the pass. Every row is its own path, so results do not depend on
    the block width, and the hits are counted, so the estimates are
    identical for any worker count. Every worker process has exited when
    this returns or raises. A worker that dies, killed by a signal or by the
    OOM killer, raises ``concurrent.futures.process.BrokenProcessPool``.

    Each estimate carries the level's gamma law, evaluated once here; it
    also refuses a level that the law cannot take.

    The truncation allowance of a level is the mean over paths of the
    probability that a path still hits after it stopped (0 for a hit), summed
    exactly in path-index order: the expected fraction of paths, censored at
    their stop, that would hit by t = inf. p_hat + allowance therefore
    estimates P[A_inf >= x], the analytic reference, without bias up to the
    time-step error of the trapezoidal A.
    """
    if params.kappa <= 0:
        raise ConfigurationError("Monte Carlo needs kappa > 0; use deterministic_dichotomy")
    if not levels:
        raise ConfigurationError("Monte Carlo needs at least one threshold")
    if n_paths < MIN_MC_PATHS:
        raise ConfigurationError(f"need at least {MIN_MC_PATHS} paths, got {n_paths}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    nsteps = _n_steps(horizon, dt)
    x_stars = [float(x) for x in levels]
    bounds = [analytic_blowup_bound(lam1, params.kappa, params.beta, x) for x in x_stars]
    a, b = _drift_scale(params.beta, params.kappa, lam1)
    args = (nsteps, dt, a * dt, b, x_stars, bounds[0].alpha)
    workers = min(workers, os.cpu_count() or 1)
    cuts = np.linspace(0, n_paths, workers + 1).astype(int)
    jobs = [(int(cuts[i]), int(cuts[i + 1])) for i in range(workers) if cuts[i] < cuts[i + 1]]
    if len(jobs) == 1:
        results = [_advance_paths(seed, *jobs[0], *args)]
    else:
        # processes, since threads serialise on the GIL between the kernel's
        # numpy calls; forked, since a spawned worker would import numpy and
        # scipy afresh on every call; imported on first use, since at module
        # level the pool slows `import spdelab.cli`
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=len(jobs), mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [pool.submit(_advance_paths, seed, lo, hi, *args) for lo, hi in jobs]
            results = [f.result() for f in futures]
    A_stop, p_stop, saturated, steps = (np.concatenate(parts) for parts in zip(*results))
    # a row stays in the block until its last threshold resolves
    drawn = int(steps.max(axis=1).sum())
    hits = (A_stop >= np.asarray(x_stars)).sum(axis=0).tolist()
    estimates = [
        ProbabilityEstimate(
            p_hat=hits[j] / n_paths,
            n_paths=n_paths,
            truncation_allowance=math.fsum(p_stop[:, j].tolist()) / n_paths,
            n_censored=n_paths - hits[j],
            n_saturated=int(saturated[:, j].sum()),
            bound=bounds[j],
        )
        for j in range(len(x_stars))
    ]
    logger.info(
        "mc pass: N=%d, normals drawn=%d of %d; %s",
        n_paths,
        drawn,
        n_paths * nsteps,
        "; ".join(
            f"x={x:g}: p_hat={est.p_hat:.5f} allowance={est.truncation_allowance:.3g}"
            for x, est in zip(x_stars, estimates)
        ),
    )
    return SweepEstimate(
        n_paths=n_paths, normals_drawn=drawn, estimates=tuple(estimates), workers=len(jobs)
    )
