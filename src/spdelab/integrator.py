"""Trajectorywise integration of the transformed equation and the direct SPDE.

The transformed field v solves dv/dt = (Delta - kappa^2/2) v +
e^{-kappa W_t} G(e^{kappa W_t} v) along a fixed noise path; the physical field
u = e^{kappa W_t} v can instead be advanced directly with a multiplicative
Euler-Maruyama increment. Both use IMEX stepping: the stiff linear part is
implicit, the reaction explicit at the step start, which is the
non-anticipating reading of the noise factor.

One engine, ``simulate_paths``, advances a block of paths that share the
initial field, grid and scheme: each step is one reaction evaluation on
the (paths x nodes) block and one solve with one sparse factorization on all
of its right-hand sides. It is also the single-path integrator: one path is a
block of one, ``simulate_paths(f, [path], ...)[0]``, and every path's result
is bitwise independent of the block it ran in.

Numerical blowup is declared when the sup norm passes the cutoff; the path
leaves the block and its blowup time is bracketed by re-integrating the
offending step with halved dt (one factorization per halving level, shared by
the block), so the reported t_b carries resolution dt / 2^MAX_HALVINGS.

``mode_residuals`` checks a trajectory against the weak and the mild form
from one projection of its snapshots onto the eigenmodes. ``simulate``
reports, per path, the max over snapshots of the mode-1 weak residual
(``weak_residual_max``) and of the mild residual's Euclidean norm over the
12 retained modes (``mild_residual_max``); both are absolute.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .blowup import ModelParams, PowerLaw
from .domain import EigenData, _laplacian, _validate_initial
from .errors import ConfigurationError, NumericalFailure
from .stochastic import EXP_CLAMP, BrownianPath

logger = logging.getLogger(__name__)

POSITIVITY_TOL = 1e-8
# dt halvings that bracket a cutoff crossing inside its step
MAX_HALVINGS = 10


class Scheme(str, Enum):
    IMEX = "imex"  # backward Euler on the linear part
    CRANK_NICOLSON = "crank_nicolson"


class Outcome(str, Enum):
    COMPLETED = "completed_horizon"
    NUMERICAL_BLOWUP = "numerical_blowup"


@dataclass(frozen=True)
class SchemeConfig:
    """How paths are integrated; their time grid is read from the paths."""

    cutoff: float = 1e8
    scheme: Scheme = Scheme.IMEX
    max_snapshots: int = 1000

    def __post_init__(self):
        if self.cutoff <= 1:
            raise ConfigurationError(f"blowup cutoff must exceed one, got {self.cutoff}")
        if self.max_snapshots < 2:
            raise ConfigurationError(f"need at least 2 snapshots, got {self.max_snapshots}")


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    """One integrated trajectory: full-resolution scalar series, decimated fields.

    variable is "v" for the transformed equation and "u" for the physical one;
    mass is the pairing <field, psi> at every kept step, sup the grid sup norm.
    On numerical blowup the series stop at the last stable step; t_blowup is
    the refined cutoff-crossing time and t_last_stable its lower bracket.
    """

    variable: str
    outcome: Outcome
    t_blowup: float | None
    t_last_stable: float | None
    times: np.ndarray
    mass: np.ndarray
    sup: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray
    dt: float

    def __post_init__(self):
        if self.outcome is Outcome.NUMERICAL_BLOWUP:
            if self.t_blowup is None or self.t_last_stable is None:
                raise ConfigurationError("numerical blowup needs t_blowup and t_last_stable")
            if self.t_blowup < self.t_last_stable:
                raise ConfigurationError("t_blowup below its lower bracket")
        if not (np.all(np.isfinite(self.mass)) and np.all(np.isfinite(self.sup))):
            raise ConfigurationError("scalar series must stay finite up to the outcome time")
        if len(self.times) != len(self.mass) or len(self.times) != len(self.sup):
            raise ConfigurationError("scalar series lengths disagree")
        if len(self.snapshot_times) != self.snapshots.shape[0]:
            raise ConfigurationError("snapshot count disagrees with snapshot times")


class _Workspace:
    """Factorization of the implicit operator at one time step.

    lap is the sparse grid Laplacian and shift the zeroth-order coefficient
    moved into the implicit solve (kappa^2/2 for the transformed equation, 0
    for the physical one). One workspace serves every path of a block.
    """

    def __init__(self, lap, shift: float, dt: float, scheme: Scheme):
        # imported on first use, so that importing the package loads no scipy
        from scipy import sparse
        from scipy.sparse.linalg import splu

        eye = sparse.identity(lap.shape[0], format="csc")
        gen = (lap - shift * eye).tocsc()
        if scheme is Scheme.IMEX:
            implicit = eye - dt * gen
            self.explicit = None
        else:
            implicit = eye - 0.5 * dt * gen
            self.explicit = (eye + 0.5 * dt * gen).tocsr()
        try:
            self.solve = splu(implicit.tocsc()).solve
        except RuntimeError as exc:  # singular factorization
            raise NumericalFailure(f"implicit operator factorization failed: {exc}") from exc
        self.dt = dt


def _noise_factor(w, params: ModelParams) -> np.ndarray:
    """The noise factor of the transformed reaction at each noise value in w.

    c e^{kappa beta W} for a power law, e^{kappa W} otherwise, clamped. Each
    entry goes through math.exp, so a value does not depend on how many
    times are evaluated together.
    """
    w = np.asarray(w, dtype=float)
    power_law = isinstance(params.G, PowerLaw)
    if power_law:
        exponent = np.minimum(params.kappa * params.beta * w, EXP_CLAMP)
    else:
        exponent = np.clip(params.kappa * w, -EXP_CLAMP, EXP_CLAMP)
    factor = np.fromiter(map(math.exp, exponent.ravel().tolist()), float, exponent.size)
    factor = factor.reshape(exponent.shape)
    return params.G.coeff * factor if power_law else factor


def _transformed_reaction(
    values: np.ndarray, factor: np.ndarray, params: ModelParams
) -> np.ndarray:
    """e^{-kappa W} G(e^{kappa W} v) for fields values[..., :], one noise factor
    per field; collapsed analytically for power laws."""
    factor = factor[..., None]
    if isinstance(params.G, PowerLaw):
        return factor * np.power(np.maximum(values, 0.0), 1.0 + params.beta)
    return params.G(factor * values) / factor


def _step(block: np.ndarray, explicit_term: np.ndarray, ws: _Workspace) -> np.ndarray:
    """One linear-implicit step of a block of fields, one field per row, with
    the precomputed factorization; the only place fields are advanced."""
    if ws.explicit is None:
        rhs = block + ws.dt * explicit_term
    else:
        rhs = (ws.explicit @ block.T).T + ws.dt * explicit_term
    try:
        return ws.solve(rhs.T).T
    except RuntimeError as exc:
        raise NumericalFailure(f"linear solve failed: {exc}") from exc


def _check_positivity(new: np.ndarray, new_sup: np.ndarray, old_sup: np.ndarray, t: float) -> None:
    """Abort when a row dips below -1e-8 times its field scale."""
    if new.min() >= 0.0:
        return
    low = new.min(axis=1)
    lost = low < -POSITIVITY_TOL * np.maximum(np.maximum(new_sup, old_sup), 1e-300)
    if lost.any():
        raise NumericalFailure(f"positivity lost at t={t}: min={float(low[lost][0]):.3e}")


def _check_grids(paths: list[BrownianPath]) -> tuple[float, int]:
    """The (dt, nsteps) that every path of a block shares."""
    grids = {(path.dt, path.nsteps) for path in paths}
    if len(grids) != 1:
        raise ConfigurationError(
            f"the paths of one block need one time grid, got (dt, steps) {sorted(grids)}"
        )
    return grids.pop()


def _refine_blowup_time(
    values: np.ndarray,
    t_lo: float,
    t_hi: float,
    reaction,
    noise_at,
    level_workspace,
    dt: float,
    cutoff: float,
) -> tuple[float, float]:
    """Bracket the cutoff crossing inside [t_lo, t_hi] by dt halving, starting
    from the stable field ``values`` at t_lo.

    ``noise_at(t)`` gives the one-row noise term at an off-grid time, and
    ``level_workspace(dt)`` the factorization of a halving level. The
    cascade refines the PDE time step, not the noise resolution.
    """
    block = values[None, :]
    dt_f = dt
    for _ in range(MAX_HALVINGS):
        dt_f *= 0.5
        nsub = max(1, int(round((t_hi - t_lo) / dt_f)))
        ws = level_workspace(dt_f)
        t = t_lo
        for _ in range(nsub):
            nxt = _step(block, reaction(block, noise_at(t)), ws)
            if not np.max(np.abs(nxt)) < cutoff:
                t_hi = t + dt_f
                break
            block, t = nxt, t + dt_f
        # without a crossing at this dt the crossing sits at the bracket end
        # within this resolution
        t_lo = t
    return t_lo, t_hi


def simulate_paths(
    f: np.ndarray,
    paths: list[BrownianPath],
    params: ModelParams,
    eigen: EigenData,
    cfg: SchemeConfig,
    variable: str = "v",
) -> list[TrajectoryResult]:
    """Integrate one field per noise path, all from f, as one block, on the
    grid of ``eigen``, whose Laplacian is assembled here, and on the time grid
    of the paths, which must all share one.

    variable "v" integrates the transformed field, "u" the physical one with
    multiplicative Euler-Maruyama increments. Every step advances the
    (paths x nodes) block with one reaction evaluation and one solve on all
    right-hand sides; a path that crosses the cutoff leaves the block and has
    its crossing refined. Each result is bitwise the one its path gives in a
    block of its own.
    """
    if variable not in ("v", "u"):
        raise ConfigurationError(f"variable must be 'v' or 'u', got {variable!r}")
    dt, nsteps = _check_grids(paths)
    f = _validate_initial(f, eigen.grid)
    if variable == "v":
        shift = 0.5 * params.kappa**2
        noise = np.stack([_noise_factor(p.values[:nsteps], params) for p in paths], axis=1)

        def reaction(block, factor):
            return _transformed_reaction(block, factor, params)

        def noise_for(j):
            times, values = paths[j].times, paths[j].values
            return lambda t: _noise_factor([np.interp(t, times, values)], params)

    else:
        shift = 0.0
        # multiplicative increment folded into the explicit term:
        # u + dt G(u) + kappa u dW = u + dt (G(u) + kappa u dW/dt)
        noise = np.stack([np.diff(p.values) / dt for p in paths], axis=1)

        def reaction(block, rate):
            return params.G(block) + params.kappa * block * rate[:, None]

        def noise_for(j):
            return lambda t: noise[min(int(round(t / dt)), nsteps - 1), j : j + 1]

    lap = _laplacian(eigen.grid)
    ws = _Workspace(lap, shift, dt, cfg.scheme)

    @functools.cache
    def level_workspace(dt_level):  # one factorization per halving level and call
        return _Workspace(lap, shift, dt_level, cfg.scheme)

    weights, psi = eigen.grid.weights, eigen.psi
    stride = max(1, math.ceil((nsteps + 1) / cfg.max_snapshots))
    n_paths = len(paths)
    mass = np.empty((n_paths, nsteps + 1))
    sup = np.empty((n_paths, nsteps + 1))
    # one array per path: the unused tail of a path that stops early is
    # never touched, so it never becomes resident
    snaps = [np.empty((nsteps // stride + 2, f.size)) for _ in paths]
    n_snaps = np.ones(n_paths, dtype=int)

    def snapshot(rows, idx):  # append each row to the snapshots of its path
        for row, j in zip(rows, idx):
            snaps[j][n_snaps[j]] = row
        n_snaps[idx] += 1

    k_stop = np.full(n_paths, nsteps)
    brackets: list[tuple[float, float] | None] = [None] * n_paths

    block = np.repeat(f[None, :], n_paths, axis=0)
    block_sup = np.abs(block).max(axis=1)
    live = np.arange(n_paths)
    live_noise = noise
    mass[:, 0] = np.vecdot(psi * block, weights)
    sup[:, 0] = block_sup
    for snap in snaps:
        snap[0] = f
    t = 0.0
    for k in range(nsteps):
        new = _step(block, reaction(block, live_noise[k]), ws)
        new_sup = np.abs(new).max(axis=1)
        stable = new_sup < cfg.cutoff
        if not stable.all():
            blown = ~stable
            if k % stride:
                snapshot(block[blown], live[blown])
            for i in np.flatnonzero(blown):
                j = live[i]
                k_stop[j] = k
                brackets[j] = _refine_blowup_time(
                    block[i], t, t + dt, reaction, noise_for(j), level_workspace, dt, cfg.cutoff
                )
            live, live_noise = live[stable], live_noise[:, stable]
            block, block_sup = block[stable], block_sup[stable]
            new, new_sup = new[stable], new_sup[stable]
            if live.size == 0:
                break
        if variable == "v":
            _check_positivity(new, new_sup, block_sup, t + dt)
        t += dt
        block, block_sup = new, new_sup
        mass[live, k + 1] = np.vecdot(psi * block, weights)
        sup[live, k + 1] = block_sup
        if (k + 1) % stride == 0:
            snapshot(block, live)
    if nsteps % stride:
        snapshot(block, live)

    results = []
    for j, path in enumerate(paths):
        times = path.times
        keep = k_stop[j] + 1
        snap_idx = np.arange(0, keep, stride)
        if snap_idx[-1] != k_stop[j]:
            snap_idx = np.append(snap_idx, k_stop[j])
        t_last_stable, t_blowup = brackets[j] if brackets[j] is not None else (None, None)
        outcome = Outcome.COMPLETED if brackets[j] is None else Outcome.NUMERICAL_BLOWUP
        result = TrajectoryResult(
            variable=variable,
            outcome=outcome,
            t_blowup=t_blowup,
            t_last_stable=t_last_stable,
            times=times[:keep],
            mass=mass[j, :keep],
            sup=sup[j, :keep],
            snapshot_times=times[snap_idx],
            snapshots=snaps[j][: n_snaps[j]],
            dt=dt,
        )
        if outcome is Outcome.NUMERICAL_BLOWUP:
            logger.info(
                "numerical blowup: t_b in [%.6g, %.6g] (sup %.3g at last stable step)",
                t_last_stable, t_blowup, result.sup[-1],
            )
        results.append(result)
    return results


def reconstruct_u(traj: TrajectoryResult, path: BrownianPath, kappa: float) -> TrajectoryResult:
    """Map a transformed trajectory to the physical field via u = e^{kappa W} v."""
    if traj.variable != "v":
        raise ConfigurationError("reconstruction applies to transformed trajectories only")
    if abs(traj.dt - path.dt) > 1e-12 * path.dt or traj.times[-1] > path.horizon * (1 + 1e-12):
        raise ConfigurationError("trajectory and path are on different time grids")
    idx = np.rint(traj.times / path.dt).astype(int)
    factor = np.exp(np.minimum(kappa * path.values[idx], EXP_CLAMP))
    snap_idx = np.rint(traj.snapshot_times / path.dt).astype(int)
    snap_factor = np.exp(np.minimum(kappa * path.values[snap_idx], EXP_CLAMP))
    return replace(
        traj,
        variable="u",
        mass=traj.mass * factor,
        sup=traj.sup * factor,
        snapshots=traj.snapshots * snap_factor[:, None],
    )


def mode_residuals(
    traj: TrajectoryResult,
    path: BrownianPath,
    params: ModelParams,
    eigen: EigenData,
    n_modes: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Weak-form and mild-form residuals of a trajectory on its snapshot grid.

    The snapshots and their reaction are projected onto the retained
    eigenmodes once; in coefficient space both forms read the mode equation
    c' = -mu c + b, with mu = lam + kappa^2/2 for v and mu = lam for u (the
    discrete eigenrelation replaces <field, Delta phi_j> by -lam_j <field,
    phi_j> exactly). Returns (times, weak, mild):

    - weak is the residual of the integrated identity, trapezoid rule on the
      drift, max over the first n_modes modes. For u it carries the Ito sum
      with left-point increments, whose accuracy is limited by the snapshot
      spacing.
    - mild is the residual of the variation-of-constants form, Euclidean norm
      over all retained modes. The convolution obeys conv_i = a_i conv_{i-1}
      + x_i, with a_i = e^{-mu dt_i} the exact kernel across snapshot
      interval i and x_i its trapezoid term. That recursion runs as a
      Hillis-Steele scan over all modes at once: log2(snapshots) passes,
      each of which composes the affine maps of the next span of intervals.
      It is None for u, since the mild form is stated for the transformed
      equation.
    """
    if n_modes < 1 or n_modes > eigen.m:
        raise ConfigurationError(f"n_modes must be in [1, {eigen.m}], got {n_modes}")
    t = traj.snapshot_times
    fields = traj.snapshots
    w = eigen.grid.weights
    w_at = np.interp(t, path.times, path.values)
    if traj.variable == "v":
        mu = eigen.eigenvalues + 0.5 * params.kappa**2
        react = _transformed_reaction(fields, _noise_factor(w_at, params), params)
    else:
        mu = eigen.eigenvalues
        react = params.G(fields)
    coeff = (fields * w[None, :]) @ eigen.modes  # <field, phi_j> at snapshot times
    b = (react * w[None, :]) @ eigen.modes

    c = coeff[:, :n_modes]
    drift = -mu[None, :n_modes] * c + b[:, :n_modes]
    dt_s = np.diff(t)
    drift_int = np.vstack([
        np.zeros((1, n_modes)),
        np.cumsum(0.5 * dt_s[:, None] * (drift[1:] + drift[:-1]), axis=0),
    ])
    weak_res = c - c[0][None, :] - drift_int
    if traj.variable == "u":
        increments = params.kappa * c[:-1] * np.diff(w_at)[:, None]
        weak_res -= np.vstack([np.zeros((1, n_modes)), np.cumsum(increments, axis=0)])
        mild = None
    else:
        # inclusive scan of conv_i = decay_i conv_{i-1} + x_i, conv_0 = 0:
        # after the pass at distance d, row i of conv and decay composes the
        # 2d intervals ending at snapshot i
        decay = np.exp(-np.outer(dt_s, mu))
        conv = np.zeros_like(coeff)
        conv[1:] = 0.5 * dt_s[:, None] * (decay * b[:-1] + b[1:])
        d = 1
        while d < len(dt_s):
            conv[d + 1 :] += decay[d:] * conv[1:-d]
            decay[d:] = decay[d:] * decay[:-d]
            d *= 2
        homogeneous = np.exp(-np.outer(t, mu)) * coeff[0][None, :]
        mild = np.sqrt(np.sum((coeff - homogeneous - conv) ** 2, axis=1))
    return t, np.max(np.abs(weak_res), axis=1), mild
