"""Trajectorywise integration of the transformed equation and the direct SPDE.

The equation is du = (Delta u + Lambda u^(1+beta)) dt + kappa u dW, the
paper's prototype; Lambda = 0 is the linear equation. The transformed field
v = e^{-kappa W_t} u solves dv/dt = (Delta - kappa^2/2) v +
Lambda e^{kappa beta W_t} v^(1+beta) along a fixed noise path; the physical
field u can instead be advanced directly with a multiplicative
Euler-Maruyama increment. Both use one IMEX step: the stiff linear part is
backward Euler, the reaction explicit at the step start, which is the
non-anticipating reading of the noise factor. Backward Euler keeps v
nonnegative at any dt, since the reaction is nonnegative and
(I - dt(Delta_h - shift))^{-1} is a nonnegative matrix.

One engine, ``simulate_paths``, advances a block of paths that share the
initial field and grid: each step, ``_advance``, builds the
explicit term of the (paths x nodes) block in place, in the slot of the
staging buffer that the new block fills, and makes one solve on all of its
rows, in the closed form of the grid's (-2, 1)/h^2 stencil: tridiagonal on
an interval, diagonal in the tensor sine basis on a rectangle; no matrix is
assembled. A chunk stages at most ``STAGE_BYTES`` of new fields and at most
``STAGE_STEPS`` steps. Once per chunk, a node-major copy of its new fields
gives their min and sup over nodes, and the cutoff crossings, positivity
check, mass and sup rows and the kept rows' mode projections follow. It is
also the single-path integrator: one path is a block of one,
``simulate_paths(f, [path], ...)[0]``, and every path's result is bitwise
independent of the block it ran in and of the chunk width.

Numerical blowup is declared when the sup norm passes the cutoff; the path
leaves the block at the end of its chunk and its blowup time is bracketed by
re-integrating the offending step, from the staged last stable field, with
halved dt (one factorization per halving level, shared by the block), so t_b
carries resolution dt / 2^MAX_HALVINGS unless a halved level no longer crosses.
One noise rule holds for both variables: every step and sub-step reads the
noise term of its own grid step, the factor at the step start for v and the
increment rate for u.

A trajectory keeps no node fields. At each kept row the engine stores the
field's weighted projection onto the modes of its eigenbasis and the
projection of the field's reaction, 2m numbers per row whatever the grid.
``mode_residuals`` checks a transformed trajectory against the weak and the
mild form from these coefficients; a u trajectory is not checked, since the
mild form is stated for the transformed equation, and the u route is
compared through its sup series and blowup bracket instead. ``simulate``
reports, per path, the max over snapshots of the mode-1 weak residual
(``weak_residual_max``) and of the mild residual's Euclidean norm over the
eigenbasis's retained modes (``mild_residual_max``); both are absolute.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .blowup import ModelParams
from .domain import EigenData, GridSpec, _sine_vectors, _spectrum, _validate_initial, weighted_inner
from .errors import ConfigurationError, NumericalFailure
from .stochastic import EXP_CLAMP, BrownianPath

logger = logging.getLogger(__name__)

POSITIVITY_TOL = 1e-8
# dt halvings that bracket a cutoff crossing inside its step
MAX_HALVINGS = 10
# a chunk of staged steps holds STAGE_BYTES // (8 * paths * nodes) steps of
# new fields, at least one and at most STAGE_STEPS, so that a path that
# crosses the cutoff early in its chunk stages few steps past the crossing
STAGE_BYTES = 1 << 19
STAGE_STEPS = 64


class Outcome(str, Enum):
    COMPLETED = "completed_horizon"
    NUMERICAL_BLOWUP = "numerical_blowup"


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    """One integrated trajectory: full-resolution scalar series, decimated
    mode coefficients.

    variable is "v" for the transformed equation and "u" for the physical one;
    mass is the pairing <field, psi> at every kept step, sup the grid sup norm.
    At each snapshot time, snapshot_coeffs holds the weighted pairings
    <field, phi_j> with the m modes of the eigenbasis the run used, and
    reaction_coeffs those of the field's reaction: Lambda e^{kappa beta W} v^(1+beta)
    for v, with W at the snapshot's own step, and Lambda u^(1+beta) for u. Both have shape
    (snapshots, m). On numerical blowup the series stop at the last stable
    step; t_blowup is the refined cutoff-crossing time and t_last_stable its
    lower bracket, both inside the crossing step:
    times[-1] <= t_last_stable <= t_blowup <= times[-1] + the path's dt.
    """

    variable: str
    outcome: Outcome
    t_blowup: float | None
    t_last_stable: float | None
    times: np.ndarray
    mass: np.ndarray
    sup: np.ndarray
    snapshot_times: np.ndarray
    snapshot_coeffs: np.ndarray
    reaction_coeffs: np.ndarray

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
        if self.snapshot_coeffs.shape != self.reaction_coeffs.shape:
            raise ConfigurationError("snapshot and reaction coefficients disagree in shape")
        if len(self.snapshot_times) != self.snapshot_coeffs.shape[0]:
            raise ConfigurationError("snapshot count disagrees with snapshot times")


class _Workspace:
    """The implicit operator of one time step, I - dt (lap - shift).
    solve(block) overwrites a (paths x nodes) block, C-ordered or not, with
    the solution of each row, each on its own, so a path's bits do not depend
    on its block.

    lap is the grid's (-2, 1)/h^2 stencil on each axis. An interval of two or
    more nodes is factored by LAPACK's tridiagonal dpttrf, O(n) a solve. Any
    other grid, a rectangle or the 1-node grid, is solved in the tensor sine
    basis, where the separable stencil is diagonal: a field X shaped rows x n
    solves as V_a ((V_a X V) / div) V, div = 1 + dt (lam + shift) over
    the grid's spectrum lam, V the symmetric orthogonal matrix of
    _sine_vectors and V_a = V (the 1-node grid is one row, with V_a = 1),
    O(n^3) a solve on an n x n rectangle. shift is kappa^2/2 for v, 0 for u.
    """

    def __init__(self, grid: GridSpec, shift: float, dt: float):
        self.dt = np.array(dt)  # 0-d, as _Reaction's constants
        n = grid.n
        if len(grid.h) == 1 and n > 1:
            # imported on first use, so that importing the package loads no scipy
            from scipy.linalg import lapack

            (h,) = grid.h
            d, e, info = lapack.dpttrf(
                np.full(n, 1.0 - dt * (-2.0 / h**2 - shift)),
                np.full(n - 1, -(dt * (1.0 / h**2))),
            )
            if info:
                raise NumericalFailure(f"implicit operator factorization failed: LAPACK info {info}")
            self._dpttrs = functools.partial(lapack.dpttrs, d, e)
            self._solve = self._solve_tridiagonal
        else:
            # the one sine matrix of every axis, after the 1 x 1 one of a single row
            sines = _sine_vectors(n, np.arange(1, n + 1))
            self._rows, self._cols = ([np.ones((1, 1))] + [sines] * len(grid.h))[-2:]
            lam = _spectrum(grid).reshape(-1, n)
            self._div = 1.0 + dt * (lam + shift)
            self._solve = self._solve_sine

    def solve(self, block: np.ndarray) -> None:
        if block.flags.c_contiguous:
            self._solve(block)
        else:  # both solves work in place on C-ordered memory only
            rows = np.ascontiguousarray(block)
            self._solve(rows)
            block[...] = rows

    def _solve_tridiagonal(self, block: np.ndarray) -> None:
        _, info = self._dpttrs(block.T, 1)  # overwrite_b: solve in place
        if info:
            raise NumericalFailure(f"linear solve failed: LAPACK info {info}")

    def _solve_sine(self, block: np.ndarray) -> None:
        # one temporary: each product past the first overwrites an operand
        # that has been read
        fields = block.reshape(len(block), *self._div.shape)
        coeffs = self._rows @ fields
        np.matmul(coeffs, self._cols, out=fields)
        fields /= self._div
        np.matmul(self._rows, fields, out=coeffs)
        np.matmul(coeffs, self._cols, out=fields)


def _noise_factor(w: np.ndarray, params: ModelParams) -> np.ndarray:
    """The noise factor Lambda e^{kappa beta W} of the transformed reaction at
    each noise value in w, its exponent clamped. Each entry goes through
    math.exp, so a value does not depend on how many times are evaluated
    together.
    """
    exponent = np.minimum(params.kappa * params.beta * w, EXP_CLAMP)
    factor = np.fromiter(map(math.exp, exponent.ravel().tolist()), float, exponent.size)
    return params.Lambda * factor.reshape(exponent.shape)


class _Reaction:
    """The reaction of a run's variable, written in place into out for a
    block of fields, one field per row: Lambda e^{kappa beta W} max(v, 0)^(1+beta)
    for v, with noise the column of the rows' noise factors (_noise_factor);
    Lambda max(u, 0)^(1+beta) for u, which reads no noise.

    Its constants are 0-d arrays, which a ufunc takes faster than floats,
    to the same bits.
    """

    def __init__(self, params: ModelParams, variable: str):
        self.variable = variable
        self.kappa = np.array(params.kappa)
        self.zero = np.array(0.0)
        self.exponent = np.array(1.0 + params.beta)
        self.coeff = np.array(params.Lambda)

    def __call__(self, fields: np.ndarray, noise, out: np.ndarray) -> None:
        np.maximum(fields, self.zero, out=out)
        np.power(out, self.exponent, out=out)
        out *= noise if self.variable == "v" else self.coeff


def _advance(reaction: _Reaction, cur, noise, ws: _Workspace, out, scratch) -> None:
    """One IMEX step of a block of fields, one field per row, on the step
    ws.dt; the only place fields are advanced. The explicit term at cur is
    built in out, the C-ordered block the step fills, then scaled by dt,
    added to cur and solved in place, so a step allocates nothing.

    noise is a column, one entry per row: the noise factor at the step start
    for v; for u the rate dW/dt of the step, whose multiplicative increment
    is folded into the explicit term, u + dt Lambda u^(1+beta) + kappa u dW
    = u + dt (Lambda u^(1+beta) + kappa u dW/dt), through scratch, a block
    shaped as out."""
    reaction(cur, noise, out)
    if reaction.variable == "u":
        np.multiply(cur, reaction.kappa, out=scratch)
        scratch *= noise
        out += scratch
    out *= ws.dt
    out += cur
    ws.solve(out)


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
    advance,
    noise,
    level_workspace,
    dt: float,
    cutoff: float,
) -> tuple[float, float]:
    """Bracket the cutoff crossing inside the step [t_lo, t_hi] by dt halving,
    starting from the stable field ``values`` at t_lo.

    ``advance(cur, noise, ws, out, scratch)`` is the run's step, ``noise`` the
    crossing step's own 1 x 1 noise column, which every sub-step reads, and
    ``level_workspace(dt)`` the factorization of a halving level. The cascade
    refines the PDE time step, not the noise resolution.
    """
    cur = values[None, :].copy()
    nxt, scratch = np.empty_like(cur), np.empty_like(cur)
    dt_f = dt
    for _ in range(MAX_HALVINGS):
        dt_f *= 0.5
        nsub = max(1, int(round((t_hi - t_lo) / dt_f)))
        ws = level_workspace(dt_f)
        t = t_lo
        for _ in range(nsub):
            advance(cur, noise, ws, nxt, scratch)
            if not np.max(np.abs(nxt)) < cutoff:
                t_hi = min(t + dt_f, t_hi)  # the sum may round past the step end
                break
            cur, nxt, t = nxt, cur, t + dt_f
        else:  # no crossing at this dt: the bracket the last level found stays
            break
        t_lo = t
    return t_lo, t_hi


def simulate_paths(
    f: np.ndarray,
    paths: list[BrownianPath],
    params: ModelParams,
    eigen: EigenData,
    cutoff: float,
    variable: str = "v",
    max_snapshots: int = 1000,
) -> list[TrajectoryResult]:
    """Integrate one field per noise path, all from f, as one block, on the
    grid of ``eigen`` and on the time grid of the paths, which must all share
    one, until the sup norm passes ``cutoff``, keeping at most
    ``max_snapshots`` rows of mode coefficients a path.

    variable "v" integrates the transformed field, "u" the physical one with
    multiplicative Euler-Maruyama increments; only a v trajectory's rows are
    read by ``mode_residuals``, whose mild form is stated for the transformed
    equation. Every step advances the (paths x nodes) block with one
    reaction evaluation and one solve on all right-hand sides, and writes it
    into the staging buffer; the checks and the series rows of a chunk of
    steps are read off the buffer at the chunk end. The noise terms are built chunk by chunk too, for the rows still in
    the block, each v factor through math.exp entry by entry, so no array of
    them grows with the horizon. A path that crosses the cutoff leaves the
    block there and has its crossing refined by dt halving, every sub-step
    reading the crossing step's own noise term. A kept row is stored as the
    coefficients of the field and of its reaction in ``eigen.modes``, each
    pairing a dot product of fixed length, so each result is bitwise the one
    its path gives in a block of its own, whatever the chunk width.
    """
    if variable not in ("v", "u"):
        raise ConfigurationError(f"variable must be 'v' or 'u', got {variable!r}")
    if max_snapshots < 2:
        raise ConfigurationError(f"max_snapshots must be at least 2, got {max_snapshots}")
    dt, nsteps = _check_grids(paths)
    times = paths[0].times  # the grid every path shares
    f = _validate_initial(f, eigen.grid)
    if not f.max() < cutoff:
        raise ConfigurationError(f"initial sup norm {f.max()} is not below the cutoff {cutoff}")
    # chunk_noise(rows, k0, c)[s, i] is path rows[i]'s noise term of step
    # k0 + s as a 1-entry column, built per chunk for the live rows only
    def chunk_noise(rows, k0, c):
        w = np.stack([paths[j].values[k0 : k0 + c + 1] for j in rows], axis=1)
        if variable == "v":  # the factor at each step start, and at k0 + c for a kept row
            return _noise_factor(w, params)[..., None]
        return (np.diff(w, axis=0) / dt)[..., None]

    shift = 0.5 * params.kappa**2 if variable == "v" else 0.0
    reaction = _Reaction(params, variable)
    advance = functools.partial(_advance, reaction)

    @functools.cache
    def level_workspace(dt_level):  # one factorization per step size and call
        return _Workspace(eigen.grid, shift, dt_level)

    ws = level_workspace(dt)
    weights = eigen.grid.weights
    modes_t = np.ascontiguousarray(eigen.modes.T)
    stride = max(1, math.ceil((nsteps + 1) / max_snapshots))
    n_paths, npoints = len(paths), eigen.grid.npoints
    # psi once per path: the mass pairing of a block multiplies whole steps,
    # not rows, to the same bits
    psi_rows = np.tile(eigen.psi, (n_paths, 1))
    mass = np.empty((n_paths, nsteps + 1))
    sup = np.empty((n_paths, nsteps + 1))
    # per path and kept row: the coefficients of the field, then of its reaction
    coeffs = np.empty((n_paths, nsteps // stride + 2, 2, eigen.m))
    k_stop = np.full(n_paths, nsteps)
    brackets: list[tuple[float, float] | None] = [None] * n_paths

    # stage[s] holds the block s steps into the chunk; stage[0] is its start
    width = min(STAGE_STEPS, max(1, STAGE_BYTES // (8 * n_paths * npoints)))
    stage = np.empty((width + 1, n_paths, npoints))
    scratch = np.empty((n_paths, npoints))
    stage[0] = f
    mass[:, 0] = weighted_inner(eigen.grid, stage[0], psi_rows)
    sup[:, 0] = np.abs(stage[0]).max(axis=1)
    live = np.arange(n_paths)
    k0 = 0
    while k0 < nsteps and live.size:
        c = min(width, nsteps - k0)
        block = stage[:, : live.size]
        step_noise, work = chunk_noise(live, k0, c), scratch[: live.size]
        # a path that crosses the cutoff keeps stepping to the chunk end; its
        # rows past the crossing overflow and reach no output
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(c):
                advance(block[s], step_noise[s], ws, block[s + 1], work)
            new = block[1 : c + 1]
            # one node-major copy of the new fields: their min and sup over
            # nodes are elementwise reductions over whole steps, exact, so
            # the bits of one reduction per field
            nodes = np.ascontiguousarray(np.moveaxis(new, 2, 0))
            low = nodes.min(axis=0) if variable == "v" else None
            new_sup = np.abs(nodes, out=nodes).max(axis=0)
            del nodes  # its memory serves the pairing
            pairing = weighted_inner(eigen.grid, new, psi_rows[: live.size])
            mass[live, k0 + 1 : k0 + c + 1] = pairing.T
            sup[live, k0 + 1 : k0 + c + 1] = new_sup.T
        stable = new_sup < cutoff
        # the step of each path's first crossing, c for none
        cross = np.where(stable.all(axis=0), c, np.argmin(stable, axis=0))
        blown = cross < c
        rows = np.arange(c + 1)[:, None]
        if variable == "v":  # a row dips below -1e-8 times its field scale
            old_sup = np.concatenate((sup[live, k0][None], new_sup[:-1]))
            scale = np.maximum(np.maximum(new_sup, old_sup), 1e-300)
            lost = (rows[:c] < cross) & (low < -POSITIVITY_TOL * scale)
            if lost.any():
                s, i = np.argwhere(lost)[0]
                t_lost = times[k0 + s + 1]
                raise NumericalFailure(f"positivity lost at t={t_lost}: min={low[s, i]:.3e}")
        # step k is kept at row ceil(k / stride): every stride-th step, then
        # the last stable step of a path that stops between them, the row at
        # t = T included. One dot product of fixed length per (row, mode):
        # the bits do not depend on how many rows are projected together
        final = k0 + c == nsteps
        last = np.where(blown, cross, c if final else c - 1)
        on_stride = ((k0 + rows) % stride == 0) & (rows <= last)
        stop = (blown | final) & (rows == last)
        s_kept, i_kept = np.nonzero(on_stride | stop)
        steps, idx = k0 + s_kept, live[i_kept]
        fields = block[s_kept, i_kept]
        pairs = np.empty((2, len(fields), npoints))
        np.multiply(fields, weights, out=pairs[0])
        reaction(fields, step_noise[s_kept, i_kept] if variable == "v" else None, pairs[1])
        pairs[1] *= weights
        kept = np.vecdot(pairs[:, :, None, :], modes_t)
        coeffs[idx, -(-steps // stride)] = kept.swapaxes(0, 1)
        for i in np.flatnonzero(blown):
            j, k = live[i], k0 + cross[i]
            k_stop[j], t_k = k, float(times[k])
            brackets[j] = _refine_blowup_time(
                block[cross[i], i], t_k, t_k + dt, advance, step_noise[cross[i], i, None],
                level_workspace, dt, cutoff,
            )
        live = live[~blown]
        stage[0, : live.size] = block[c, ~blown]
        k0 += c

    results = []
    for j in range(n_paths):
        keep_steps = k_stop[j] + 1
        # the steps the rows hold: step k went to row ceil(k / stride)
        snap_idx = np.minimum(stride * np.arange(-(-k_stop[j] // stride) + 1), k_stop[j])
        t_last_stable, t_blowup = brackets[j] if brackets[j] is not None else (None, None)
        outcome = Outcome.COMPLETED if brackets[j] is None else Outcome.NUMERICAL_BLOWUP
        result = TrajectoryResult(
            variable=variable,
            outcome=outcome,
            t_blowup=t_blowup,
            t_last_stable=t_last_stable,
            times=times[:keep_steps],
            mass=mass[j, :keep_steps],
            sup=sup[j, :keep_steps],
            snapshot_times=times[snap_idx],
            snapshot_coeffs=coeffs[j, : len(snap_idx), 0],
            reaction_coeffs=coeffs[j, : len(snap_idx), 1],
        )
        if outcome is Outcome.NUMERICAL_BLOWUP:
            logger.info(
                "numerical blowup: t_b in [%.6g, %.6g] (sup %.3g at last stable step)",
                t_last_stable, t_blowup, result.sup[-1],
            )
        results.append(result)
    return results


def reconstruct_u(traj: TrajectoryResult, path: BrownianPath, kappa: float) -> TrajectoryResult:
    """Map a transformed trajectory to the physical field via u = e^{kappa W} v.

    Both coefficient arrays scale by e^{kappa W}: that is exact for the
    reaction too, since Lambda (e^{kappa W} v)^(1+beta) = e^{kappa W} (Lambda
    e^{kappa beta W} v^(1+beta)).
    """
    if traj.variable != "v":
        raise ConfigurationError("reconstruction applies to transformed trajectories only")
    n = len(traj.times)
    if not np.array_equal(traj.times, path.times[:n]):
        raise ConfigurationError("trajectory and path are on different time grids")
    factor = np.exp(np.minimum(kappa * path.values[:n], EXP_CLAMP))
    snap_factor = factor[np.searchsorted(traj.times, traj.snapshot_times)]
    return replace(
        traj,
        variable="u",
        mass=traj.mass * factor,
        sup=traj.sup * factor,
        snapshot_coeffs=traj.snapshot_coeffs * snap_factor[:, None],
        reaction_coeffs=traj.reaction_coeffs * snap_factor[:, None],
    )


def mode_residuals(
    traj: TrajectoryResult,
    params: ModelParams,
    eigen: EigenData,
    n_modes: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak-form and mild-form residuals of a transformed trajectory on its
    snapshot grid.

    Only a v trajectory is checked: the mild form is stated for the
    transformed equation, and a u trajectory is refused. Both forms read the
    trajectory's stored coefficients in the modes of ``eigen``, which must be
    the eigenbasis it ran on, as the mode equation c' = -mu c + b: c are the
    snapshot coefficients, b those of the reaction, mu = lam + kappa^2/2 (the
    discrete eigenrelation replaces <v, Delta phi_j> by -lam_j <v, phi_j>
    exactly). Nothing is projected here. Returns (times, weak, mild):

    - weak is the residual of the integrated identity, trapezoid rule on the
      drift, max over the first n_modes modes.
    - mild is the residual of the variation-of-constants form, Euclidean norm
      over all retained modes. The convolution obeys conv_i = a_i conv_{i-1}
      + x_i, with a_i = e^{-mu dt_i} the exact kernel across snapshot
      interval i and x_i its trapezoid term. That recursion runs as a
      Hillis-Steele scan over all modes at once: log2(snapshots) passes,
      each of which composes the affine maps of the next span of intervals.
    """
    if traj.variable != "v":
        raise ConfigurationError("residuals are checked on transformed trajectories only")
    if traj.snapshot_coeffs.shape[1] != eigen.m:
        raise ConfigurationError(
            f"trajectory carries {traj.snapshot_coeffs.shape[1]} mode coefficients, "
            f"the eigenbasis has {eigen.m} modes"
        )
    if n_modes < 1 or n_modes > eigen.m:
        raise ConfigurationError(f"n_modes must be in [1, {eigen.m}], got {n_modes}")
    t = traj.snapshot_times
    coeff, b = traj.snapshot_coeffs, traj.reaction_coeffs
    mu = eigen.eigenvalues + 0.5 * params.kappa**2
    c = coeff[:, :n_modes]
    drift = -mu[None, :n_modes] * c + b[:, :n_modes]
    dt_s = np.diff(t)
    drift_int = np.vstack([
        np.zeros((1, n_modes)),
        np.cumsum(0.5 * dt_s[:, None] * (drift[1:] + drift[:-1]), axis=0),
    ])
    weak_res = c - c[0][None, :] - drift_int
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
