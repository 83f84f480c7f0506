"""Command-line front end: five commands over one JSON config.

    spdelab <command> --config cfg.json [--seed N] [--out DIR] [--workers W]

Commands: eigen, blowup, simulate, certify, heat-kernel. The parser is built
once per process, on the first call of main; each call then looks its command
up in ``_COMMANDS``, so a wrapped entry there is the one that runs. Exit codes:
0 on success, 2 for configuration problems (arrays numpy cannot hold included)
and output I/O errors, 3 for numerical failures and arrays too large for
memory, 4 for violated mathematical preconditions.

Every float lands in CSV via repr(), so reruns of the same config are
byte-identical (the manifest carries the only timestamps). Output rows are
written by this process in path-index order regardless of --workers; with
--workers above 1, `blowup` forks Monte Carlo worker processes.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import platform
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .blowup import (
    deterministic_dichotomy, hitting_level, lower_solution_series, mc_blowup_probability
)
from .certificates import (
    CertificateKind, _check_sup_norm_kind, certificate_heat_kernel, certificate_sup_norm
)
from .config import InitialConfig, RunConfig, load_config
from .domain import (
    EigenData,
    build_grid,
    heat_kernel_ratio_report,
    richardson_extrapolate,
    solve_eigenpairs,
    weighted_inner,
)
from .errors import ConfigurationError, NumericalFailure, PreconditionFailure
from .integrator import mode_residuals, reconstruct_u, simulate_paths
from .stochastic import BrownianPath, sample_brownian

# simulate advances its noise paths in blocks of this many: the per-step
# overhead is paid once per block, and memory stays bounded however many
# paths a run has
BLOCK_PATHS = 32


# ---------------------------------------------------------------------------
# output helpers


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: Path, rows: list[dict]) -> Path:
    """Write rows that map column names to cells, under a header of the
    first row's keys; every row has the same keys in the same order, and
    each cell is formatted by _cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_cell(x) for x in row.values()])
    return path


def write_columns(path: Path, columns: dict[str, list[str] | np.ndarray]) -> Path:
    """Write named columns under a header of their names, the bytes
    write_csv gives for the same floats.

    A column is a float array, each float formatted by repr() as in _cell,
    or a list of cells already formatted, such as the time column every
    path of a run shares. The rows stop at the shortest column.
    """
    cells = [c if isinstance(c, list) else map(repr, c.tolist()) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n" + "\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def write_json(path: Path, payload: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@dataclass
class RunManifest:
    """Provenance record for one command invocation.

    Timestamps aside, a rerun of the same config produces byte-identical
    output files; the manifest is what may differ. ``workers_requested`` is
    --workers; ``workers_used`` is the number of processes that ran the
    command's work, which a command that runs in one process leaves at 1.
    The versions and ``rng_scheme`` say what the bytes are reproducible
    under: numpy fixes its streams per version only. ``scipy_version`` is
    None when the process has not imported scipy, which only some commands
    need. ``normals_drawn`` is the Monte Carlo pass's count, None for a
    command that runs none.
    """

    command: str
    config_path: str
    config_sha256: str
    code_version: str
    seed: int | None
    started_at: str
    workers_requested: int
    cpu_count: int | None
    workers_used: int = 1
    normals_drawn: int | None = None
    python_version: str = platform.python_version()
    numpy_version: str = np.__version__
    scipy_version: str | None = None
    rng_scheme: str = "PCG64 default_rng([seed, path_index])"
    finished_at: str = ""
    outputs: list[str] = field(default_factory=list)

    def write(self, out_dir: Path) -> Path:
        self.finished_at = _now()
        # read at the end: importing scipy only to name it costs ~15 ms
        self.scipy_version = getattr(sys.modules.get("scipy"), "__version__", None)
        name = f"{self.command.replace('-', '_')}_manifest.json"
        return write_json(out_dir / name, self.__dict__)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# shared setup


def _eigen_setup(cfg: RunConfig, m: int = 4) -> EigenData:
    dom_cfg = cfg.need("domain")
    grid = build_grid(dom_cfg, dom_cfg.n)
    return solve_eigenpairs(grid, min(m, grid.npoints))


def _initial_field(initial: InitialConfig, eigen: EigenData) -> np.ndarray:
    if initial.mode == "eigen-multiple":
        return initial.a * eigen.psi
    table = Path(initial.file)
    try:
        values = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=1)
    except OSError as exc:
        raise ConfigurationError(f"cannot read initial data file {table}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"initial data file {table} is not numeric csv: {exc}") from exc
    values = np.atleast_1d(np.asarray(values, dtype=float).squeeze())
    if values.ndim != 1 or values.size != eigen.grid.npoints:
        raise ConfigurationError(
            f"initial data file has {values.size} values, grid has {eigen.grid.npoints} nodes"
        )
    return values


def _sample_path(sim, frozen: bool, seed: int, path_index: int) -> BrownianPath:
    """The run's path of index path_index, or the W = 0 path when frozen."""
    if frozen:
        return BrownianPath.frozen_zero(sim.horizon, sim.dt)
    return sample_brownian(sim.horizon, sim.dt, seed, path_index)


# ---------------------------------------------------------------------------
# commands


def cmd_eigen(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """Dirichlet eigenvalues, Richardson extrapolation, principal mode"""
    dom = cfg.need("domain")
    grid, grid_f = build_grid(dom, dom.n), build_grid(dom, dom.n_fine)
    eig, eig_f = (solve_eigenpairs(g, min(4, g.npoints)) for g in (grid, grid_f))
    # both mesh widths shrink by the same factor, so one Richardson ratio
    # serves every axis
    ratio = (grid.h[0] / grid_f.h[0]) ** 2
    payload = {
        "n": dom.n,
        "n_fine": dom.n_fine,
        "ratio": ratio,
        "lam1": eig.lam1,
        "lam2": eig.lam2,
        "lam1_fine": eig_f.lam1,
        "lam2_fine": eig_f.lam2,
        "lam1_extrapolated": richardson_extrapolate(eig.lam1, eig_f.lam1, ratio),
        "lam2_extrapolated": richardson_extrapolate(eig.lam2, eig_f.lam2, ratio),
    }
    files = [write_json(out_dir / "eigenvalues.json", payload)]
    columns = {**dict(zip(("x", "y"), grid.nodes())), "psi": eig.psi}
    files.append(write_columns(out_dir / "psi.csv", columns))
    return files


def cmd_blowup(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """analytic blowup bounds and Monte Carlo hitting estimates"""
    params = cfg.need("model")
    sim = cfg.need("sim")
    eigen = _eigen_setup(cfg)
    if not sim.v0psi_sweep:
        raise ConfigurationError("blowup command needs sim.v0psi_sweep")
    if params.kappa == 0:
        rows = []
        for mass in sim.v0psi_sweep:
            verdict = deterministic_dichotomy(mass, eigen.lam1, params)
            rows.append(
                {"mass": mass, "threshold": verdict.threshold, "verdict": verdict.outcome.value}
            )
        return [write_csv(out_dir / "dichotomy.csv", rows)]
    levels = [hitting_level(m, params) for m in sim.v0psi_sweep]
    sweep = mc_blowup_probability(
        params,
        eigen.lam1,
        levels,
        n_paths=sim.n_paths,
        horizon=sim.horizon,
        dt=sim.dt,
        seed=seed,
        workers=run.workers_requested,
    )
    run.workers_used = sweep.workers
    run.normals_drawn = sweep.normals_drawn
    rows = []
    for v0psi, x_star, est in zip(sim.v0psi_sweep, levels, sweep.estimates):
        rows.append(
            {
                "v0psi": v0psi,
                "x_star": x_star,
                "z_star": est.bound.z_star,
                "alpha": est.bound.alpha,
                "p_analytic_blowup": est.bound.p_blowup_lower,
                "p_hat": est.p_hat,
                "stderr": est.stderr,
                "n_censored": est.n_censored,
                "truncation_allowance": est.truncation_allowance,
                "n_saturated": est.n_saturated,
            }
        )
    return [write_csv(out_dir / "blowup.csv", rows)]


def _consistency_row(traj, traj_em, path, params, lower, tau) -> dict:
    """Cross-checks for one path: transform agreement and domination of the
    lower solution, on the path grid, up to its blowup time tau. lower is
    None when there is no lower solution."""
    u_sup = reconstruct_u(traj, path, params.kappa).sup
    k = min(len(u_sup), len(traj_em.sup))
    scale = np.maximum(np.abs(u_sup[:k]), 1e-300)
    em_diff = float(np.max(np.abs(traj_em.sup[:k] - u_sup[:k]) / scale))
    ratio_min = None
    if lower is not None:
        t_end = min(
            traj.t_blowup if traj.t_blowup is not None else math.inf,
            tau if tau is not None else math.inf,
        )
        lower = lower[: len(traj.times)]
        keep = (traj.times <= t_end) & np.isfinite(lower) & (lower > 0)
        if np.any(keep):
            ratio_min = float(np.min(traj.mass[keep] / lower[keep]))
    return {"em_transform_rel_diff": em_diff, "mass_over_lower_min": ratio_min}


def cmd_simulate(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """integrate trajectories and emit consistency diagnostics"""
    params = cfg.need("model")
    sim = cfg.need("sim")
    initial = cfg.need("initial")
    # the trajectories keep, and the residuals read, 12 mode coefficients
    eigen = _eigen_setup(cfg, m=12)
    f = _initial_field(initial, eigen)
    mass0 = weighted_inner(eigen.grid, f, eigen.psi)
    try:  # no lower solution where C beta is not > 0, as at C = 0
        level = hitting_level(float(mass0), params) if mass0 > 0 else None
    except PreconditionFailure:
        level = None
    n_paths = 1 if params.kappa == 0 else sim.n_paths
    traj_rows, cons_rows, files, t_cells = [], [], [], []
    for start in range(0, n_paths, BLOCK_PATHS):
        block = range(start, min(start + BLOCK_PATHS, n_paths))
        paths = [_sample_path(sim, params.kappa == 0, seed, idx) for idx in block]
        trajs = simulate_paths(f, paths, params, eigen, sim.cutoff, variable="v")
        # every path runs on the grid k*dt: its times are formatted once, as
        # far as the longest series written so far
        longest = max(len(traj.mass) for traj in trajs)
        t_cells += map(repr, paths[0].times[len(t_cells) : longest].tolist())
        # at kappa = 0 the v step is the EM step operation for operation, so
        # the v run is the EM run, bit for bit
        trajs_em = trajs
        if params.kappa != 0:
            # compared through its sup series and bracket only: 2 kept rows
            trajs_em = simulate_paths(
                f, paths, params, eigen, sim.cutoff, variable="u", max_snapshots=2
            )
        for idx, path, traj, traj_em in zip(block, paths, trajs, trajs_em):
            _, weak, mild = mode_residuals(traj, params, eigen)
            lower = tau = None
            if level is not None:
                _, lower, _, tau = lower_solution_series(path, level, params, eigen.lam1)
            series = write_columns(
                out_dir / f"mass_series_{idx:04d}.csv",
                {"t": t_cells, "mass": traj.mass, "sup": traj.sup},
            )
            files.append(series)
            traj_rows.append(
                {
                    "path_index": idx,
                    "outcome": traj.outcome.value,
                    "t_blowup": traj.t_blowup,
                    "t_last_stable": traj.t_last_stable,
                    "tau_analytic": tau,
                    "mass_initial": mass0,
                    "mass_final": float(traj.mass[-1]),
                    "sup_final": float(traj.sup[-1]),
                    "mass_series_file": series.name,
                }
            )
            cons_rows.append(
                {
                    "path_index": idx,
                    "outcome": traj.outcome.value,
                    **_consistency_row(traj, traj_em, path, params, lower, tau),
                    "weak_residual_max": weak.max(),
                    "mild_residual_max": mild.max(),
                    "t_blowup_em": traj_em.t_blowup,
                    "t_last_stable_em": traj_em.t_last_stable,
                }
            )
    tables = [
        write_csv(out_dir / "trajectories.csv", traj_rows),
        write_csv(out_dir / "consistency.csv", cons_rows),
    ]
    return tables + files


def _fitted_c(cfg: RunConfig, basis: EigenData) -> float:
    """certificate.c, or the constant fitted on the leading
    heat_kernel.n_modes eigenpairs of basis."""
    cert = cfg.need("certificate")
    if cert.c != "fit":
        return float(cert.c)
    hk = cfg.heat_kernel
    return heat_kernel_ratio_report(basis.leading(hk.n_modes), hk.times()).c


def cmd_certify(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """evaluate global-existence certificates on a noise path"""
    params = cfg.need("model")
    cert = cfg.need("certificate")
    # one basis serves the certificates, on its 48 leading modes, and the
    # fit of c, on its heat_kernel.n_modes leading modes
    fit = CertificateKind.HEAT_KERNEL in cert.kinds and cert.c == "fit"
    basis = _eigen_setup(cfg, m=max(48, cfg.heat_kernel.n_modes) if fit else 48)
    eigen = basis.leading(48)
    sup_kinds = [k for k in cert.kinds if k != CertificateKind.HEAT_KERNEL]
    # the analytic heat-kernel kind is the one kind that reads no path
    path = None
    if sup_kinds or not cert.analytic:
        path = _sample_path(cfg.need("sim"), cert.frozen_zero_path or params.kappa == 0, seed, 0)
    f = _initial_field(cfg.initial, eigen) if cfg.initial is not None else None
    # every kind's checks run in the listed order before the sup-norm series
    # is evaluated, so the first fault listed is the one reported; the
    # heat-kernel report needs no series and is built where it is listed
    reports = {}
    for kind in cert.kinds:
        if kind == CertificateKind.HEAT_KERNEL:
            if cert.K is None:
                raise ConfigurationError("heat_kernel certificate needs certificate.K")
            reports[kind] = certificate_heat_kernel(
                cert.K,
                cert.eta,
                params,
                eigen,
                _fitted_c(cfg, basis),
                path=None if cert.analytic else path,
                f=f,
            )
        elif f is None:
            raise ConfigurationError(f"{kind} certificate needs an initial section")
        else:
            _check_sup_norm_kind(kind, f, params, eigen)
    # one series serves every sup-norm kind
    if sup_kinds:
        reports.update(certificate_sup_norm(path, f, params, eigen, sup_kinds))
    rows = []
    for kind in cert.kinds:
        report = reports[kind]
        rows.append(
            {
                "kind": kind,
                "J": None if math.isnan(report.J) else report.J,
                "threshold": report.threshold,
                "verdict": None if report.verdict is None else report.verdict.value,
                "envelope_max": None if report.envelope is None else float(np.max(report.envelope)),
                "probability_certified": report.probability,
                "tail": None if report.verdict is None else report.tail,
                "reason": report.reason,
            }
        )
    return [write_csv(out_dir / "certificates.csv", rows)]


def cmd_heat_kernel(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """sample the kernel ratio and fit the sandwich constant"""
    hk = cfg.heat_kernel
    basis = _eigen_setup(cfg, m=hk.n_modes)
    report = heat_kernel_ratio_report(basis, hk.times())
    rows = [
        {"t": t, "ratio": r, "lower_bound": lo, "upper_bound_with_fitted_c": up, "pass": ok}
        for t, r, lo, up, ok in zip(
            report.times, report.ratios, report.lower, report.upper, report.passed
        )
    ]
    files = [write_csv(out_dir / "heatkernel.csv", rows)]
    files.append(
        write_json(
            out_dir / "heatkernel_summary.json",
            {
                "c": report.c,
                "dimension": basis.grid.domain.dimension,
                "spectral_gap": basis.lam2 - basis.lam1,
                "n_modes": basis.m,
                "truncation_estimate": report.truncation_estimate,
                "truncation_warning": bool(report.truncation_warning),
            },
        )
    )
    return files


# each command's help is its docstring
_COMMANDS = {
    "eigen": cmd_eigen,
    "blowup": cmd_blowup,
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "heat-kernel": cmd_heat_kernel,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="Numerical laboratory for blowup and global existence in a "
        "stochastically forced semilinear heat equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        p.add_argument("--out", default=".", help="output directory, default the working one")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for Monte Carlo, at most the core count; results are "
            "worker-count invariant",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = _now()
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        if args.workers < 1:
            raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else (cfg.sim.seed if cfg.sim else None)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            command=args.command,
            config_path=str(args.config),
            config_sha256=cfg.sha256,
            code_version=__version__,
            seed=seed,
            started_at=started,
            workers_requested=args.workers,
            cpu_count=os.cpu_count(),
        )
        files = _COMMANDS[args.command](cfg, out_dir, seed, manifest)
        manifest.outputs = [f.name for f in files]
        files.append(manifest.write(out_dir))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PreconditionFailure as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except BrokenExecutor as exc:
        # the base of BrokenProcessPool, importable without loading the
        # process pool: a Monte Carlo worker was killed, by a signal or by
        # the OOM killer
        print(f"numerical failure: a worker process died: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # config and initial-data reads report their own OSErrors as
        # configuration errors, so what arrives here failed on output
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
