"""Command-line front end: five commands over one JSON config.

    spdelab <command> --config cfg.json [--seed N] [--out DIR] [--workers W]

Commands: eigen, blowup, simulate, certify, heat-kernel. Exit codes: 0 on
success, 2 for configuration problems and output I/O errors, 3 for numerical
failures and arrays too large to allocate, 4 for violated mathematical
preconditions.

Every float lands in CSV via repr(), so reruns of the same config are
byte-identical (the manifest carries the only timestamps). Output rows are
written by this process in path-index order regardless of --workers; with
--workers above 1, `blowup` forks Monte Carlo worker processes.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .blowup import (
    BlowupThreshold,
    analytic_blowup_bound,
    deterministic_dichotomy,
    lower_solution_series,
    mc_blowup_probability,
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

OUT_ENV_VAR = "SPDELAB_OUT"
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


def write_mass_series(path: Path, t_cells: list[str], mass: np.ndarray, sup: np.ndarray) -> Path:
    """Write one path's t, mass, sup series, the bytes write_csv gives.

    ``t_cells`` is the time column already formatted, at least as long as
    the series: every path of a run shares one time grid, so it is
    formatted once. Each float goes through repr(), as in _cell.
    """
    rows = zip(t_cells, map(repr, mass.tolist()), map(repr, sup.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("t,mass,sup\n" + "\n".join(map(",".join, rows)) + "\n")
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
    finished_at: str = ""
    outputs: list[str] = field(default_factory=list)

    def write(self, out_dir: Path) -> Path:
        self.finished_at = _now()
        name = f"{self.command.replace('-', '_')}_manifest.json"
        return write_json(out_dir / name, self.__dict__)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _resolve_out_dir(cli_out: str | None, cfg: RunConfig) -> Path:
    directory = cli_out or os.environ.get(OUT_ENV_VAR) or cfg.outputs.directory or "."
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def _sample_path(sim, kappa: float, seed: int, path_index: int) -> BrownianPath:
    if kappa == 0:
        return BrownianPath.frozen_zero(sim.horizon, sim.dt)
    return sample_brownian(sim.horizon, sim.dt, seed, path_index)


# ---------------------------------------------------------------------------
# commands


def cmd_eigen(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """Dirichlet eigenvalues, Richardson extrapolation, principal mode"""
    dom = cfg.need("domain")
    n_coarse = dom.n
    n_fine = dom.n_fine if dom.n_fine is not None else 2 * (n_coarse + 1) - 1
    results = {}
    for label, n in (("", n_coarse), ("_fine", n_fine)):
        grid = build_grid(dom, n)
        eig = solve_eigenpairs(grid, min(4, grid.npoints))
        results[label] = (grid, eig)
    grid, eig = results[""]
    grid_f, eig_f = results["_fine"]
    # both mesh widths shrink by the same factor, so one Richardson ratio
    # serves every axis
    ratio = (grid.h[0] / grid_f.h[0]) ** 2
    payload = {
        "n": n_coarse,
        "n_fine": n_fine,
        "ratio": ratio,
        "lam1": eig.lam1,
        "lam2": eig.lam2,
        "lam1_fine": eig_f.lam1,
        "lam2_fine": eig_f.lam2,
        "lam1_extrapolated": richardson_extrapolate(eig.lam1, eig_f.lam1, ratio),
        "lam2_extrapolated": richardson_extrapolate(eig.lam2, eig_f.lam2, ratio),
    }
    files = [write_json(out_dir / "eigenvalues.json", payload)]
    axes = list(zip(("x", "y"), grid.nodes()))
    rows = [
        {**{name: c[i] for name, c in axes}, "psi": eig.psi[i]} for i in range(grid.npoints)
    ]
    files.append(write_csv(out_dir / "psi.csv", rows))
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
            # constant fields carry their value as exact psi-mass
            f = mass * np.ones(eigen.grid.npoints)
            verdict = deterministic_dichotomy(f, eigen, params)
            rows.append(
                {"mass": mass, "threshold": verdict.threshold, "verdict": verdict.outcome.value}
            )
        return [write_csv(out_dir / "dichotomy.csv", rows)]
    levels = [BlowupThreshold(m, params).x_star for m in sim.v0psi_sweep]
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
    rows = []
    for v0psi, x_star, est in zip(sim.v0psi_sweep, levels, sweep.estimates):
        bound = analytic_blowup_bound(eigen.lam1, params.kappa, params.beta, x_star)
        rows.append(
            {
                "v0psi": v0psi,
                "x_star": x_star,
                "z_star": bound.z_star,
                "alpha": bound.alpha,
                "p_analytic_blowup": bound.p_blowup_lower,
                "p_hat": est.p_hat,
                "stderr": est.stderr,
                "n_censored": est.n_censored,
                "truncation_allowance": est.truncation_allowance,
                "n_saturated": est.n_saturated,
            }
        )
    return [write_csv(out_dir / "blowup.csv", rows)]


def _consistency_row(traj, traj_em, path, params, t_i, lower, tau) -> dict:
    """Cross-checks for one path: transform agreement and domination of the
    lower solution (t_i, lower) up to its blowup time tau. lower is None when
    there is no lower solution."""
    u_sup = reconstruct_u(traj, path, params.kappa).sup
    k = min(len(u_sup), len(traj_em.sup))
    scale = np.maximum(np.abs(u_sup[:k]), 1e-300)
    em_diff = float(np.max(np.abs(traj_em.sup[:k] - u_sup[:k]) / scale))
    ratio_min = None
    if lower is not None:
        t_end = min(
            traj.t_blowup if traj.t_blowup is not None else math.inf,
            tau if tau is not None else math.inf,
            path.horizon,
        )
        k = min(len(traj.times), len(t_i))
        keep = (t_i[:k] <= t_end) & np.isfinite(lower[:k]) & (lower[:k] > 0)
        if np.any(keep):
            ratio_min = float(np.min(traj.mass[:k][keep] / lower[:k][keep]))
    return {"em_transform_rel_diff": em_diff, "mass_over_lower_min": ratio_min}


def cmd_simulate(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """integrate trajectories and emit consistency diagnostics"""
    params = cfg.need("model")
    sim = cfg.need("sim")
    initial = cfg.need("initial")
    eigen = _eigen_setup(cfg, m=12)
    f = _initial_field(initial, eigen)
    mass0 = weighted_inner(eigen.grid, f, eigen.psi)
    threshold = BlowupThreshold(float(mass0), params) if mass0 > 0 else None
    # the Euler-Maruyama run is compared through its sup series and bracket
    em_cfg = replace(sim, max_snapshots=2)
    n_paths = 1 if params.kappa == 0 else sim.n_paths
    traj_rows, cons_rows, files = [], [], []
    t_cells = None
    for start in range(0, n_paths, BLOCK_PATHS):
        block = range(start, min(start + BLOCK_PATHS, n_paths))
        paths = [_sample_path(sim, params.kappa, seed, idx) for idx in block]
        if t_cells is None:  # every path runs on the grid k*dt
            t_cells = list(map(repr, paths[0].times.tolist()))
        trajs = simulate_paths(f, paths, params, eigen, sim, variable="v")
        trajs_em = simulate_paths(f, paths, params, eigen, em_cfg, variable="u")
        for idx, path, traj, traj_em in zip(block, paths, trajs, trajs_em):
            _, weak, mild = mode_residuals(traj, path, params, eigen)
            t_i = lower = tau = None
            if threshold is not None:
                t_i, lower, _, tau = lower_solution_series(path, threshold, eigen.lam1)
            series = write_mass_series(
                out_dir / f"mass_series_{idx:04d}.csv", t_cells, traj.mass, traj.sup
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
                    **_consistency_row(traj, traj_em, path, params, t_i, lower, tau),
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


def _fitted_c(cfg: RunConfig) -> float:
    cert = cfg.need("certificate")
    if cert.c != "fit":
        return float(cert.c)
    hk = cfg.heat_kernel
    return heat_kernel_ratio_report(_eigen_setup(cfg, m=hk.n_modes), hk.times()).c


def cmd_certify(cfg: RunConfig, out_dir: Path, seed: int | None, run: RunManifest) -> list[Path]:
    """evaluate global-existence certificates on a noise path"""
    params = cfg.need("model")
    sim = cfg.need("sim")
    cert = cfg.need("certificate")
    eigen = _eigen_setup(cfg, m=48)
    if cert.frozen_zero_path:
        path = BrownianPath.frozen_zero(sim.horizon, sim.dt)
    else:
        path = _sample_path(sim, params.kappa, seed, 0)
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
                _fitted_c(cfg),
                path=None if cert.analytic else path,
                f=f,
            )
        elif f is None:
            raise ConfigurationError(f"{kind} certificate needs an initial section")
        else:
            _check_sup_norm_kind(kind, f, params, eigen)
    # one series serves every sup-norm kind
    sup_kinds = [k for k in cert.kinds if k != CertificateKind.HEAT_KERNEL]
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
        p.add_argument(
            "--out", default=None, help=f"output directory (overrides ${OUT_ENV_VAR} and config)"
        )
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for Monte Carlo, at most the core count; results are "
            "worker-count invariant",
        )
        p.set_defaults(fn=fn)
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
        out_dir = _resolve_out_dir(args.out, cfg)
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
        files = args.fn(cfg, out_dir, seed, manifest)
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
