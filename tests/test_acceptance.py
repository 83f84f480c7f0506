"""Acceptance gate: nine end-to-end criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`. The Monte Carlo criteria
(2, 6, 9) dominate the runtime: expect several minutes total.
"""

import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from spdelab.blowup import (
    Dichotomy,
    ModelParams,
    deterministic_dichotomy,
    hitting_level,
    lower_solution_series,
)
from spdelab.certificates import CertificateKind, Verdict, certificate_sup_norm
from spdelab.cli import main
from spdelab.domain import (
    DomainSpec,
    build_grid,
    heat_kernel_ratio_report,
    richardson_extrapolate,
    solve_eigenpairs,
    weighted_inner,
)
from spdelab.integrator import (
    Outcome,
    reconstruct_u,
    simulate_paths,
)
from spdelab.stochastic import BrownianPath, blowup_density, gamma_tail, sample_brownian


_terminal = None


@pytest.fixture(autouse=True)
def _hook_terminal(request):
    # route the criterion lines to the live terminal even under capture
    global _terminal
    _terminal = None
    if request.config.getoption("capture") != "no":
        _terminal = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _terminal = None


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    if _terminal is not None:
        _terminal.write_line(line)
    assert ok, line


def _setup(kind: str, lengths, n: int, m: int = 4):
    dom = DomainSpec(kind=kind, lengths=tuple(lengths))
    grid = build_grid(dom, n)
    return dom, grid, solve_eigenpairs(grid, m)


@pytest.fixture(scope="module")
def mc_runs(tmp_path_factory):
    """Two CLI runs of the reference Monte Carlo configuration: worker counts
    1 and 3, same seed. Shared by criteria 2 and 9."""
    root = tmp_path_factory.mktemp("mc")
    cfg = {
        "domain": {"kind": "interval", "lengths": [math.pi], "n": 512},
        "model": {"beta": 1.0, "kappa": 1.0},
        "sim": {
            "dt": 1e-3,
            "horizon": 50.0,
            "n_paths": 100000,
            "seed": 12345,
            "v0psi_sweep": [0.5],
        },
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = {}
    for label, workers in (("w1", 1), ("w3", 3)):
        out = root / label
        rc = main(["blowup", "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)])
        assert rc == 0, f"blowup command failed with exit code {rc}"
        outs[label] = out
    return outs


def _blowup_row(out_dir: Path) -> dict:
    with open(out_dir / "blowup.csv", newline="") as fh:
        return next(iter(csv.DictReader(fh)))


def test_criterion_1_eigen_accuracy():
    t0 = time.monotonic()
    dom = DomainSpec(kind="interval", lengths=(math.pi,))
    grids, eigs = {}, {}
    for n in (512, 1024):
        grids[n] = build_grid(dom, n)
        eigs[n] = solve_eigenpairs(grids[n], 4)
    ratio = (grids[512].h[0] / grids[1024].h[0]) ** 2
    lam1_x = richardson_extrapolate(eigs[512].lam1, eigs[1024].lam1, ratio)
    lam2_x = richardson_extrapolate(eigs[512].lam2, eigs[1024].lam2, ratio)

    rect = DomainSpec(kind="rectangle", lengths=(math.pi, math.pi))
    r_eigs, r_grids = {}, {}
    for n in (64, 128):
        r_grids[n] = build_grid(rect, n)
        r_eigs[n] = solve_eigenpairs(r_grids[n], 4)
    r_ratio = (r_grids[64].h[0] / r_grids[128].h[0]) ** 2
    rlam1_x = richardson_extrapolate(r_eigs[64].lam1, r_eigs[128].lam1, r_ratio)
    elapsed = time.monotonic() - t0

    e1, e2, er = abs(lam1_x - 1.0), abs(lam2_x - 4.0), abs(rlam1_x - 2.0)
    ok = e1 <= 1e-6 and e2 <= 1e-5 and er <= 1e-4 and elapsed < 5.0
    _report(
        1,
        "eigen accuracy",
        ok,
        f"|lam1-1|={e1:.2e}, |lam2-4|={e2:.2e}, rect |lam1-2|={er:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gamma_law_agreement(mc_runs):
    row = _blowup_row(mc_runs["w1"])
    p_hat = float(row["p_hat"])
    stderr = float(row["stderr"])
    reference = 1.0 - math.exp(-1.0) * 2.5  # 1 - Q(3, 1) in closed form
    err = abs(p_hat - reference)
    band = 3.0 * stderr + 0.005
    _report(
        2,
        "gamma-law agreement",
        err <= band,
        f"p_hat={p_hat:.5f}, reference={reference:.5f}, |diff|={err:.5f} <= {band:.5f}",
    )


def test_criterion_3_density_correctness():
    rng = np.random.default_rng(20260819)
    worst_norm = worst_tail = 0.0
    for _ in range(20):
        beta = rng.uniform(0.6, 2.5)
        alpha = rng.uniform(max(0.5, 1.1 / beta), 10.0)
        kappa = rng.uniform(0.5, 2.0)
        lam1 = 0.5 * kappa**2 * (alpha * beta - 1.0)
        v0psi = rng.uniform(0.2, 3.0)
        x_star = v0psi ** (-beta) / beta
        z_star = 2.0 / (kappa**2 * beta**2 * x_star)
        theta = 2.0 / (kappa**2 * beta**2)
        peak = theta / (alpha + 1.0)

        def h(y):
            return blowup_density(y, lam1, kappa, beta)

        cut = max(50.0 * peak, 2.0 * x_star)
        total = (
            integrate.quad(h, 0.0, cut, points=[peak, min(x_star, cut)], limit=300,
                           epsabs=1e-12, epsrel=1e-12)[0]
            + integrate.quad(h, cut, np.inf, limit=300, epsabs=1e-12, epsrel=1e-12)[0]
        )
        tail = (
            integrate.quad(h, x_star, cut, limit=300, epsabs=1e-12, epsrel=1e-12)[0]
            + integrate.quad(h, cut, np.inf, limit=300, epsabs=1e-12, epsrel=1e-12)[0]
        )
        worst_norm = max(worst_norm, abs(total - 1.0))
        worst_tail = max(worst_tail, abs(tail - (1.0 - gamma_tail(alpha, z_star))))
    ok = worst_norm <= 1e-8 and worst_tail <= 1e-8
    _report(
        3,
        "density correctness",
        ok,
        f"max |int h - 1|={worst_norm:.2e}, max tail mismatch={worst_tail:.2e}, 20 triples",
    )


def test_criterion_4_deterministic_dichotomy():
    dom, grid, eig = _setup("interval", [math.pi], 128)
    params = ModelParams(beta=1.0, kappa=0.0)
    a2 = 2.0 / weighted_inner(grid, eig.psi, eig.psi)

    f2 = a2 * eig.psi
    path = BrownianPath.frozen_zero(10.0, 1e-3)
    traj = simulate_paths(f2, [path], params, eig, 1e8)[0]
    blew = traj.outcome is Outcome.NUMERICAL_BLOWUP and traj.t_blowup < 10.0

    level = hitting_level(2.0, params)
    tau = lower_solution_series(path, level, params, eig.lam1)[3]
    tau_err = abs(tau - math.log(2.0)) if tau is not None else math.inf
    tau_ok = tau_err <= 1e-4

    level_low = hitting_level(0.5, params)
    censored_all = all(
        lower_solution_series(BrownianPath.frozen_zero(T, 1e-3), level_low, params, eig.lam1)[3]
        is None
        for T in (5.0, 20.0, 50.0)
    )
    f05 = 0.25 * a2 * eig.psi
    traj5 = simulate_paths(f05, [BrownianPath.frozen_zero(5.0, 1e-3)], params, eig, 1e8)[0]
    decays = traj5.outcome is Outcome.COMPLETED and bool(np.all(np.diff(traj5.sup) < 0))
    mass2, mass05 = (weighted_inner(grid, f, eig.psi) for f in (f2, f05))
    verdicts = (
        deterministic_dichotomy(mass2, eig.lam1, params).outcome is Dichotomy.BLOWUP_CERTIFIED
        and deterministic_dichotomy(mass05, eig.lam1, params).outcome is Dichotomy.TAU_INFINITE
    )

    ok = blew and tau_ok and censored_all and decays and verdicts
    _report(
        4,
        "deterministic dichotomy",
        ok,
        f"t_blowup={traj.t_blowup:.4f}, |tau-ln2|={tau_err:.2e}, "
        f"subcritical censored and decaying={censored_all and decays}",
    )


def test_criterion_5_transform_consistency():
    dom, grid, eig = _setup("interval", [math.pi], 32)
    params = ModelParams(beta=1.0, kappa=0.5)
    f = 0.3 * eig.psi
    worst = 0.0
    for seed in range(10):
        path = sample_brownian(1.0, 1e-4, seed, 0)
        em = simulate_paths(f, [path], params, eig, 1e8, variable="u")[0]
        v = simulate_paths(f, [path], params, eig, 1e8)[0]
        u = reconstruct_u(v, path, params.kappa)
        k = min(len(em.sup), len(u.sup))
        rel = float(np.max(np.abs(em.sup[:k] - u.sup[:k]) / np.maximum(np.abs(u.sup[:k]), 1e-300)))
        worst = max(worst, rel)
    _report(
        5,
        "transform consistency",
        worst <= 0.05,
        f"max sup-norm relative difference over 10 seeds = {worst:.4f} <= 0.05",
    )


def test_criterion_6_lower_solution_domination():
    dom, grid, eig = _setup("interval", [math.pi], 48)
    a = 0.5 / weighted_inner(grid, eig.psi, eig.psi)
    f = a * eig.psi
    params = ModelParams(beta=1.0, kappa=1.0)
    level = hitting_level(0.5, params)
    worst = math.inf
    n_blowups = 0
    for start in range(0, 100, 25):  # blocks of 25 paths bound the memory
        paths = [sample_brownian(50.0, 1e-3, 12345, idx) for idx in range(start, start + 25)]
        for path, traj in zip(paths, simulate_paths(f, paths, params, eig, 1e8)):
            n_blowups += traj.outcome is Outcome.NUMERICAL_BLOWUP
            t_i, lower, _, _ = lower_solution_series(path, level, params, eig.lam1)
            k = min(len(traj.times), len(t_i))
            keep = np.isfinite(lower[:k]) & (lower[:k] > 0)
            worst = min(worst, float(np.min(traj.mass[:k][keep] / lower[:k][keep])))
    _report(
        6,
        "lower-solution domination",
        worst >= 0.98,
        f"min mass/I over 100 paths = {worst:.4f} >= 0.98 ({n_blowups} blowups)",
    )


def test_criterion_7_certificate_soundness():
    dom, grid, eig = _setup("interval", [math.pi], 1023, m=24)
    phi1 = eig.modes[:, 0]
    f = 0.5 * phi1 / float(np.max(phi1))
    params = ModelParams(beta=1.0, kappa=1.0)
    path = BrownianPath.frozen_zero(20.0, 1e-3)
    kind = CertificateKind.INTEGRAL
    report = certificate_sup_norm(path, f, params, eig, [kind])[kind]
    j_err = abs(report.J - 1.0 / 3.0)
    cert_ok = j_err <= 1e-6 and report.verdict is Verdict.CERTIFIED

    traj = simulate_paths(f, [BrownianPath.frozen_zero(10.0, 1e-3)], params, eig, 1e8)[0]
    bound = report.bound_sup[: len(traj.sup)]
    within = bool(np.all(traj.sup <= 1.02 * bound))
    margin = float(np.max(traj.sup / bound))
    _report(
        7,
        "certificate soundness",
        cert_ok and within,
        f"|J-1/3|={j_err:.2e}, certified={report.verdict is Verdict.CERTIFIED}, "
        f"max sup/envelope={margin:.4f} <= 1.02",
    )


def test_criterion_8_heat_kernel_sandwich(interval_512):
    dom, grid, _, eig = interval_512
    times = np.unique(np.append(np.logspace(-2.0, 1.0, 40), 5.0))
    report = heat_kernel_ratio_report(eig, times)
    all_lower = bool(np.all(report.ratios >= 1.0))
    all_pass = bool(np.all(report.passed))
    c_ok = math.isfinite(report.c) and report.c > 0
    at5 = float(report.ratios[np.where(times == 5.0)[0][0]])
    ok = all_lower and all_pass and c_ok and abs(at5 - 1.0) <= 1e-3
    _report(
        8,
        "heat-kernel sandwich",
        ok,
        f"min ratio={float(np.min(report.ratios)):.6f}, c={report.c:.4f}, "
        f"ratio(5)={at5:.6f}",
    )


def test_criterion_9_worker_determinism(mc_runs):
    bytes_w1 = (mc_runs["w1"] / "blowup.csv").read_bytes()
    bytes_w3 = (mc_runs["w3"] / "blowup.csv").read_bytes()
    p1 = _blowup_row(mc_runs["w1"])["p_hat"]
    p3 = _blowup_row(mc_runs["w3"])["p_hat"]
    ok = bytes_w1 == bytes_w3 and p1 == p3
    _report(
        9,
        "worker determinism",
        ok,
        f"p_hat(w1)={p1} == p_hat(w3)={p3}, csv bytes identical={bytes_w1 == bytes_w3}",
    )
