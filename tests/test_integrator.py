"""Integrator tests: scalar step oracles, closed-form decay, blowup brackets,
v/u cross-validation, and the weak/mild residual order checks.

The 1-node "grid" below turns the engine into a scalar ODE recursion, which
is the cheapest honest oracle for the IMEX update algebra.
"""


import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from spdelab import integrator
from spdelab.blowup import ModelParams, deterministic_dichotomy, Dichotomy
from conftest import _heat_semigroup, _laplacian
from spdelab.domain import (
    DomainSpec,
    EigenData,
    GridSpec,
    build_grid,
    solve_eigenpairs,
    weighted_inner,
)
from spdelab.errors import ConfigurationError, NumericalFailure, PreconditionFailure
from spdelab.integrator import (
    Outcome,
    TrajectoryResult,
    _Workspace,
    mode_residuals,
    reconstruct_u,
    simulate_paths,
)
from spdelab.stochastic import BrownianPath, sample_brownian


def linear_params(kappa):
    # Lambda = 0: the linear equation
    return ModelParams(beta=1.0, kappa=kappa, C=0.0, Lambda=0.0)


def scalar_problem(lam=1.0):
    """Eigendata of a 1-node grid whose stencil -2/h^2 is -lam: the engine
    becomes a scalar recursion."""
    h = math.sqrt(2.0 / lam)
    dom = DomainSpec(kind="interval", lengths=(2.0 * h,))
    grid = GridSpec(domain=dom, n=1, axes=(np.array([h]),), h=(h,),
                    weights=np.array([1.0]))
    return EigenData(grid=grid, eigenvalues=np.array([lam]), modes=np.array([[1.0]]),
                     psi=np.array([1.0]))


def full_basis(eig):
    """The eigenbasis of every mode of eig's grid: a trajectory run on it
    keeps coefficients that determine each kept field."""
    return eig if eig.m == eig.grid.npoints else solve_eigenpairs(eig.grid, eig.grid.npoints)


def node_fields(coeffs, basis):
    """The fields sum_j c_j phi_j of coefficient rows in a full basis."""
    return coeffs @ basis.modes.T


def field_after(k, f, params, eig, dt):
    """The transformed field after k steps of dt on the zero noise path. With
    k + 1 snapshots the stride is one, so snapshot k is the field after step
    k; the full basis gives the field back from its coefficients."""
    path = BrownianPath.frozen_zero(horizon=k * dt, dt=dt)
    basis = full_basis(eig)
    traj = simulate_paths(f, [path], params, basis, 1e8, max_snapshots=k + 1)[0]
    assert len(traj.times) == k + 1
    return node_fields(traj.snapshot_coeffs[k], basis)


class TestSettings:
    def test_fewer_than_two_snapshots_refused(self, interval_48):
        # a trajectory keeps its first and its last row at least
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=0.1, dt=1e-2)
        with pytest.raises(ConfigurationError, match="max_snapshots must be at least 2, got 1"):
            simulate_paths(0.3 * eig.psi, [path], ModelParams(beta=1.0, kappa=0.0), eig, 1e8,
                           max_snapshots=1)


class TestReaction:
    """The one reaction, Lambda max(z, 0)^(1+beta): for u as given, for v
    with the noise factor Lambda e^{kappa beta W} in place of Lambda."""

    @pytest.mark.parametrize("variable", ["v", "u"])
    def test_values_clip_the_negative_part(self, variable):
        params = ModelParams(beta=1.5, kappa=1.0, C=2.0, Lambda=2.0)
        fields = np.array([[0.0, 4.0, -3.0]])
        noise = integrator._noise_factor(np.zeros((1, 1)), params)
        out = np.empty_like(fields)
        integrator._Reaction(params, variable)(fields, noise, out)
        assert out[0, 0] == out[0, 2] == 0.0
        assert out[0, 1] == pytest.approx(2.0 * 4.0**2.5, rel=1e-15)

    def test_noise_factor_is_lambda_e_kappa_beta_w_clamped(self):
        # each entry is Lambda math.exp(min(kappa beta W, EXP_CLAMP)), the
        # same float operation at every shape
        params = ModelParams(beta=0.5, kappa=2.0, C=1.0, Lambda=3.0)
        w = np.array([[-1.0], [0.0], [0.75], [1e3]])
        factor = integrator._noise_factor(w, params)
        expected = [3.0 * math.exp(min(x, 700.0)) for x in (-1.0, 0.0, 0.75, 1e3)]
        assert factor.shape == w.shape and factor[:, 0].tolist() == expected

    @pytest.mark.parametrize("variable", ["v", "u"])
    def test_linear_equation_has_no_reaction(self, variable):
        # Lambda = 0 zeroes the reaction, including at a clamped noise factor
        params = linear_params(1.0)
        fields = np.array([[0.0, 4.0, -3.0], [1e3, 2.0, 0.5]])
        noise = integrator._noise_factor(np.array([[0.0], [1e3]]), params)
        out = np.full_like(fields, np.nan)
        integrator._Reaction(params, variable)(fields, noise, out)
        assert out.tolist() == np.zeros_like(fields).tolist()


class TestStep:
    def test_eigenmode_implicit_decay_exact(self, interval_48):
        # G = 0, kappa = 0, f = psi: k steps give (1 + dt lam1)^{-k} psi exactly
        _, grid, _, eig = interval_48
        dt = 0.01
        values = field_after(5, eig.psi, linear_params(0.0), eig, dt)
        expected = (1.0 + dt * eig.lam1) ** -5 * eig.psi
        np.testing.assert_allclose(values, expected, rtol=1e-11)

    def test_scalar_reaction_recursion(self):
        # v' = -lam v + v^2 under IMEX: v+ = (v + dt v^2)/(1 + dt lam)
        eig = scalar_problem(lam=1.0)
        dt = 0.05
        v = 0.4
        values = field_after(8, np.array([v]), ModelParams(beta=1.0, kappa=0.0), eig, dt)
        for _ in range(8):
            v = (v + dt * v**2) / (1.0 + dt * 1.0)
        assert values[0] == pytest.approx(v, rel=1e-14)

    def test_zero_noise_value_matches_dense_oracle(self, interval_48):
        # W_t = 0 with kappa = 1: the step is the deterministic semilinear one
        # with the kappa^2/2 shift; check against a dense direct solve.
        _, grid, _, eig = interval_48
        dt = 0.02
        f = 0.3 * eig.psi
        new = field_after(1, f, ModelParams(beta=1.0, kappa=1.0), eig, dt)
        n = grid.npoints
        A = np.eye(n) - dt * (_laplacian(grid).toarray() - 0.5 * np.eye(n))
        expected = np.linalg.solve(A, f + dt * f**2)
        np.testing.assert_allclose(new, expected, rtol=1e-12)

    def test_negative_field_aborts(self, interval_48, monkeypatch):
        # a step that leaves a node of the positive psi negative aborts the run
        _, grid, _, eig = interval_48
        step = integrator._advance

        def step_with_dip(reaction, cur, noise, ws, out, scratch):
            step(reaction, cur, noise, ws, out, scratch)
            out[:, 3] = -out.max(axis=1)

        monkeypatch.setattr(integrator, "_advance", step_with_dip)
        with pytest.raises(NumericalFailure, match="positivity lost"):
            field_after(1, eig.psi, linear_params(0.0), eig, 0.01)


class TestSimulateRpde:
    def test_linear_mass_decay_closed_form(self, interval_48):
        # G = 0: mass decays at rate lam1 + kappa^2/2 regardless of the path
        _, grid, _, eig = interval_48
        kappa = 0.5
        path = sample_brownian(seed=9, path_index=0, horizon=2.0, dt=1e-3)
        traj = simulate_paths(eig.psi, [path], linear_params(kappa), eig, 1e8)[0]
        assert traj.outcome is Outcome.COMPLETED
        rate = eig.lam1 + 0.5 * kappa**2
        exact = traj.mass[0] * math.exp(-rate * 2.0)
        assert traj.mass[-1] == pytest.approx(exact, rel=3e-3)
        recursion = traj.mass[0] * (1.0 + path.dt * rate) ** -path.nsteps
        assert traj.mass[-1] == pytest.approx(recursion, rel=1e-10)

    def test_mass_series_is_weighted_pairing(self, interval_48):
        _, grid, _, eig = interval_48
        path = sample_brownian(seed=10, path_index=0, horizon=0.5, dt=1e-3)
        f = 0.2 * np.ones(grid.npoints)
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=1.0), eig, 1e8,
                              max_snapshots=501)[0]
        # snapshots are at full resolution here; psi is phi_1 scaled, so the
        # pairing is the first coefficient times <phi_1, psi>
        idx = np.rint(traj.snapshot_times / path.dt).astype(int)
        expected = traj.snapshot_coeffs[:, 0] * np.dot(grid.weights * eig.psi, eig.modes[:, 0])
        np.testing.assert_allclose(traj.mass[idx], expected, rtol=1e-12, atol=1e-15)

    def test_mass_differential_chain(self, interval_48):
        # (m_{k+1} - m_k)/dt + (lam1 + kappa^2/2) m_{k+1}
        #     >= e^{kappa beta W_k} m_k^{1+beta}  up to rounding:
        # eigen-pairing kills the diffusion exactly and Jensen bounds the
        # reaction from below, both exact in the uniform discrete measure.
        _, grid, _, eig = interval_48
        kappa = 1.0
        path = sample_brownian(seed=11, path_index=0, horizon=1.0, dt=1e-3)
        f = 0.3 * np.ones(grid.npoints)
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=kappa), eig, 1e8)[0]
        m = traj.mass
        w = path.values[: len(m) - 1]
        lhs = np.diff(m) / path.dt + (eig.lam1 + 0.5 * kappa**2) * m[1:]
        rhs = np.exp(kappa * 1.0 * w) * m[:-1] ** 2
        assert np.all(lhs - rhs >= -1e-9 * np.max(np.abs(lhs)))

    def test_supercritical_blowup_detected(self, interval_48):
        _, grid, _, eig = interval_48
        f = 2.0 * np.ones(grid.npoints)
        params = ModelParams(beta=1.0, kappa=0.0)
        mass = weighted_inner(grid, f, eig.psi)
        assert deterministic_dichotomy(mass, eig.lam1, params).outcome is Dichotomy.BLOWUP_CERTIFIED
        path = BrownianPath.frozen_zero(horizon=10.0, dt=1e-3)
        traj = simulate_paths(f, [path], params, eig, 1e8)[0]
        assert traj.outcome is Outcome.NUMERICAL_BLOWUP
        assert traj.t_blowup < 10.0
        assert traj.t_last_stable <= traj.t_blowup
        # ten halvings shrink the bracket to dt / 2^10
        assert traj.t_blowup - traj.t_last_stable <= 1e-3 / 2**10 + 1e-12
        assert np.all(np.isfinite(traj.sup))
        assert traj.times[-1] <= traj.t_last_stable + 1e-12

    def test_subcritical_completes_with_decreasing_sup(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.5 * np.ones(grid.npoints)
        path = BrownianPath.frozen_zero(horizon=5.0, dt=1e-3)
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, 1e8)[0]
        assert traj.outcome is Outcome.COMPLETED
        assert traj.sup[-1] < traj.sup[0]
        assert traj.mass[-1] < traj.mass[0]

    def test_blowup_time_stable_under_grid_refinement(self):
        # halving h moves the reported t_b by well under 5%
        from spdelab.domain import build_grid, solve_eigenpairs

        dom = DomainSpec(kind="interval", lengths=(math.pi,))
        t_b = {}
        for n in (24, 48):
            grid = build_grid(dom, n)
            eig = solve_eigenpairs(grid, 8)
            f = 2.0 * np.ones(grid.npoints)
            path = BrownianPath.frozen_zero(horizon=10.0, dt=1e-3)
            traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, 1e8)[0]
            assert traj.outcome is Outcome.NUMERICAL_BLOWUP
            t_b[n] = traj.t_blowup
        assert abs(t_b[48] - t_b[24]) / t_b[48] <= 0.05

    def test_snapshot_decimation(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        f = 0.5 * np.ones(grid.npoints)
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, 1e8,
                              max_snapshots=50)[0]
        assert len(traj.snapshot_times) <= 51
        assert traj.snapshot_times[0] == 0.0
        assert traj.snapshot_times[-1] == traj.times[-1]
        assert len(traj.times) == 1001  # scalar series stay at full resolution

    def test_input_guards(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        params = ModelParams(beta=1.0, kappa=0.0)
        with pytest.raises(PreconditionFailure):
            simulate_paths(-np.ones(grid.npoints), [path], params, eig, 1e8)
        with pytest.raises(PreconditionFailure):
            simulate_paths(np.zeros(grid.npoints), [path], params, eig, 1e8)
        for bad in (math.nan, math.inf, -math.inf):
            f = np.ones(grid.npoints)
            f[3] = bad
            with pytest.raises(ConfigurationError, match=f"not finite at node 3: f={bad}"):
                simulate_paths(f, [path], params, eig, 1e8)

    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize("sup", [2.0, 49.9])
    def test_initial_sup_not_below_the_cutoff_is_refused(self, interval_48, variable, sup):
        # a field at the cutoff before any step would read as a blowup
        # inside the first step
        _, grid, _, eig = interval_48
        path = sample_brownian(0.5, 0.01, 0, 0)
        f = sup * eig.psi / eig.psi.max()
        with pytest.raises(ConfigurationError, match="is not below the cutoff 2.0"):
            simulate_paths(f, [path], ModelParams(beta=1.0, kappa=1.0), eig, 2.0, variable)


def interval_16():
    dom = DomainSpec(kind="interval", lengths=(math.pi,))
    grid = build_grid(dom, 16)
    return grid, solve_eigenpairs(grid, 4)


def mixed_outcome_problem(kind):
    """Eigendata and an initial field on an interval or a rectangle from
    which the six paths sample_brownian(2.0, 2e-3, 7, i) mix blowup and
    completion at cutoff 1e6."""
    if kind == "interval":
        _, eig = interval_16()
        return eig, 3.0 * eig.psi
    grid = build_grid(DomainSpec(kind="rectangle", lengths=(math.pi, math.pi)), 10)
    eig = solve_eigenpairs(grid, 4)
    return eig, 12.0 * eig.psi


NONLINEARITIES = ["power_law", "power_law_half", "power_law_cubic"]


def block_params(nonlinearity):
    """The kappa = 1 model of the block engine tests: the reaction z^2;
    2 z^(3/2), whose exponent is not an integer and whose coefficient is not
    one; or z^3 / 2 with C = 1/4 < Lambda, where the engine reads Lambda
    alone. Each gives a mix of outcomes from mixed_outcome_problem."""
    if nonlinearity == "power_law":
        return ModelParams(beta=1.0, kappa=1.0)
    if nonlinearity == "power_law_half":
        return ModelParams(beta=0.5, kappa=1.0, C=2.0, Lambda=2.0)
    return ModelParams(beta=2.0, kappa=1.0, C=0.25, Lambda=0.5)


def single_path_loop(f, path, params, eig, cutoff, variable):
    """Reference: one path, one column per solve with the tridiagonal
    Cholesky factor, mass and sup up to the first cutoff crossing.
    The v reaction is collapsed to Lambda e^{kappa beta W} v^(1+beta)."""
    lap = _laplacian(eig.grid)
    eye = sparse.identity(lap.shape[0], format="csr")
    shift = 0.5 * params.kappa**2 if variable == "v" else 0.0
    gen = lap - shift * eye
    implicit = eye - path.dt * gen
    d, e, info = lapack.dpttrf(implicit.diagonal(), implicit.diagonal(-1))
    assert info == 0

    def solve(rhs):
        x, info = lapack.dpttrs(d, e, rhs[:, None])
        assert info == 0
        return x[:, 0]

    dw = np.diff(path.values)
    v = f
    mass, sup = [float(np.dot(eig.grid.weights, eig.psi * v))], [float(np.max(np.abs(v)))]
    for k in range(path.nsteps):
        power = np.power(np.maximum(v, 0.0), 1.0 + params.beta)
        if variable == "v":
            factor = params.Lambda * math.exp(min(params.kappa * params.beta * path.values[k], 700.0))
            r = factor * power
        else:
            r = params.Lambda * power + params.kappa * v * (dw[k] / path.dt)
        v = solve(v + path.dt * r)
        if not np.max(np.abs(v)) < cutoff:
            break
        mass.append(float(np.dot(eig.grid.weights, eig.psi * v)))
        sup.append(float(np.max(np.abs(v))))
    return np.array(mass), np.array(sup)


class TestBlockEngine:
    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
    @pytest.mark.parametrize("kind", ["interval", "rectangle"])
    def test_block_width_invariance(self, kind, variable, nonlinearity):
        # six paths that mix blowup and completion: one block, blocks of two,
        # and single-path calls give the same bytes
        eig, f = mixed_outcome_problem(kind)
        params = block_params(nonlinearity)
        paths = [sample_brownian(2.0, 2e-3, 7, i) for i in range(6)]
        single = [simulate_paths(f, [p], params, eig, 1e6, variable, max_snapshots=40)[0]
                  for p in paths]
        pairs = [r for i in range(0, 6, 2)
                 for r in simulate_paths(f, paths[i:i + 2], params, eig, 1e6, variable,
                                         max_snapshots=40)]
        block = simulate_paths(f, paths, params, eig, 1e6, variable, max_snapshots=40)
        outcomes = {r.outcome for r in single}
        assert outcomes == {Outcome.COMPLETED, Outcome.NUMERICAL_BLOWUP}
        for run in (pairs, block):
            for a, b in zip(single, run):
                assert a.outcome is b.outcome
                assert (a.t_last_stable, a.t_blowup) == (b.t_last_stable, b.t_blowup)
                for name in ("times", "mass", "sup", "snapshot_times", "snapshot_coeffs",
                             "reaction_coeffs"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
    def test_matches_single_path_loop(self, variable, nonlinearity):
        # the block engine reproduces the per-path loop it replaced, bit for
        # bit, on every accepted step of every path, for three power laws
        grid, eig = interval_16()
        params = block_params(nonlinearity)
        f = 3.0 * eig.psi
        paths = [sample_brownian(2.0, 2e-3, 7, i) for i in range(6)]
        block = simulate_paths(f, paths, params, eig, 1e6, variable)
        for path, traj in zip(paths, block):
            mass, sup = single_path_loop(f, path, params, eig, 1e6, variable)
            assert traj.mass.tobytes() == mass.tobytes()
            assert traj.sup.tobytes() == sup.tobytes()

    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
    @pytest.mark.parametrize("kind", ["interval", "rectangle"])
    def test_chunk_width_invariance(self, monkeypatch, kind, variable, nonlinearity):
        # six paths that mix blowup and completion, staged one step at a
        # time, seven steps at a time (the kept-row stride is 26) and at the
        # default width, which STAGE_STEPS caps here, give the same bytes
        eig, f = mixed_outcome_problem(kind)
        params = block_params(nonlinearity)
        max_snapshots = 40
        paths = [sample_brownian(2.0, 2e-3, 7, i) for i in range(6)]
        step_bytes = 8 * len(paths) * eig.grid.npoints
        runs = []
        for stage_bytes in (step_bytes, 7 * step_bytes, integrator.STAGE_BYTES):
            monkeypatch.setattr(integrator, "STAGE_BYTES", stage_bytes)
            runs.append(simulate_paths(f, paths, params, eig, 1e6, variable,
                                       max_snapshots=max_snapshots))
        assert math.ceil((paths[0].nsteps + 1) / max_snapshots) == 26
        assert {r.outcome for r in runs[0]} == {Outcome.COMPLETED, Outcome.NUMERICAL_BLOWUP}
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert a.outcome is b.outcome
                assert (a.t_last_stable, a.t_blowup) == (b.t_last_stable, b.t_blowup)
                for name in ("times", "mass", "sup", "snapshot_times", "snapshot_coeffs",
                             "reaction_coeffs"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_positivity_loss_reported_at_the_same_step_for_every_width(self, monkeypatch):
        # a node of one row dips below zero at the 28th step, inside a chunk
        # of seven; there is one step call per grid step at every width
        _, eig = interval_16()
        paths = [sample_brownian(20.0, 0.25, 7, i) for i in range(4)]
        step = integrator._advance
        calls = []

        def step_with_dip(reaction, cur, noise, ws, out, scratch):
            step(reaction, cur, noise, ws, out, scratch)
            calls.append(None)
            if len(calls) == 28:
                out[2, 5] = -1.215e-07

        monkeypatch.setattr(integrator, "_advance", step_with_dip)
        step_bytes = 8 * len(paths) * eig.grid.npoints
        messages = set()
        for stage_bytes in (step_bytes, 7 * step_bytes, integrator.STAGE_BYTES):
            monkeypatch.setattr(integrator, "STAGE_BYTES", stage_bytes)
            calls.clear()
            with pytest.raises(NumericalFailure, match="positivity lost") as err:
                simulate_paths(eig.psi, paths, ModelParams(beta=1.0, kappa=1.0), eig, 1e8)
            messages.add(str(err.value))
        assert messages == {"positivity lost at t=7.0: min=-1.215e-07"}

    def test_rows_from_a_crossing_on_are_not_checked_for_positivity(self, monkeypatch):
        # a path that crosses the cutoff has blown up: a dip below zero in its
        # crossing field, or in the rows staged after it, is no positivity loss
        grid, eig = interval_16()
        params = ModelParams(beta=1.0, kappa=1.0)
        cutoff = 1e6
        paths = [sample_brownian(2.0, 2e-3, 7, i) for i in range(6)]
        clean = simulate_paths(3.0 * eig.psi, paths, params, eig, cutoff, max_snapshots=40)
        step = integrator._advance

        def step_with_dip(reaction, cur, noise, ws, out, scratch):
            step(reaction, cur, noise, ws, out, scratch)
            crossed = ~(np.abs(out).max(axis=1) < cutoff)
            out[crossed, 0] = -np.abs(out[crossed]).max(axis=1)

        monkeypatch.setattr(integrator, "_advance", step_with_dip)
        dipped = simulate_paths(3.0 * eig.psi, paths, params, eig, cutoff, max_snapshots=40)
        assert {r.outcome for r in clean} == {Outcome.COMPLETED, Outcome.NUMERICAL_BLOWUP}
        for a, b in zip(clean, dipped):
            assert a.outcome is b.outcome
            assert (a.t_last_stable, a.t_blowup) == (b.t_last_stable, b.t_blowup)
            assert a.mass.tobytes() == b.mass.tobytes()

    def test_paths_must_share_the_grid(self):
        grid, eig = interval_16()
        # another step count at one dt, and one step count at another dt
        for other in (BrownianPath.frozen_zero(2.0, 1e-3), BrownianPath.frozen_zero(2.0, 2e-3)):
            paths = [BrownianPath.frozen_zero(1.0, 1e-3), other]
            with pytest.raises(ConfigurationError, match="one time grid"):
                simulate_paths(eig.psi, paths, ModelParams(beta=1.0, kappa=0.0), eig, 1e8)

    @given(
        dt=st.sampled_from([0.05, 0.02, 0.01, 0.005, 0.002]),
        a=st.floats(min_value=2.5, max_value=40.0),
        cutoff=st.sampled_from([1e3, 1e5, 1e8]),
        kappa=st.sampled_from([0.0, 1.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200)
    def test_bracket_stays_inside_the_crossing_step(self, dt, a, cutoff, kappa, seed):
        grid, eig = interval_16()
        params = ModelParams(beta=1.0, kappa=kappa)
        path = (BrownianPath.frozen_zero(4.0, dt) if kappa == 0.0
                else sample_brownian(4.0, dt, seed, 0))
        traj = simulate_paths(a * eig.psi, [path], params, eig, cutoff)[0]
        event(traj.outcome.value)
        if traj.outcome is not Outcome.NUMERICAL_BLOWUP:
            return
        stable_t = traj.times[-1]  # the last stable step's time on the path grid
        assert stable_t <= traj.t_last_stable <= traj.t_blowup <= stable_t + dt


    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize("n, dt, n_paths", [(32, 0.01, 16), (16, 0.02, 8)])
    def test_low_cutoff_brackets_stay_inside_their_step(self, n, dt, n_paths, variable):
        # at cutoff 2 some halving levels do not cross: on 32 nodes in the u
        # route (paths 0, 7 and 14, which once left their step and raised),
        # on 16 nodes in the v route; each keeps the bracket found before it
        grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), n)
        eig = solve_eigenpairs(grid, 12)
        params = ModelParams(beta=1.0, kappa=1.0)
        paths = [sample_brownian(3.0, dt, 0, i) for i in range(n_paths)]
        trajs = simulate_paths(3.0 * eig.psi, paths, params, eig, 2.0, variable)
        blown = [t for t in trajs if t.outcome is Outcome.NUMERICAL_BLOWUP]
        assert len(blown) >= 3
        for traj in blown:
            t_k = traj.times[-1]  # the last stable step's time on the path grid
            assert t_k <= traj.t_last_stable <= traj.t_blowup <= t_k + dt

    @pytest.mark.parametrize("kind, lengths", [("interval", (math.pi,)),
                                               ("rectangle", (math.pi, math.pi))])
    def test_block_factors_each_halving_level_once(self, monkeypatch, kind, lengths):
        # every blown path of a block refines through the same halving
        # levels, so the step and each level are factored once per call
        built = []

        class CountedWorkspace(_Workspace):
            def __init__(self, grid, shift, dt):
                built.append(dt)
                super().__init__(grid, shift, dt)

        monkeypatch.setattr(integrator, "_Workspace", CountedWorkspace)
        grid = build_grid(DomainSpec(kind=kind, lengths=lengths), 8)
        eig = solve_eigenpairs(grid, 4)
        paths = [sample_brownian(1.0, 0.01, 0, i) for i in range(8)]
        trajs = simulate_paths(12.0 * eig.psi, paths, ModelParams(beta=1.0, kappa=1.0), eig, 6.0)
        assert sum(t.outcome is Outcome.NUMERICAL_BLOWUP for t in trajs) >= 2
        assert len(built) == len(set(built)) > 2

    def test_a_path_stages_at_most_63_steps_past_its_crossing(self, monkeypatch):
        # a one-path block on 16 nodes that crosses the cutoff early keeps
        # stepping only to the end of its chunk: STAGE_STEPS caps the chunk
        # at 64 steps, where 512 KiB alone would hold 4,096 of them
        main_solves = []

        class CountedWorkspace(_Workspace):
            def solve(self, block):
                main_solves.append(self.dt == path.dt)
                super().solve(block)

        monkeypatch.setattr(integrator, "_Workspace", CountedWorkspace)
        _, eig = interval_16()
        path = BrownianPath.frozen_zero(horizon=5.0, dt=1e-3)
        traj = simulate_paths(40.0 * eig.psi, [path], ModelParams(beta=1.0, kappa=0.0), eig,
                              1e6)[0]
        assert traj.outcome is Outcome.NUMERICAL_BLOWUP
        crossing = len(traj.times)  # the step whose field first crosses
        assert crossing < 100 < path.nsteps
        assert crossing <= sum(main_solves) <= crossing + 63

    def test_u_bracket_reads_only_the_crossing_steps_increment(self):
        # moving W after the crossing step changes no increment up to it, so
        # the refined u bracket keeps its bits; sub-steps in the second half
        # of the step once read the next step's increment
        grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), 32)
        eig = solve_eigenpairs(grid, 12)
        params, cutoff = ModelParams(beta=1.0, kappa=1.0), 3.0
        path = sample_brownian(5.0, 0.01, 4, 0)
        traj = simulate_paths(3.0 * eig.psi, [path], params, eig, cutoff, "u")[0]
        assert traj.outcome is Outcome.NUMERICAL_BLOWUP
        k = len(traj.times) - 1  # the crossing step runs from t_k to t_{k+1}
        values = path.values.copy()
        values[k + 2 :] += 0.5
        moved = BrownianPath(dt=path.dt, values=values)
        again = simulate_paths(3.0 * eig.psi, [moved], params, eig, cutoff, "u")[0]
        assert (again.t_last_stable, again.t_blowup) == (traj.t_last_stable, traj.t_blowup)

    @pytest.mark.parametrize("variable", ["v", "u"])
    def test_refinement_sub_steps_read_the_crossing_steps_noise(self, monkeypatch, variable):
        # one noise rule: every halving sub-step reads, bitwise, the noise
        # column the grid step that crossed read, the factor at its start for
        # v and its increment rate for u
        calls = []
        step = integrator._advance

        def recorded(reaction, cur, noise, ws, out, scratch):
            calls.append((np.array(noise), float(ws.dt)))
            step(reaction, cur, noise, ws, out, scratch)

        monkeypatch.setattr(integrator, "_advance", recorded)
        grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), 32)
        eig = solve_eigenpairs(grid, 12)
        params, cutoff = ModelParams(beta=1.0, kappa=1.0), 3.0
        path = sample_brownian(5.0, 0.01, 4, 0)
        traj = simulate_paths(3.0 * eig.psi, [path], params, eig, cutoff, variable)[0]
        assert traj.outcome is Outcome.NUMERICAL_BLOWUP
        k = len(traj.times) - 1  # the crossing step runs from t_k to t_{k+1}
        grid_steps = [noise for noise, dt in calls if dt == path.dt]
        sub_steps = [noise for noise, dt in calls if dt < path.dt]
        if variable == "v":
            expected = params.Lambda * math.exp(params.kappa * params.beta * path.values[k])
        else:
            expected = (path.values[k + 1] - path.values[k]) / path.dt
        assert grid_steps[k].tolist() == [[expected]]
        assert len(sub_steps) > 2
        for noise in sub_steps:
            assert noise.tobytes() == grid_steps[k].tobytes()


class TestEigenMassPairing:
    """The eigen-mass <u, psi> is one expression wherever it is taken."""

    def test_block_pairs_as_its_fields(self):
        grid = build_grid(DomainSpec(kind="rectangle", lengths=(math.pi, 2.0)), 16)
        psi = solve_eigenpairs(grid, 4).psi
        block = np.random.default_rng(3).random((5, 3, grid.npoints))
        got = weighted_inner(grid, block, psi)
        assert got.shape == (5, 3)
        for s, i in np.ndindex(got.shape):
            one = weighted_inner(grid, block[s, i], psi)
            assert type(one) is float and got[s, i] == one

    def test_engine_mass_starts_at_the_pairing_of_f(self):
        grid = build_grid(DomainSpec(kind="rectangle", lengths=(math.pi, 2.0)), 16)
        eig = solve_eigenpairs(grid, 4)
        f = 0.3 * eig.psi + 0.01 * np.random.default_rng(9).random(grid.npoints)
        paths = [sample_brownian(0.1, 1e-2, 0, i) for i in range(3)]
        params = ModelParams(beta=1.0, kappa=1.0)
        mass0 = weighted_inner(grid, f, eig.psi)
        for variable in ("v", "u"):
            for traj in simulate_paths(f, paths, params, eig, 1e8, variable):
                assert traj.mass[0] == mass0


def workspace_grid(kind, n):
    """An interval, a square or a strip whose axes differ in spacing, so that
    a solve that swaps the axes of a rectangle fails."""
    lengths = {"interval": (math.pi,), "rectangle": (math.pi, math.pi), "strip": (1.0, 2.5)}[kind]
    return build_grid(DomainSpec(kind="interval" if kind == "interval" else "rectangle",
                                 lengths=lengths), n)


class TestWorkspace:
    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("shift", [0.0, 0.5], ids=["u", "v"])
    @pytest.mark.parametrize(
        "kind, n", [("interval", 8), ("interval", 64), ("interval", 1023),
                    ("rectangle", 8), ("rectangle", 32), ("strip", 16)]
    )
    def test_solve_matches_superlu(self, kind, n, shift, dt):
        # the tridiagonal (interval) and sine-basis (rectangle) solves against
        # a sparse LU solve of the same implicit operator I - dt (lap - shift),
        # shift = kappa^2/2 at kappa = 1 for v, at a small step and at one
        # with dt lam_max > 3 on every grid; the solve overwrites its block of
        # right-hand sides
        grid = workspace_grid(kind, n)
        lap = _laplacian(grid)
        ws = _Workspace(grid, shift, dt)
        eye = sparse.identity(grid.npoints, format="csc")
        lu = splu((eye - dt * (lap - shift * eye)).tocsc())
        block = np.random.default_rng(n).uniform(0.0, 1.0, (5, grid.npoints))
        rhs = block.copy()
        ws.solve(rhs)
        expected = lu.solve(block.T).T
        assert np.max(np.abs(rhs - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize(
        "kind, n", [("interval", 8), ("interval", 64), ("interval", 1023),
                    ("rectangle", 8), ("rectangle", 32), ("strip", 16)]
    )
    def test_step_matches_superlu(self, kind, n, variable, dt):
        # one IMEX step, reaction and noise included, against a sparse LU
        # solve of (I - dt gen) x = v + dt r: gen = lap - kappa^2/2 and
        # r = c e^{kappa beta W} v^2 for v, gen = lap and r = u^2 + kappa u
        # dW/dt for u, at kappa = 1
        grid = workspace_grid(kind, n)
        params = ModelParams(beta=1.0, kappa=1.0)
        shift = 0.5 if variable == "v" else 0.0
        ws = _Workspace(grid, shift, dt)
        eye = sparse.identity(grid.npoints, format="csc")
        lu = splu((eye - dt * (_laplacian(grid) - shift * eye)).tocsc())
        rng = np.random.default_rng(n)
        block = rng.uniform(0.0, 1.0, (5, grid.npoints))
        if variable == "v":  # the noise factor of each row
            noise = rng.uniform(0.5, 2.0, (5, 1))
            r = noise * block**2
        else:  # the rate dW/dt of each row
            noise = rng.uniform(-2.0, 2.0, (5, 1))
            r = block**2 + noise * block
        out, scratch = np.empty_like(block), np.empty_like(block)
        integrator._advance(integrator._Reaction(params, variable), block, noise, ws, out,
                            scratch)
        expected = lu.solve((block + dt * r).T).T
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind, n", [("interval", 16), ("rectangle", 8)])
    def test_solve_overwrites_a_block_that_is_not_c_ordered(self, kind, n):
        # every other row, or every other column of a wider array: each view
        # is solved in place, to the bits of its C-ordered copy, and the
        # memory between its entries is left alone
        grid = workspace_grid(kind, n)
        ws = _Workspace(grid, 0.5, 1e-3)
        rng = np.random.default_rng(n)
        for base, take in ((rng.uniform(0.0, 1.0, (8, grid.npoints)), np.s_[::2]),
                           (rng.uniform(0.0, 1.0, (4, 2 * grid.npoints)), np.s_[:, ::2])):
            view, before = base[take], base.copy()
            assert view.shape == (4, grid.npoints) and not view.flags.c_contiguous
            expected = view.copy()
            ws.solve(expected)
            ws.solve(view)
            assert base[take].tobytes() == expected.tobytes()
            untouched = np.ones(base.shape, bool)
            untouched[take] = False
            assert base[untouched].tobytes() == before[untouched].tobytes()

    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("lengths, n", [((math.pi,), 8), ((2.5,), 64)])
    def test_band_is_read_off_the_sparse_operator(self, lengths, n, dt):
        # on an interval the closed-form tridiagonal operator, factored,
        # solves bitwise as the one read off the assembled sparse operator
        grid = build_grid(DomainSpec(kind="interval", lengths=lengths), n)
        shift = 0.5
        ws = _Workspace(grid, shift, dt)
        eye = sparse.identity(grid.npoints, format="csr")
        implicit = eye - dt * (_laplacian(grid) - shift * eye)
        d, e, _ = lapack.dpttrf(implicit.diagonal(), implicit.diagonal(-1))
        block = np.random.default_rng(n).uniform(0.0, 1.0, (5, grid.npoints))
        expected, _ = lapack.dpttrs(d, e, block.T)
        ws.solve(block)
        assert block.tobytes() == expected.T.tobytes()


class TestModeCoefficients:
    @pytest.mark.parametrize("variable", ["v", "u"])
    def test_reaction_reads_each_rows_own_step(self, variable):
        # in a full basis the kept fields come back from their coefficients;
        # each row's reaction coefficients are those of G(z) = Lambda z^2 at
        # that row's own step: W at the step for v, including the last stable
        # row of a path that blows up between kept rows and the row at t = T
        grid, eig = interval_16()
        basis = full_basis(eig)
        params = ModelParams(beta=1.0, kappa=1.0)

        def G(z):
            return params.Lambda * np.maximum(z, 0.0) ** (1.0 + params.beta)

        max_snapshots = 40
        paths = [sample_brownian(2.0, 2e-3, 7, i) for i in range(6)]
        trajs = simulate_paths(3.0 * eig.psi, paths, params, basis, 1e6, variable,
                               max_snapshots=max_snapshots)
        assert {t.outcome for t in trajs} == {Outcome.COMPLETED, Outcome.NUMERICAL_BLOWUP}
        stride = math.ceil((paths[0].nsteps + 1) / max_snapshots)
        off_stride = False
        for path, traj in zip(paths, trajs):
            assert traj.snapshot_times[-1] == traj.times[-1]
            off_stride |= (len(traj.times) - 1) % stride != 0
            fields = node_fields(traj.snapshot_coeffs, basis)
            idx = np.rint(traj.snapshot_times / path.dt).astype(int)
            if variable == "v":  # e^{-kappa W} G(e^{kappa W} v), W at each row's step
                factor = np.exp(params.kappa * path.values[idx])[:, None]
                react = G(factor * fields) / factor
            else:
                react = G(fields)
            expected = (react * grid.weights) @ basis.modes
            scale = np.max(np.abs(expected), axis=1, keepdims=True)
            assert np.all(np.abs(traj.reaction_coeffs - expected) <= 1e-10 * scale)
        assert off_stride  # some path stops between kept rows

    def test_residuals_need_the_runs_basis(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=0.5, dt=1e-3)
        params = ModelParams(beta=1.0, kappa=0.0)
        small = solve_eigenpairs(grid, 12)
        traj = simulate_paths(0.3 * eig.psi, [path], params, small, 1e8)[0]
        assert traj.snapshot_coeffs.shape == traj.reaction_coeffs.shape == (501, 12)
        with pytest.raises(ConfigurationError, match="12 mode coefficients"):
            mode_residuals(traj, params, eig)

    def test_block_memory_does_not_grow_with_the_grid(self):
        # 32 paths, 501 kept rows each: node snapshots took 63.8 MiB at
        # n = 512; the coefficients take 2 * 32 * 502 * 12 floats on every grid
        params = ModelParams(beta=1.0, kappa=0.5)
        paths = [sample_brownian(0.5, 1e-3, 5, i) for i in range(32)]
        shapes, peak = {}, None
        for n in (64, 512):
            grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), n)
            eig = solve_eigenpairs(grid, 12)
            f = 0.8 * eig.psi
            simulate_paths(f, paths, params, eig, 1e8)  # imports scipy.linalg
            tracemalloc.start()
            try:
                trajs = simulate_paths(f, paths, params, eig, 1e8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            shapes[n] = {(t.snapshot_coeffs.shape, t.reaction_coeffs.shape) for t in trajs}
        assert shapes[64] == shapes[512] == {((501, 12), (501, 12))}
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB at n = 512"


class TestSchemeCrossValidation:
    def test_noiseless_schemes_coincide_exactly(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.4 * eig.psi
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        params = ModelParams(beta=1.0, kappa=0.0)
        a = simulate_paths(f, [path], params, eig, 1e8)[0]
        b = simulate_paths(f, [path], params, eig, 1e8, variable="u")[0]
        assert np.array_equal(a.mass, b.mass)
        assert np.array_equal(a.snapshot_coeffs, b.snapshot_coeffs)
        # at kappa = 0 the transformed reaction is G itself
        assert np.array_equal(a.reaction_coeffs, b.reaction_coeffs)

    def test_noiseless_blowup_em_run_is_the_v_run(self):
        # simulate reuses the v run as the Euler-Maruyama run at kappa = 0,
        # which holds only while the two steps agree operation for operation:
        # the series and the refined bracket the consistency table reads
        grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), 128)
        eig = solve_eigenpairs(grid, 12)
        f = 5.093 * eig.psi
        path = BrownianPath.frozen_zero(horizon=2.0, dt=1e-3)
        params = ModelParams(beta=1.0, kappa=0.0)
        v = simulate_paths(f, [path], params, eig, 1e8, variable="v")[0]
        u = simulate_paths(f, [path], params, eig, 1e8, "u", max_snapshots=2)[0]
        assert v.outcome is Outcome.NUMERICAL_BLOWUP
        assert u.sup.tobytes() == v.sup.tobytes()
        bracket = [(r.t_blowup.hex(), r.t_last_stable.hex()) for r in (u, v)]
        assert bracket[0] == bracket[1]

    def test_em_mass_tracks_geometric_noise(self, interval_48):
        # G = 0, kappa = 0.5: exact mass is m0 e^{-lam1 t + kappa W_t - kappa^2 t/2}
        _, grid, _, eig = interval_48
        kappa = 0.5
        path = sample_brownian(seed=21, path_index=0, horizon=1.0, dt=1e-4)
        traj = simulate_paths(eig.psi, [path], linear_params(kappa), eig, 1e8, "u")[0]
        w_T = float(path.values[-1])
        exact = traj.mass[0] * math.exp(-eig.lam1 * 1.0 + kappa * w_T - 0.5 * kappa**2)
        assert traj.mass[-1] == pytest.approx(exact, rel=0.03)

    def test_transform_identity_between_schemes(self, interval_48):
        # u from the direct scheme vs e^{kappa W} v from the transformed one
        _, grid, _, eig = interval_48
        kappa = 0.5
        f = 0.3 * eig.psi
        params = ModelParams(beta=1.0, kappa=kappa)
        path = sample_brownian(seed=33, path_index=0, horizon=1.0, dt=1e-4)
        u_direct = simulate_paths(f, [path], params, eig, 1e8, variable="u", max_snapshots=200)[0]
        v = simulate_paths(f, [path], params, eig, 1e8, max_snapshots=200)[0]
        u_mapped = reconstruct_u(v, path, kappa)
        assert u_direct.outcome is Outcome.COMPLETED
        for name in ("snapshot_coeffs", "reaction_coeffs"):
            direct, mapped = getattr(u_direct, name), getattr(u_mapped, name)
            assert np.max(np.abs(direct - mapped)) / np.max(np.abs(mapped)) <= 0.05, name

    def test_reconstruct_identity_at_zero_noise(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.4 * eig.psi
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        v = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, 1e8)[0]
        u = reconstruct_u(v, path, 0.0)
        assert np.array_equal(u.mass, v.mass)
        assert np.array_equal(u.snapshot_coeffs, v.snapshot_coeffs)
        assert np.array_equal(u.reaction_coeffs, v.reaction_coeffs)
        assert u.variable == "u"

    def test_reconstruct_mass_relation_exact(self, interval_48):
        _, grid, _, eig = interval_48
        kappa = 0.8
        f = 0.3 * eig.psi
        path = sample_brownian(seed=4, path_index=2, horizon=0.5, dt=1e-3)
        basis = full_basis(eig)
        v = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=kappa), basis, 1e8)[0]
        u = reconstruct_u(v, path, kappa)
        np.testing.assert_allclose(u.mass, v.mass * np.exp(kappa * path.values), rtol=1e-14)
        assert np.all(node_fields(u.snapshot_coeffs, basis) >= 0)

    def test_reconstruct_guards(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.3 * eig.psi
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        v = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, 1e8)[0]
        with pytest.raises(ConfigurationError):
            reconstruct_u(v, BrownianPath.frozen_zero(horizon=1.0, dt=2e-3), 0.0)
        # a dt one ulp off passed the old 1e-12 tolerance; grids now match exactly
        with pytest.raises(ConfigurationError, match="different time grids"):
            reconstruct_u(v, BrownianPath.frozen_zero(1.0, np.nextafter(1e-3, 1)), 0.0)
        with pytest.raises(ConfigurationError, match="different time grids"):
            reconstruct_u(v, BrownianPath.frozen_zero(horizon=0.5, dt=1e-3), 0.0)
        u = reconstruct_u(v, path, 0.0)
        with pytest.raises(ConfigurationError):
            reconstruct_u(u, path, 0.0)  # already physical


class TestWeakFormResidual:
    def _run(self, interval_48, dt, kappa=0.0, linear=False, variable="v"):
        _, grid, _, eig = interval_48
        params = linear_params(kappa) if linear else ModelParams(beta=1.0, kappa=kappa)
        f = 0.3 * eig.psi
        path = BrownianPath.frozen_zero(horizon=0.5, dt=dt)
        traj = simulate_paths(f, [path], params, eig, 1e8, variable, max_snapshots=100000)[0]
        return mode_residuals(traj, params, eig, n_modes=3)[:2]

    def test_zero_at_initial_time(self, interval_48):
        _, res = self._run(interval_48, dt=1e-3, linear=True)
        assert res[0] == 0.0

    def test_linear_residual_small_and_first_order(self, interval_48):
        _, coarse = self._run(interval_48, dt=2e-3, linear=True)
        _, fine = self._run(interval_48, dt=5e-4, linear=True)
        assert np.max(coarse) < 1e-3
        ratio = np.max(coarse) / np.max(fine)
        assert 2.8 <= ratio <= 5.5  # dt quartered -> residual ~ quartered

    def test_nonlinear_residual_first_order(self, interval_48):
        _, coarse = self._run(interval_48, dt=2e-3)
        _, fine = self._run(interval_48, dt=1e-3)
        ratio = np.max(coarse) / np.max(fine)
        assert 1.6 <= ratio <= 2.6

    def test_physical_variable_refused(self, interval_48):
        # the weak and the mild form are checked on the transformed equation
        with pytest.raises(ConfigurationError, match="transformed trajectories only"):
            self._run(interval_48, dt=1e-3, kappa=0.4, variable="u")

    def test_mode_count_guard(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=0.5, dt=1e-3)
        traj = simulate_paths(0.3 * eig.psi, [path], ModelParams(beta=1.0, kappa=0.0),
                              eig, 1e8)[0]
        with pytest.raises(ConfigurationError):
            mode_residuals(traj, ModelParams(beta=1.0, kappa=0.0), eig, n_modes=eig.m + 1)


class TestMildResidual:
    def test_exact_semigroup_trajectory_has_tiny_residual(self, interval_48):
        # Fabricate snapshots from the exact linear flow: the mild identity
        # then holds to rounding (no reaction, no time-march defect).
        _, grid, _, eig = interval_48
        kappa = 0.7
        params = linear_params(kappa)
        times = np.linspace(0.0, 1.0, 11)
        f = eig.psi
        snaps = np.stack([
            math.exp(-0.5 * kappa**2 * t) * _heat_semigroup(f, t, eig) for t in times
        ])
        coeffs = (snaps * grid.weights) @ eig.modes
        traj = TrajectoryResult(
            variable="v", outcome=Outcome.COMPLETED, t_blowup=None, t_last_stable=None,
            times=times, mass=snaps @ (grid.weights * eig.psi),
            sup=np.max(np.abs(snaps), axis=1), snapshot_times=times, snapshot_coeffs=coeffs,
            reaction_coeffs=np.zeros_like(coeffs),
        )
        _, _, res = mode_residuals(traj, params, eig)
        assert np.max(res) < 1e-12

    def test_zero_at_initial_time(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=0.5, dt=1e-3)
        params = ModelParams(beta=1.0, kappa=0.0)
        traj = simulate_paths(0.2 * eig.psi, [path], params, eig, 1e8, max_snapshots=100000)[0]
        _, _, res = mode_residuals(traj, params, eig)
        assert res[0] == 0.0

    def test_nonlinear_first_order_in_dt(self, interval_48):
        _, grid, _, eig = interval_48
        params = ModelParams(beta=1.0, kappa=0.0)
        maxima = {}
        for dt in (2e-3, 1e-3):
            path = BrownianPath.frozen_zero(horizon=0.5, dt=dt)
            traj = simulate_paths(0.1 * eig.psi, [path], params, eig, 1e8,
                                  max_snapshots=100000)[0]
            _, _, res = mode_residuals(traj, params, eig)
            maxima[dt] = np.max(res)
        ratio = maxima[2e-3] / maxima[1e-3]
        assert 1.6 <= ratio <= 2.6

    @pytest.mark.parametrize("a", [0.5, 4.0], ids=["completes", "blows_up"])
    def test_scan_matches_per_snapshot_recursion(self, interval_48, a):
        # reference: the convolution advanced one snapshot interval at a
        # time; the scan sums in another order, so agreement is to rounding
        _, grid, _, eig = interval_48
        params = ModelParams(beta=1.0, kappa=1.0)
        path = sample_brownian(2.0, 1e-3, 3, 0)
        traj = simulate_paths(a * eig.psi, [path], params, eig, 1e8)[0]
        t, coeff, b = traj.snapshot_times, traj.snapshot_coeffs, traj.reaction_coeffs
        mu = eig.eigenvalues + 0.5 * params.kappa**2
        conv = np.zeros_like(coeff)
        for i in range(1, len(t)):
            step = t[i] - t[i - 1]
            decay = np.exp(-mu * step)
            conv[i] = decay * conv[i - 1] + 0.5 * step * (decay * b[i - 1] + b[i])
        homogeneous = np.exp(-np.outer(t, mu)) * coeff[0]
        reference = np.sqrt(np.sum((coeff - homogeneous - conv) ** 2, axis=1))
        _, _, mild = mode_residuals(traj, params, eig)
        assert (traj.outcome is Outcome.NUMERICAL_BLOWUP) == (a > 1)
        assert mild[0] == reference[0] == 0.0
        assert np.max(np.abs(mild - reference)) <= 1e-10 * np.max(reference)
