"""Integrator tests: scalar step oracles, closed-form decay, blowup brackets,
scheme cross-validation, and the weak/mild residual order checks.

The 1-node "grid" below turns the engine into a scalar ODE recursion, which
is the cheapest honest oracle for the IMEX update algebra.
"""

from dataclasses import replace

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from spdelab.blowup import ModelParams, PowerLaw, TabulatedNonlinearity, deterministic_dichotomy, Dichotomy
from spdelab.domain import (
    DomainSpec,
    EigenData,
    GridSpec,
    _laplacian,
    apply_heat_semigroup,
    build_grid,
    solve_eigenpairs,
)
from spdelab.errors import ConfigurationError, NumericalFailure, PreconditionFailure
from spdelab.integrator import (
    Outcome,
    Scheme,
    SchemeConfig,
    TrajectoryResult,
    _noise_factor,
    _transformed_reaction,
    mode_residuals,
    reconstruct_u,
    simulate_paths,
)
from spdelab.stochastic import BrownianPath, sample_brownian


def zero_g():
    return TabulatedNonlinearity(z=np.array([0.0, 1.0]), g=np.array([0.0, 0.0]))


def linear_params(kappa):
    return ModelParams(beta=1.0, kappa=kappa, G=zero_g())


def scalar_problem(lam=1.0):
    """Eigendata of a 1-node grid whose stencil -2/h^2 is -lam: the engine
    becomes a scalar recursion."""
    h = math.sqrt(2.0 / lam)
    dom = DomainSpec(kind="interval", lengths=(2.0 * h,))
    grid = GridSpec(domain=dom, n=1, axes=(np.array([h]),), h=(h,),
                    weights=np.array([1.0]))
    return EigenData(grid=grid, eigenvalues=np.array([lam]), modes=np.array([[1.0]]),
                     psi=np.array([1.0]))


def field_after(k, f, params, eig, dt, cfg=SchemeConfig()):
    """The transformed field after k steps of dt on the zero noise path. With
    k + 1 snapshots the stride is one, so snapshot k is the field after step k."""
    path = BrownianPath.frozen_zero(horizon=k * dt, dt=dt)
    traj = simulate_paths(f, [path], params, eig, replace(cfg, max_snapshots=k + 1))[0]
    assert len(traj.times) == k + 1
    return traj.snapshots[k]


class TestSchemeConfig:
    def test_guards(self):
        with pytest.raises(ConfigurationError):
            SchemeConfig(cutoff=0.5)
        with pytest.raises(ConfigurationError):
            SchemeConfig(max_snapshots=1)


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

    def test_crank_nicolson_eigenmode(self, interval_48):
        _, grid, _, eig = interval_48
        dt, cfg = 0.01, SchemeConfig(scheme=Scheme.CRANK_NICOLSON)
        new = field_after(1, eig.psi, linear_params(0.0), eig, dt, cfg)
        factor = (1.0 - 0.5 * dt * eig.lam1) / (1.0 + 0.5 * dt * eig.lam1)
        np.testing.assert_allclose(new, factor * eig.psi, rtol=1e-11)

    def test_negative_field_aborts(self, interval_48):
        # dt lam1 > 2 makes the Crank-Nicolson factor of psi negative, so one
        # step from the positive psi gives a negative field
        _, grid, _, eig = interval_48
        dt, cfg = 3.0, SchemeConfig(scheme=Scheme.CRANK_NICOLSON)
        assert dt * eig.lam1 > 2.0
        with pytest.raises(NumericalFailure, match="positivity lost"):
            field_after(1, eig.psi, linear_params(0.0), eig, dt, cfg)


class TestSimulateRpde:
    def test_linear_mass_decay_closed_form(self, interval_48):
        # G = 0: mass decays at rate lam1 + kappa^2/2 regardless of the path
        _, grid, _, eig = interval_48
        kappa = 0.5
        path = sample_brownian(seed=9, path_index=0, horizon=2.0, dt=1e-3)
        cfg = SchemeConfig()
        traj = simulate_paths(eig.psi, [path], linear_params(kappa), eig, cfg)[0]
        assert traj.outcome is Outcome.COMPLETED
        rate = eig.lam1 + 0.5 * kappa**2
        exact = traj.mass[0] * math.exp(-rate * 2.0)
        assert traj.mass[-1] == pytest.approx(exact, rel=3e-3)
        recursion = traj.mass[0] * (1.0 + path.dt * rate) ** -path.nsteps
        assert traj.mass[-1] == pytest.approx(recursion, rel=1e-10)

    def test_mass_series_is_weighted_pairing(self, interval_48):
        _, grid, _, eig = interval_48
        path = sample_brownian(seed=10, path_index=0, horizon=0.5, dt=1e-3)
        cfg = SchemeConfig(max_snapshots=501)
        f = 0.2 * np.ones(grid.npoints)
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=1.0), eig, cfg)[0]
        # snapshots are at full resolution here; compare the pairing directly
        idx = np.rint(traj.snapshot_times / path.dt).astype(int)
        expected = traj.snapshots @ (grid.weights * eig.psi)
        np.testing.assert_allclose(traj.mass[idx], expected, rtol=1e-12, atol=1e-15)

    def test_mass_differential_chain(self, interval_48):
        # (m_{k+1} - m_k)/dt + (lam1 + kappa^2/2) m_{k+1}
        #     >= e^{kappa beta W_k} m_k^{1+beta}  up to rounding:
        # eigen-pairing kills the diffusion exactly and Jensen bounds the
        # reaction from below, both exact in the uniform discrete measure.
        _, grid, _, eig = interval_48
        kappa = 1.0
        path = sample_brownian(seed=11, path_index=0, horizon=1.0, dt=1e-3)
        cfg = SchemeConfig()
        f = 0.3 * np.ones(grid.npoints)
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=kappa), eig, cfg)[0]
        m = traj.mass
        w = path.values[: len(m) - 1]
        lhs = np.diff(m) / path.dt + (eig.lam1 + 0.5 * kappa**2) * m[1:]
        rhs = np.exp(kappa * 1.0 * w) * m[:-1] ** 2
        assert np.all(lhs - rhs >= -1e-9 * np.max(np.abs(lhs)))

    def test_supercritical_blowup_detected(self, interval_48):
        _, grid, _, eig = interval_48
        f = 2.0 * np.ones(grid.npoints)
        assert deterministic_dichotomy(f, eig, 1.0) is Dichotomy.BLOWUP_CERTIFIED
        path = BrownianPath.frozen_zero(horizon=10.0, dt=1e-3)
        cfg = SchemeConfig()
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, cfg)[0]
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
        cfg = SchemeConfig()
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, cfg)[0]
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
            traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig,
                                  SchemeConfig())[0]
            assert traj.outcome is Outcome.NUMERICAL_BLOWUP
            t_b[n] = traj.t_blowup
        assert abs(t_b[48] - t_b[24]) / t_b[48] <= 0.05

    def test_snapshot_decimation(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        cfg = SchemeConfig(max_snapshots=50)
        f = 0.5 * np.ones(grid.npoints)
        traj = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, cfg)[0]
        assert len(traj.snapshot_times) <= 51
        assert traj.snapshot_times[0] == 0.0
        assert traj.snapshot_times[-1] == traj.times[-1]
        assert len(traj.times) == 1001  # scalar series stay at full resolution

    def test_input_guards(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        cfg = SchemeConfig()
        params = ModelParams(beta=1.0, kappa=0.0)
        with pytest.raises(PreconditionFailure):
            simulate_paths(-np.ones(grid.npoints), [path], params, eig, cfg)
        with pytest.raises(PreconditionFailure):
            simulate_paths(np.zeros(grid.npoints), [path], params, eig, cfg)
        for bad in (math.nan, math.inf, -math.inf):
            f = np.ones(grid.npoints)
            f[3] = bad
            with pytest.raises(ConfigurationError, match=f"not finite at node 3: f={bad}"):
                simulate_paths(f, [path], params, eig, cfg)


def interval_16():
    dom = DomainSpec(kind="interval", lengths=(math.pi,))
    grid = build_grid(dom, 16)
    return grid, solve_eigenpairs(grid, 4)


def tabulated_square():
    # G(z) = z^2 sampled geometrically far past the cutoff, so the chord
    # interpolant blows up like the power law it samples
    z = np.concatenate([[0.0], np.logspace(-4.0, 10.0, 400)])
    return TabulatedNonlinearity(z=z, g=z**2)


def single_path_loop(f, path, params, eig, cfg, variable):
    """Reference: one path, one column per solve, mass and sup up to the
    first cutoff crossing."""
    lap = _laplacian(eig.grid)
    eye = sparse.identity(lap.shape[0], format="csc")
    shift = 0.5 * params.kappa**2 if variable == "v" else 0.0
    gen = (lap - shift * eye).tocsc()
    theta = 1.0 if cfg.scheme is Scheme.IMEX else 0.5
    solve = splu((eye - theta * path.dt * gen).tocsc()).solve
    explicit = None if theta == 1.0 else (eye + 0.5 * path.dt * gen).tocsr()
    dw = np.diff(path.values)
    v = f
    mass, sup = [float(np.dot(eig.grid.weights, eig.psi * v))], [float(np.max(np.abs(v)))]
    for k in range(path.nsteps):
        if variable == "v":
            factor = params.G.coeff * math.exp(min(params.kappa * params.beta * path.values[k], 700.0))
            r = factor * np.power(np.maximum(v, 0.0), 1.0 + params.beta)
        else:
            r = params.G(v) + params.kappa * v * (dw[k] / path.dt)
        v = solve((v if explicit is None else explicit @ v) + path.dt * r)
        if not np.max(np.abs(v)) < cfg.cutoff:
            break
        mass.append(float(np.dot(eig.grid.weights, eig.psi * v)))
        sup.append(float(np.max(np.abs(v))))
    return np.array(mass), np.array(sup)


class TestBlockEngine:
    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize("scheme", [Scheme.IMEX, Scheme.CRANK_NICOLSON])
    @pytest.mark.parametrize("nonlinearity", ["power_law", "tabulated"])
    def test_block_width_invariance(self, variable, scheme, nonlinearity):
        # six paths that mix blowup and completion: one block, blocks of two,
        # and single-path calls give the same bytes
        grid, eig = interval_16()
        g = PowerLaw() if nonlinearity == "power_law" else tabulated_square()
        params = ModelParams(beta=1.0, kappa=1.0, G=g)
        cfg = SchemeConfig(cutoff=1e6, scheme=scheme, max_snapshots=40)
        f = 3.0 * eig.psi
        paths = [sample_brownian(2.0, 2e-3, 7, i) for i in range(6)]
        single = [simulate_paths(f, [p], params, eig, cfg, variable)[0] for p in paths]
        pairs = [r for i in range(0, 6, 2)
                 for r in simulate_paths(f, paths[i:i + 2], params, eig, cfg, variable)]
        block = simulate_paths(f, paths, params, eig, cfg, variable)
        outcomes = {r.outcome for r in single}
        assert outcomes == {Outcome.COMPLETED, Outcome.NUMERICAL_BLOWUP}
        for run in (pairs, block):
            for a, b in zip(single, run):
                assert a.outcome is b.outcome
                assert (a.t_last_stable, a.t_blowup) == (b.t_last_stable, b.t_blowup)
                for name in ("times", "mass", "sup", "snapshot_times", "snapshots"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize("variable", ["v", "u"])
    @pytest.mark.parametrize("scheme", [Scheme.IMEX, Scheme.CRANK_NICOLSON])
    def test_matches_single_path_loop(self, variable, scheme):
        # the block engine reproduces the per-path loop it replaced, bit for
        # bit, on every accepted step of every path
        grid, eig = interval_16()
        params = ModelParams(beta=1.0, kappa=1.0)
        cfg = SchemeConfig(cutoff=1e6, scheme=scheme)
        f = 3.0 * eig.psi
        paths = [sample_brownian(2.0, 2e-3, 7, i) for i in range(6)]
        block = simulate_paths(f, paths, params, eig, cfg, variable)
        for path, traj in zip(paths, block):
            mass, sup = single_path_loop(f, path, params, eig, cfg, variable)
            assert traj.mass.tobytes() == mass.tobytes()
            assert traj.sup.tobytes() == sup.tobytes()

    def test_paths_must_share_the_grid(self):
        grid, eig = interval_16()
        # another step count at one dt, and one step count at another dt
        for other in (BrownianPath.frozen_zero(2.0, 1e-3), BrownianPath.frozen_zero(2.0, 2e-3)):
            paths = [BrownianPath.frozen_zero(1.0, 1e-3), other]
            with pytest.raises(ConfigurationError, match="one time grid"):
                simulate_paths(eig.psi, paths, ModelParams(beta=1.0, kappa=0.0), eig,
                               SchemeConfig())

    @given(
        dt=st.sampled_from([0.05, 0.02, 0.01, 0.005, 0.002]),
        a=st.floats(min_value=2.5, max_value=40.0),
        cutoff=st.sampled_from([1e3, 1e5, 1e8]),
        kappa=st.sampled_from([0.0, 1.0]),
        scheme=st.sampled_from([Scheme.IMEX, Scheme.CRANK_NICOLSON]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200)
    def test_bracket_stays_inside_the_crossing_step(self, dt, a, cutoff, kappa, scheme, seed):
        grid, eig = interval_16()
        params = ModelParams(beta=1.0, kappa=kappa)
        path = (BrownianPath.frozen_zero(4.0, dt) if kappa == 0.0
                else sample_brownian(4.0, dt, seed, 0))
        cfg = SchemeConfig(cutoff=cutoff, scheme=scheme)
        traj = simulate_paths(a * eig.psi, [path], params, eig, cfg)[0]
        event(traj.outcome.value)
        if traj.outcome is not Outcome.NUMERICAL_BLOWUP:
            return
        stable_t = 0.0  # the engine's clock at the last stable step: dt summed step by step
        for _ in range(len(traj.times) - 1):
            stable_t += dt
        assert stable_t <= traj.t_last_stable <= traj.t_blowup <= stable_t + dt


class TestSchemeCrossValidation:
    def test_noiseless_schemes_coincide_exactly(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.4 * eig.psi
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        cfg = SchemeConfig()
        params = ModelParams(beta=1.0, kappa=0.0)
        a = simulate_paths(f, [path], params, eig, cfg)[0]
        b = simulate_paths(f, [path], params, eig, cfg, variable="u")[0]
        assert np.array_equal(a.mass, b.mass)
        assert np.array_equal(a.snapshots, b.snapshots)

    def test_em_mass_tracks_geometric_noise(self, interval_48):
        # G = 0, kappa = 0.5: exact mass is m0 e^{-lam1 t + kappa W_t - kappa^2 t/2}
        _, grid, _, eig = interval_48
        kappa = 0.5
        path = sample_brownian(seed=21, path_index=0, horizon=1.0, dt=1e-4)
        cfg = SchemeConfig()
        traj = simulate_paths(eig.psi, [path], linear_params(kappa), eig, cfg, "u")[0]
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
        cfg = SchemeConfig(max_snapshots=200)
        u_direct = simulate_paths(f, [path], params, eig, cfg, variable="u")[0]
        u_mapped = reconstruct_u(simulate_paths(f, [path], params, eig, cfg)[0], path, kappa)
        assert u_direct.outcome is Outcome.COMPLETED
        scale = np.max(np.abs(u_mapped.snapshots))
        diff = np.max(np.abs(u_direct.snapshots - u_mapped.snapshots))
        assert diff / scale <= 0.05

    def test_reconstruct_identity_at_zero_noise(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.4 * eig.psi
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        cfg = SchemeConfig()
        v = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig, cfg)[0]
        u = reconstruct_u(v, path, 0.0)
        assert np.array_equal(u.mass, v.mass)
        assert np.array_equal(u.snapshots, v.snapshots)
        assert u.variable == "u"

    def test_reconstruct_mass_relation_exact(self, interval_48):
        _, grid, _, eig = interval_48
        kappa = 0.8
        f = 0.3 * eig.psi
        path = sample_brownian(seed=4, path_index=2, horizon=0.5, dt=1e-3)
        v = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=kappa), eig,
                           SchemeConfig())[0]
        u = reconstruct_u(v, path, kappa)
        np.testing.assert_allclose(u.mass, v.mass * np.exp(kappa * path.values), rtol=1e-14)
        assert np.all(u.snapshots >= 0)

    def test_reconstruct_guards(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.3 * eig.psi
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-3)
        v = simulate_paths(f, [path], ModelParams(beta=1.0, kappa=0.0), eig,
                           SchemeConfig())[0]
        with pytest.raises(ConfigurationError):
            reconstruct_u(v, BrownianPath.frozen_zero(horizon=1.0, dt=2e-3), 0.0)
        u = reconstruct_u(v, path, 0.0)
        with pytest.raises(ConfigurationError):
            reconstruct_u(u, path, 0.0)  # already physical


class TestWeakFormResidual:
    def _run(self, interval_48, dt, kappa=0.0, nonlinearity=None, variable="v"):
        _, grid, _, eig = interval_48
        params = (ModelParams(beta=1.0, kappa=kappa, G=nonlinearity)
                  if nonlinearity is not None else ModelParams(beta=1.0, kappa=kappa))
        f = 0.3 * eig.psi
        path = BrownianPath.frozen_zero(horizon=0.5, dt=dt)
        cfg = SchemeConfig(max_snapshots=100000)
        traj = simulate_paths(f, [path], params, eig, cfg, variable)[0]
        return mode_residuals(traj, path, params, eig, n_modes=3)[:2]

    def test_zero_at_initial_time(self, interval_48):
        _, res = self._run(interval_48, dt=1e-3, nonlinearity=zero_g())
        assert res[0] == 0.0

    def test_linear_residual_small_and_first_order(self, interval_48):
        _, coarse = self._run(interval_48, dt=2e-3, nonlinearity=zero_g())
        _, fine = self._run(interval_48, dt=5e-4, nonlinearity=zero_g())
        assert np.max(coarse) < 1e-3
        ratio = np.max(coarse) / np.max(fine)
        assert 2.8 <= ratio <= 5.5  # dt quartered -> residual ~ quartered

    def test_nonlinear_residual_first_order(self, interval_48):
        _, coarse = self._run(interval_48, dt=2e-3)
        _, fine = self._run(interval_48, dt=1e-3)
        ratio = np.max(coarse) / np.max(fine)
        assert 1.6 <= ratio <= 2.6

    def test_physical_variable_with_noise_runs(self, interval_48):
        t, res = self._run(interval_48, dt=1e-3, kappa=0.4, variable="u")
        assert np.all(np.isfinite(res))
        assert res[0] == 0.0

    def test_mode_count_guard(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=0.5, dt=1e-3)
        traj = simulate_paths(0.3 * eig.psi, [path], ModelParams(beta=1.0, kappa=0.0),
                              eig, SchemeConfig())[0]
        with pytest.raises(ConfigurationError):
            mode_residuals(traj, path, ModelParams(beta=1.0, kappa=0.0), eig,
                           n_modes=eig.m + 1)


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
            math.exp(-0.5 * kappa**2 * t) * apply_heat_semigroup(f, t, eig) for t in times
        ])
        traj = TrajectoryResult(
            variable="v", outcome=Outcome.COMPLETED, t_blowup=None, t_last_stable=None,
            times=times, mass=snaps @ (grid.weights * eig.psi),
            sup=np.max(np.abs(snaps), axis=1), snapshot_times=times, snapshots=snaps,
            dt=0.1,
        )
        path = BrownianPath.frozen_zero(horizon=1.0, dt=0.1)
        _, _, res = mode_residuals(traj, path, params, eig)
        assert np.max(res) < 1e-12

    def test_zero_at_initial_time(self, interval_48):
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=0.5, dt=1e-3)
        params = ModelParams(beta=1.0, kappa=0.0)
        traj = simulate_paths(0.2 * eig.psi, [path], params, eig,
                              SchemeConfig(max_snapshots=100000))[0]
        _, _, res = mode_residuals(traj, path, params, eig)
        assert res[0] == 0.0

    def test_nonlinear_first_order_in_dt(self, interval_48):
        _, grid, _, eig = interval_48
        params = ModelParams(beta=1.0, kappa=0.0)
        maxima = {}
        for dt in (2e-3, 1e-3):
            path = BrownianPath.frozen_zero(horizon=0.5, dt=dt)
            traj = simulate_paths(0.1 * eig.psi, [path], params, eig,
                                  SchemeConfig(max_snapshots=100000))[0]
            _, _, res = mode_residuals(traj, path, params, eig)
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
        traj = simulate_paths(a * eig.psi, [path], params, eig, SchemeConfig())[0]
        t, w = traj.snapshot_times, grid.weights
        factor = _noise_factor(np.interp(t, path.times, path.values), params)
        react = _transformed_reaction(traj.snapshots, factor, params)
        coeff = (traj.snapshots * w) @ eig.modes
        b = (react * w) @ eig.modes
        mu = eig.eigenvalues + 0.5 * params.kappa**2
        conv = np.zeros_like(coeff)
        for i in range(1, len(t)):
            step = t[i] - t[i - 1]
            decay = np.exp(-mu * step)
            conv[i] = decay * conv[i - 1] + 0.5 * step * (decay * b[i - 1] + b[i])
        homogeneous = np.exp(-np.outer(t, mu)) * coeff[0]
        reference = np.sqrt(np.sum((coeff - homogeneous - conv) ** 2, axis=1))
        _, _, mild = mode_residuals(traj, path, params, eig)
        assert (traj.outcome is Outcome.NUMERICAL_BLOWUP) == (a > 1)
        assert mild[0] == reference[0] == 0.0
        assert np.max(np.abs(mild - reference)) <= 1e-10 * np.max(reference)

    def test_transformed_only(self, interval_48):
        # the mild form is stated for v: mild is None for u
        _, grid, _, eig = interval_48
        path = BrownianPath.frozen_zero(horizon=0.5, dt=1e-3)
        params = ModelParams(beta=1.0, kappa=0.0)
        traj = simulate_paths(0.2 * eig.psi, [path], params, eig, SchemeConfig(),
                              variable="u")[0]
        t, weak, mild = mode_residuals(traj, path, params, eig)
        assert mild is None
        assert weak.shape == t.shape
