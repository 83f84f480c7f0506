"""Mass pipeline tests: lower solution closed forms, hitting times, Monte Carlo.

Deterministic paths give exact closed forms (kappa=0 turns A(t) into an
ordinary integral), so most oracles here are pencil-and-paper. The Monte
Carlo estimator is checked against the gamma-tail law it exists to verify,
plus frozen regression values for bitwise reproducibility.
"""

import concurrent.futures
import functools
import logging
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spdelab import blowup, stochastic
from spdelab.blowup import (
    BlowupThreshold,
    Dichotomy,
    ModelParams,
    PowerLaw,
    ProbabilityEstimate,
    TabulatedNonlinearity,
    analytic_blowup_bound,
    deterministic_dichotomy,
    lower_solution_series,
    mc_blowup_probability,
)
from spdelab.certificates import certificate_heat_kernel
from spdelab.config import HeatKernelConfig
from spdelab.domain import (
    DomainSpec,
    build_grid,
    heat_kernel_ratio_report,
    solve_eigenpairs,
    weighted_inner,
)
from spdelab.errors import ConfigurationError
from spdelab.stochastic import (
    BrownianPath,
    _n_steps,
    brownian_increments,
    exp_functional,
    sample_brownian,
)

# Q(3, 1) to machine precision, and its complement.
P_GLOBAL_REF = 0.9196986029286058
P_BLOWUP_REF = 0.08030139707139416


class TestNonlinearities:
    def test_power_law_values(self):
        g = PowerLaw(coeff=2.0, beta=1.5)
        assert g(0.0) == 0.0
        assert g(4.0) == pytest.approx(2.0 * 4.0**2.5, rel=1e-15)
        assert g(-3.0) == 0.0  # negative part clipped

    def test_power_law_validation(self):
        with pytest.raises(ConfigurationError):
            PowerLaw(coeff=0.0, beta=1.0)
        with pytest.raises(ConfigurationError):
            PowerLaw(coeff=1.0, beta=-1.0)

    def test_power_law_two_sided_bounds_tight(self):
        # With C = Lambda = coeff the sandwich C z^(1+b) <= G(z) <= L z^(1+b)
        # holds with equality on both sides.
        p = ModelParams(beta=2.0, kappa=0.5)
        z = np.linspace(0, 7, 61)
        gz = p.G(z)
        np.testing.assert_allclose(gz, p.C * z**3, rtol=1e-14)
        np.testing.assert_allclose(gz, p.Lambda * z**3, rtol=1e-14)

    def test_tabulated_interpolates(self):
        z = np.array([0.0, 1.0, 2.0, 4.0])
        g = TabulatedNonlinearity(z=z, g=z**2)
        assert g(1.5) == pytest.approx(2.5)  # chord between 1 and 4
        assert g(0.0) == 0.0
        assert g(10.0) == 16.0  # clamped at the table edge

    def test_tabulated_rejects_bad_tables(self):
        with pytest.raises(ConfigurationError):
            TabulatedNonlinearity(z=np.array([0.0, 1.0]), g=np.array([0.5, 1.0]))
        with pytest.raises(ConfigurationError):
            TabulatedNonlinearity(z=np.array([0.0, 2.0, 1.0]), g=np.array([0.0, 4.0, 1.0]))
        with pytest.raises(ConfigurationError):
            # G(z)/z = 1, 4, 1: not nondecreasing
            TabulatedNonlinearity(z=np.array([0.0, 1.0, 2.0, 3.0]), g=np.array([0.0, 1.0, 8.0, 3.0]))

    @pytest.mark.parametrize(
        "z, g",
        [
            ([0.0, 1.0, math.nan], [0.0, 1.0, 4.0]),
            ([0.0, 1.0, 2.0], [0.0, 1.0, math.nan]),
            ([0.0, 1.0, math.inf], [0.0, 1.0, math.inf]),
        ],
        ids=["nan_z", "nan_g", "inf_both"],
    )
    def test_tabulated_rejects_non_finite_entries(self, z, g):
        # NaN slips through every ordering check, and inf/inf warns in the
        # ratio check, so finiteness is tested first
        with pytest.raises(ConfigurationError, match="finite"):
            TabulatedNonlinearity(z=np.array(z), g=np.array(g))


class TestModelParams:
    def test_defaults_build_matching_power_law(self):
        p = ModelParams(beta=1.0, kappa=1.0)
        assert isinstance(p.G, PowerLaw)
        assert p.G.coeff == p.C == p.Lambda == 1.0
        assert p.G.beta == 1.0

    def test_rejects_exponent_mismatch(self):
        with pytest.raises(ConfigurationError):
            ModelParams(beta=1.0, kappa=1.0, G=PowerLaw(coeff=1.0, beta=2.0))

    def test_rejects_coefficient_outside_bounds(self):
        with pytest.raises(ConfigurationError):
            ModelParams(beta=1.0, kappa=1.0, C=1.0, Lambda=1.0, G=PowerLaw(coeff=2.0, beta=1.0))

    def test_rejects_crossed_constants(self):
        with pytest.raises(ConfigurationError):
            ModelParams(beta=1.0, kappa=1.0, C=2.0, Lambda=1.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ConfigurationError):
            ModelParams(beta=0.0, kappa=1.0)
        with pytest.raises(ConfigurationError):
            ModelParams(beta=1.0, kappa=-0.5)
        with pytest.raises(ConfigurationError):
            ModelParams(beta=1.0, kappa=1.0, Cstar=0.0)

    @pytest.mark.parametrize(
        "kappa, beta, name", [(1e200, 1.0, "kappa"), (1.0, 1e200, "beta"), (1e100, 1e100, "beta")]
    )
    def test_rejects_overflowing_squares(self, kappa, beta, name):
        # kappa^2 or (kappa beta)^2 is not a finite float
        with pytest.raises(ConfigurationError, match=f"{name}=1e"):
            ModelParams(beta=beta, kappa=kappa)
        assert ModelParams(beta=1e200, kappa=0.0).beta == 1e200  # no noise, nothing squared


class TestThreshold:
    def test_reference_values(self):
        thr = BlowupThreshold(0.5, ModelParams(beta=1.0, kappa=1.0))
        assert thr.x_star == pytest.approx(2.0, rel=1e-15)
        thr = BlowupThreshold(2.0, ModelParams(beta=1.0, kappa=1.0))
        assert thr.x_star == pytest.approx(0.5, rel=1e-15)
        thr = BlowupThreshold(4.0, ModelParams(beta=0.5, kappa=1.0))
        assert thr.x_star == pytest.approx(2.0 / 2.0, rel=1e-15)  # (1/b) 4^{-1/2}

    def test_level_reads_the_lower_constant(self):
        # G >= C z^(1+beta) with C = 1/4: x* = v0psi^(-beta)/(C beta)
        params = ModelParams(beta=1.0, kappa=1.0, C=0.25, Lambda=0.25)
        assert BlowupThreshold(0.5, params).x_star == 8.0

    @given(
        v0_small=st.floats(min_value=0.01, max_value=10.0),
        factor=st.floats(min_value=1.001, max_value=100.0),
        beta=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=60)
    def test_level_decreases_with_mass(self, v0_small, factor, beta):
        lo = BlowupThreshold(v0_small, ModelParams(beta=beta, kappa=1.0))
        hi = BlowupThreshold(v0_small * factor, ModelParams(beta=beta, kappa=1.0))
        assert hi.x_star < lo.x_star


class TestLowerSolution:
    # kappa=0, lam1=1, beta=1: A(t) = 1 - e^{-t}, so with v0psi = 1/2 the
    # closed form is I(t) = e^{-t} / (2 - (1 - e^{-t})) ... = 1/(1 + e^t).
    def test_subcritical_closed_form(self):
        path = BrownianPath.frozen_zero(horizon=5.0, dt=1e-3)
        thr = BlowupThreshold(0.5, ModelParams(beta=1.0, kappa=0.0))
        times, values, blown, tau = lower_solution_series(path, thr, lam1=1.0)
        assert blown is None and tau is None
        for t in (0.0, 0.25, 1.0, 3.0, 5.0):
            k = int(round(t / path.dt))
            assert times[k] == pytest.approx(t, abs=1e-12)
            assert values[k] == pytest.approx(1.0 / (1.0 + math.exp(times[k])), rel=1e-6)

    def test_lower_constant_closed_form(self):
        # C = 1/2 halves the reaction: with v0psi = 2 the bracket is
        # 1/2 - (1 - e^{-t})/2 = e^{-t}/2, so I(t) = e^{-t} (e^{-t}/2)^{-1} = 2
        # for all t, where C = 1 diverges at ln 2
        path = BrownianPath.frozen_zero(horizon=5.0, dt=1e-3)
        thr = BlowupThreshold(2.0, ModelParams(beta=1.0, kappa=0.0, C=0.5, Lambda=0.5))
        _, values, blown, tau = lower_solution_series(path, thr, lam1=1.0)
        assert blown is None and tau is None
        # the trapezoid error of A, about dt^2/12, grows relative to the
        # shrinking bracket: 1.2e-5 at t = 5
        assert_allclose(values, 2.0, rtol=1e-4)

    def test_initial_value_is_initial_mass(self):
        path = sample_brownian(seed=3, path_index=0, horizon=1.0, dt=1e-3)
        thr = BlowupThreshold(0.7, ModelParams(beta=2.0, kappa=0.8))
        _, values, _, _ = lower_solution_series(path, thr, lam1=1.0)
        assert values[0] == pytest.approx(0.7, rel=1e-14)

    def test_supercritical_diverges_at_log_two(self):
        path = BrownianPath.frozen_zero(horizon=5.0, dt=1e-3)
        thr = BlowupThreshold(2.0, ModelParams(beta=1.0, kappa=0.0))
        # finite just before the divergence time ln 2, NaN from there on
        times, values, blown, _ = lower_solution_series(path, thr, lam1=1.0)
        assert times[690] == pytest.approx(0.69, abs=1e-12)
        assert math.isfinite(values[690]) and values[690] > 50.0
        assert blown is not None and times[blown] <= 0.7
        assert times[blown] == pytest.approx(math.log(2.0), abs=2e-3)

    def test_series_masks_after_divergence(self):
        path = BrownianPath.frozen_zero(horizon=2.0, dt=1e-3)
        thr = BlowupThreshold(2.0, ModelParams(beta=1.0, kappa=0.0))
        times, values, blown, _ = lower_solution_series(path, thr, lam1=1.0)
        assert blown is not None
        assert times[blown] == pytest.approx(math.log(2.0), abs=2e-3)
        assert np.all(np.isfinite(values[:blown]))
        assert np.all(np.isnan(values[blown:]))

    def test_series_monotone_increasing_supercritical(self):
        path = BrownianPath.frozen_zero(horizon=2.0, dt=1e-3)
        thr = BlowupThreshold(2.0, ModelParams(beta=1.0, kappa=0.0))
        _, values, blown, _ = lower_solution_series(path, thr, lam1=1.0)
        alive = values[:blown]
        assert np.all(np.diff(alive) > 0)


class TestTauFromPath:
    # tau is the fourth return of lower_solution_series
    def test_deterministic_crossing_at_log_two(self):
        path = BrownianPath.frozen_zero(horizon=5.0, dt=1e-3)
        thr = BlowupThreshold(2.0, ModelParams(beta=1.0, kappa=0.0))
        _, _, blown, tau = lower_solution_series(path, thr, lam1=1.0)
        assert blown is not None
        assert tau == pytest.approx(math.log(2.0), abs=1e-6)

    def test_censored_when_level_unreachable(self):
        # kappa=0 caps A at 1/lam1 = 1 < x* = 2
        path = BrownianPath.frozen_zero(horizon=5.0, dt=1e-3)
        thr = BlowupThreshold(0.5, ModelParams(beta=1.0, kappa=0.0))
        _, _, blown, tau = lower_solution_series(path, thr, lam1=1.0)
        assert blown is None
        assert tau is None

    def test_interpolation_beats_grid_resolution(self):
        # Coarse grid, same crossing: interpolated tau stays sharp.
        path = BrownianPath.frozen_zero(horizon=5.0, dt=0.05)
        thr = BlowupThreshold(2.0, ModelParams(beta=1.0, kappa=0.0))
        _, _, _, tau = lower_solution_series(path, thr, lam1=1.0)
        assert tau == pytest.approx(math.log(2.0), abs=2e-4)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
        v0psi=st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tau_inside_the_blown_step(self, seed, beta, v0psi):
        path = sample_brownian(horizon=5.0, dt=1e-2, seed=seed, path_index=0)
        thr = BlowupThreshold(v0psi, ModelParams(beta=beta, kappa=1.0))
        times, _, blown, tau = lower_solution_series(path, thr, lam1=1.0)
        assert (tau is None) == (blown is None)
        if blown is not None:
            assert times[blown - 1] <= tau <= times[blown]


class TestAnalyticBound:
    def test_reference_parameter_point(self):
        thr = BlowupThreshold(0.5, ModelParams(beta=1.0, kappa=1.0))
        bound = analytic_blowup_bound(1.0, 1.0, 1.0, thr.x_star)
        assert bound.alpha == pytest.approx(3.0, rel=1e-14)
        assert bound.z_star == pytest.approx(1.0, rel=1e-14)
        assert bound.p_global == pytest.approx(P_GLOBAL_REF, rel=1e-13)
        assert bound.p_blowup_lower == pytest.approx(P_BLOWUP_REF, rel=1e-12)

    def test_noiseless_redirects(self):
        thr = BlowupThreshold(0.5, ModelParams(beta=1.0, kappa=1.0))
        with pytest.raises(ConfigurationError):
            analytic_blowup_bound(1.0, 0.0, 1.0, thr.x_star)

    @given(
        v0=st.floats(min_value=0.05, max_value=5.0),
        kappa=st.floats(min_value=0.2, max_value=3.0),
        beta=st.floats(min_value=0.25, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_probabilities_complementary(self, v0, kappa, beta):
        thr = BlowupThreshold(v0, ModelParams(beta=beta, kappa=1.0))
        bound = analytic_blowup_bound(1.0, kappa, beta, thr.x_star)
        assert 0.0 <= bound.p_global <= 1.0
        assert bound.p_blowup_lower + bound.p_global == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kappa, level",
        [(1.0, math.nan), (1.0, 0.0), (1.0, -2.0), (1e-100, 1e-150)],
        ids=["nan", "zero", "negative", "underflow"],
    )
    def test_level_without_gamma_argument_rejected(self, kappa, level):
        # kappa^2 beta^2 level is 1e-350 in the last case: 0 in floats
        with pytest.raises(ConfigurationError, match=f"kappa={kappa!r}, beta=1.0 and level"):
            analytic_blowup_bound(1.0, kappa, 1.0, level)

    def test_infinite_level_is_never_hit(self):
        bound = analytic_blowup_bound(1.0, 1.0, 1.0, math.inf)
        assert (bound.z_star, bound.p_blowup_lower, bound.p_global) == (0.0, 0.0, 1.0)

    def test_tiny_mass_is_an_infinite_level(self):
        # 1e-320^(-2) overflows a float power; the level is out of reach
        thr = BlowupThreshold(1e-320, ModelParams(beta=2.0, kappa=1.0))
        assert thr.x_star == math.inf
        path = sample_brownian(1.0, 1e-2, 3, 0)
        _, values, blown, tau = lower_solution_series(path, thr, lam1=1.0)
        assert blown is None and tau is None
        assert np.all(values == 0.0)

    def test_blowup_probability_increases_with_mass(self):
        kappa, beta = 1.0, 1.0
        params = ModelParams(beta=beta, kappa=kappa)
        masses = [0.25, 0.5, 1.0, 2.0, 4.0]
        probs = [
            analytic_blowup_bound(1.0, kappa, beta, BlowupThreshold(m, params).x_star).p_blowup_lower
            for m in masses
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))


class TestDichotomy:
    NOISELESS = ModelParams(beta=1.0, kappa=0.0)

    def test_supercritical_mass(self, interval_48):
        _, grid, _, eig = interval_48
        f = 2.0 * np.ones(grid.npoints)  # <f, psi> = 2 since sum(w psi) = 1
        verdict = deterministic_dichotomy(f, eig, self.NOISELESS)
        assert verdict == (Dichotomy.BLOWUP_CERTIFIED, eig.lam1)

    def test_subcritical_mass(self, interval_48):
        _, grid, _, eig = interval_48
        f = 0.5 * np.ones(grid.npoints)
        assert deterministic_dichotomy(f, eig, self.NOISELESS).outcome is Dichotomy.TAU_INFINITE

    def test_near_boundary_from_below(self, interval_48):
        _, grid, _, eig = interval_48
        f = (eig.lam1 * 0.999) * np.ones(grid.npoints)
        assert deterministic_dichotomy(f, eig, self.NOISELESS).outcome is Dichotomy.TAU_INFINITE

    def test_bad_beta_rejected(self, interval_48):
        _, grid, _, eig = interval_48
        with pytest.raises(ConfigurationError):
            deterministic_dichotomy(np.ones(grid.npoints), eig, ModelParams(beta=0.0, kappa=0.0))

    def test_threshold_reads_the_lower_constant(self, interval_48):
        # G >= C z^(1+beta): the lower solution blows up above (lam1/C)^(1/beta)
        _, grid, _, eig = interval_48
        params = ModelParams(beta=2.0, kappa=0.0, C=0.25, Lambda=0.5)
        threshold = (4.0 * eig.lam1) ** 0.5
        for mass, outcome in ((0.99, Dichotomy.TAU_INFINITE), (1.01, Dichotomy.BLOWUP_CERTIFIED)):
            f = mass * threshold * np.ones(grid.npoints)
            verdict = deterministic_dichotomy(f, eig, params)
            assert verdict.outcome is outcome
            assert verdict.threshold == pytest.approx(threshold, rel=1e-15)


class TestMassInvariants:
    # Uniform interior weights make the discrete pairing exact for both
    # identities the pipeline leans on.
    def test_laplacian_self_adjoint_in_weighted_inner(self, interval_48):
        _, grid, lap, _ = interval_48
        rng = np.random.default_rng(11)
        f = rng.normal(size=grid.npoints)
        g = rng.normal(size=grid.npoints)
        lhs = weighted_inner(grid, lap @ f, g)
        rhs = weighted_inner(grid, f, lap @ g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_laplacian_self_adjoint_rectangle(self, rect_32):
        _, grid, lap, _ = rect_32
        rng = np.random.default_rng(12)
        f = rng.normal(size=grid.npoints)
        g = rng.normal(size=grid.npoints)
        lhs = weighted_inner(grid, lap @ f, g)
        rhs = weighted_inner(grid, f, lap @ g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_jensen_for_power_law_mass(self, interval_48, beta):
        # sum(w psi) = 1 turns w*psi into a probability measure, so
        # <G(v), psi> >= C <v, psi>^(1+beta) for any v >= 0 exactly.
        _, grid, _, eig = interval_48
        g = PowerLaw(coeff=1.0, beta=beta)
        rng = np.random.default_rng(21)
        for _ in range(20):
            v = rng.exponential(scale=2.0, size=grid.npoints)
            lhs = weighted_inner(grid, eig.psi, g(v))
            rhs = weighted_inner(grid, eig.psi, v) ** (1.0 + beta)
            assert lhs >= rhs * (1.0 - 1e-12)

    def test_jensen_equality_on_constants(self, interval_48):
        _, grid, _, eig = interval_48
        g = PowerLaw(coeff=1.0, beta=1.0)
        v = 3.0 * np.ones(grid.npoints)
        lhs = weighted_inner(grid, eig.psi, g(v))
        rhs = weighted_inner(grid, eig.psi, v) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMonteCarlo:
    PARAMS = ModelParams(beta=1.0, kappa=1.0)
    LEVEL = BlowupThreshold(0.5, PARAMS).x_star

    def test_smoke_estimate_matches_gamma_tail(self):
        est = mc_blowup_probability(
            self.PARAMS, 1.0, [self.LEVEL], n_paths=1500, horizon=40.0, dt=1e-3, seed=777
        ).estimates[0]
        assert abs(est.p_hat - P_BLOWUP_REF) <= 4.0 * est.stderr + est.truncation_allowance
        assert est.n_censored == est.n_paths - round(est.p_hat * est.n_paths)
        assert est.truncation_allowance < 1e-10  # horizon 40 leaves no tail mass
        assert est.n_saturated == 0

    def test_smoke_estimate_frozen_regression(self):
        est = mc_blowup_probability(
            self.PARAMS, 1.0, [self.LEVEL], n_paths=1500, horizon=40.0, dt=1e-3, seed=777
        ).estimates[0]
        assert est.p_hat == 127 / 1500  # bitwise-stable stream, exact count
        assert est.n_censored == 1373

    def test_path_kernel_matches_exp_functional(self, monkeypatch):
        # the Monte Carlo kernel and exp_functional compute A(T) separately
        horizon, dt, seed, n = 30.0, 1e-3, 11, 300
        a, b = blowup._drift_scale(self.PARAMS.beta, self.PARAMS.kappa, 1.0)
        alpha = analytic_blowup_bound(1.0, self.PARAMS.kappa, 1.0, self.LEVEL).alpha
        nsteps = _n_steps(horizon, dt)

        def run(x_star, count=n):
            # the (A, p, saturated, steps) column of the one threshold
            runs = blowup._advance_paths(seed, 0, count, nsteps, dt, a * dt, b, [x_star], alpha)
            return tuple(column[:, 0] for column in runs)

        def hit_count(A, x_star):
            return int(np.sum(A >= x_star))

        ref = np.array(
            [exp_functional(sample_brownian(horizon, dt, seed, i), a, b)[0][-1] for i in range(n)]
        )
        ordered = np.sort(ref)
        x_star = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
        stopped = run(x_star)
        monkeypatch.setattr(blowup, "MC_STOP_PROB", -1.0)  # every path runs to T or its hit
        # with x* = inf no path hits, so each path reports its A(T)
        kernel, _, _, _ = run(math.inf)
        assert_allclose(kernel, ref, rtol=1e-12, atol=0)
        A, _, saturated, _ = run(x_star)
        assert hit_count(A, x_star) == int(np.sum(ref >= x_star)) == n // 2
        max_censored = A[A < x_star].max()
        assert max_censored == pytest.approx(ordered[n // 2 - 1], rel=1e-12)
        assert not saturated.any()
        # stopping early changes no verdict, and no chunk size does either;
        # 7-step chunks cost a generator call each, so they run 100 paths
        assert hit_count(stopped[0], x_star) == n // 2
        monkeypatch.setattr(blowup, "MC_STOP_PROB", 1e-10)
        for chunk, count in ((7, 100), (nsteps + 1, n)):
            monkeypatch.setattr(blowup, "MC_CHUNK", chunk)
            assert hit_count(run(x_star, count)[0], x_star) == hit_count(stopped[0][:count], x_star)

    @pytest.mark.parametrize("chunk", [7, 2000])
    def test_chunked_draws_are_the_published_stream(self, monkeypatch, chunk):
        drawn = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size=None, out=None):
                z = self.rng.standard_normal(size, out=out)
                drawn.append(z.copy())  # the kernel scales its chunk in place
                return z

        monkeypatch.setattr(blowup, "_path_rng", lambda s, i: Recording(stochastic._path_rng(s, i)))
        monkeypatch.setattr(blowup, "MC_STOP_PROB", -1.0)
        monkeypatch.setattr(blowup, "MC_CHUNK", chunk)
        nsteps, dt = 5003, 1e-3
        a, b = blowup._drift_scale(self.PARAMS.beta, self.PARAMS.kappa, 1.0)
        _, _, _, steps = blowup._advance_paths(4, 17, 18, nsteps, dt, a * dt, b, [math.inf], 3.0)
        [[normals]] = steps.tolist()
        assert normals == nsteps
        assert_array_equal(np.concatenate(drawn), brownian_increments(4, 17, nsteps))

    @pytest.mark.parametrize(
        "v0psi, horizon, saturating",
        [(0.5, 30.0, False), (1.0, 10.0, False), (0.5, 10.5, True)],
    )
    def test_block_width_invariance(self, monkeypatch, v0psi, horizon, saturating):
        # every row of a block is its own path: results do not depend on the
        # block width, on where a thread job's index range starts, or on
        # which rows have already stopped
        dt, seed, n = 1e-3, 5, 300
        thr = BlowupThreshold(v0psi, self.PARAMS)
        a, b = blowup._drift_scale(self.PARAMS.beta, self.PARAMS.kappa, 1.0)
        alpha = analytic_blowup_bound(1.0, self.PARAMS.kappa, 1.0, thr.x_star).alpha
        x_star = thr.x_star
        nsteps = _n_steps(horizon, dt)
        a_dt = a * dt
        if saturating:  # the exponent b W_t passes EXP_CLAMP on some paths
            a_dt, b, x_star, alpha = 0.0, 400.0, 1e308, 0.1
        args = (nsteps, dt, a_dt, b, [x_star], alpha)

        def advance(lo, hi):
            return [column.tolist() for column in blowup._advance_paths(seed, lo, hi, *args)]

        runs, default = {}, blowup.MC_BLOCK
        for width in (1, 7, default):
            monkeypatch.setattr(blowup, "MC_BLOCK", width)
            runs[width] = advance(0, n)
            split = [advance(lo, hi) for lo, hi in ((0, 13), (13, 150), (150, n))]
            assert [sum(parts, []) for parts in zip(*split)] == runs[width]
        assert runs[1] == runs[7] == runs[default]
        A, _, saturated, drawn = (np.array(column)[:, 0] for column in runs[1])
        assert len(set(drawn)) >= 4  # rows leave the block in many different chunks
        if saturating:
            clamped = drawn[saturated]
            assert 0 < len(clamped) < n and len(set(clamped)) >= 4
        else:
            assert 0 < np.sum(A >= x_star) < n

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sweep_equals_one_threshold_runs(self, caplog, workers):
        # every threshold reads the same paths: one pass over the sweep gives
        # each entry the estimate of a pass against it alone, for less work;
        # the sweep is unsorted and repeats a mass
        masses = [1.0, 0.25, 0.5, 0.25]
        levels = [BlowupThreshold(m, self.PARAMS).x_star for m in masses]
        kw = dict(n_paths=1000, horizon=10.0, dt=1e-3, seed=42, workers=workers)
        with caplog.at_level(logging.INFO, logger="spdelab.blowup"):
            sweep = mc_blowup_probability(self.PARAMS, 1.0, levels, **kw)
        [line] = [r.getMessage() for r in caplog.records if r.name == "spdelab.blowup"]
        assert f"normals drawn={sweep.normals_drawn} of {1000 * 10_000}" in line
        assert line.count("p_hat=") == line.count("allowance=") == len(levels)
        singles = [mc_blowup_probability(self.PARAMS, 1.0, [x], **kw) for x in levels]
        assert sweep.n_paths == 1000
        assert len(sweep.estimates) == len(levels)
        for est, single in zip(sweep.estimates, singles):
            [ref] = single.estimates
            assert est.p_hat == ref.p_hat
            assert est.truncation_allowance.hex() == ref.truncation_allowance.hex()
            assert (est.n_censored, est.n_saturated) == (ref.n_censored, ref.n_saturated)
            assert est == ref
        assert sweep.estimates[1] == sweep.estimates[3]
        assert len({est.p_hat for est in sweep.estimates}) == 3  # the masses differ in outcome
        # a path is drawn as far as its longest-running threshold needs, once
        drawn = [single.normals_drawn for single in singles]
        assert max(drawn) <= sweep.normals_drawn < sum(drawn)

    def test_sweep_kernel_equals_one_threshold_kernels_when_saturating(self):
        # zero drift and b = 400: the exponent passes EXP_CLAMP on some paths,
        # and the saturation flag each threshold records is the one at its stop
        nsteps, dt, b, alpha, n = 10_500, 1e-3, 400.0, 0.1, 300
        x_stars = [1e3, 1e308, 10.0, 1e3]
        args = (nsteps, dt, 0.0, b)
        sweep = blowup._advance_paths(5, 0, n, *args, x_stars, alpha)
        singles = [blowup._advance_paths(5, 0, n, *args, [x], alpha) for x in x_stars]
        for j in range(len(x_stars)):
            for column, single in zip(sweep, singles[j]):
                assert column[:, j].tolist() == single[:, 0].tolist()
        _, _, flags, steps = sweep
        assert 0 < flags.sum() < flags.size
        assert np.any(flags.min(axis=1) != flags.max(axis=1))
        # thresholds of one path resolve in different chunks
        assert np.any(steps.min(axis=1) != steps.max(axis=1))

    def test_every_cell_resolves_by_the_stop_rule(self):
        # a hit carries p = 0, a miss stopped before the horizon had at most
        # MC_STOP_PROB left of hitting, and every other cell ran to the horizon
        horizon, dt, n = 3.0, 1e-3, 300
        a, b = blowup._drift_scale(self.PARAMS.beta, self.PARAMS.kappa, 1.0)
        alpha = analytic_blowup_bound(1.0, self.PARAMS.kappa, 1.0, self.LEVEL).alpha
        nsteps = _n_steps(horizon, dt)
        x_stars = [BlowupThreshold(m, self.PARAMS).x_star for m in (0.25, 0.5, 1.0, 2.0)]
        A, p, _, steps = blowup._advance_paths(9, 0, n, nsteps, dt, a * dt, b, x_stars, alpha)
        hit = A >= np.array(x_stars)
        early = ~hit & (steps < nsteps)
        assert np.all(p[hit] == 0.0)
        assert np.all(p[early] <= blowup.MC_STOP_PROB)
        assert np.all(steps[~hit & ~early] == nsteps)
        assert np.all((0.0 <= p) & (p <= 1.0))
        # all three kinds of cell occur
        assert hit.any() and early.any() and np.any(p[~hit & ~early] > blowup.MC_STOP_PROB)

    @pytest.mark.parametrize("v0psi", [0.5, 1.0])
    @pytest.mark.parametrize("horizon", [0.5, 1.0, 3.0])
    def test_allowance_accounts_for_the_censored_paths(self, v0psi, horizon):
        # each path adds 1 if it hit, else its conditional probability of
        # hitting later, so p_hat + allowance estimates the t = inf law
        thr = BlowupThreshold(v0psi, self.PARAMS)
        est = mc_blowup_probability(
            self.PARAMS, 1.0, [thr.x_star], n_paths=4000, horizon=horizon, dt=1e-3, seed=2024
        ).estimates[0]
        reference = analytic_blowup_bound(1.0, 1.0, 1.0, thr.x_star).p_blowup_lower
        s = est.p_hat + est.truncation_allowance
        assert abs(s - reference) <= 4.0 * math.sqrt(s * (1.0 - s) / est.n_paths)
        assert 0.0 < est.truncation_allowance <= est.n_censored / est.n_paths

    def test_worker_count_invariance(self):
        kw = dict(n_paths=1000, horizon=10.0, dt=1e-3, seed=42)
        e1 = mc_blowup_probability(self.PARAMS, 1.0, [self.LEVEL], workers=1, **kw)
        e3 = mc_blowup_probability(self.PARAMS, 1.0, [self.LEVEL], workers=3, **kw)
        e7 = mc_blowup_probability(self.PARAMS, 1.0, [self.LEVEL], workers=7, **kw)
        assert e1 == e3 == e7
        assert e1.estimates[0].p_hat == 74 / 1000

    def test_enormous_mass_hits_immediately(self):
        thr = BlowupThreshold(1e6, self.PARAMS)
        [est] = mc_blowup_probability(
            self.PARAMS, 1.0, [thr.x_star], n_paths=1000, horizon=1.0, dt=1e-3, seed=5
        ).estimates
        assert est.p_hat == 1.0
        assert est.n_censored == 0
        assert est.truncation_allowance == 0.0

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            mc_blowup_probability(
                self.PARAMS, 1.0, [self.LEVEL], n_paths=100, horizon=1.0, dt=1e-3, seed=1
            )
        with pytest.raises(ConfigurationError):
            mc_blowup_probability(
                ModelParams(beta=1.0, kappa=0.0), 1.0, [self.LEVEL],
                n_paths=2000, horizon=1.0, dt=1e-3, seed=1,
            )
        with pytest.raises(ConfigurationError):
            mc_blowup_probability(
                self.PARAMS, 1.0, [self.LEVEL], n_paths=2000, horizon=1.0, dt=1e-3, seed=1, workers=0
            )
        with pytest.raises(ConfigurationError):  # no step fits in the horizon
            mc_blowup_probability(
                self.PARAMS, 1.0, [self.LEVEL], n_paths=2000, horizon=1e-3, dt=2e-3, seed=1
            )
        with pytest.raises(ConfigurationError, match="at least one threshold"):
            mc_blowup_probability(self.PARAMS, 1.0, [], n_paths=2000, horizon=1.0, dt=1e-3, seed=1)

    def test_estimate_validation(self):
        est = ProbabilityEstimate(
            p_hat=0.25, n_paths=400,
            truncation_allowance=0.0, n_censored=300, n_saturated=0,
        )
        assert est.stderr == math.sqrt(0.25 * 0.75 / 400)

    @pytest.mark.parametrize("cores", [2, 7])
    def test_process_pool_capped_at_core_count(self, monkeypatch, cores):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            """The real pool, recording the size it is asked for."""

            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                super().__init__(max_workers, mp_context=mp_context)

        kw = dict(n_paths=1000, horizon=5.0, dt=1e-3, seed=42)
        serial = mc_blowup_probability(self.PARAMS, 1.0, [self.LEVEL], workers=1, **kw)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        est = mc_blowup_probability(self.PARAMS, 1.0, [self.LEVEL], workers=10_000, **kw)
        assert sizes == [cores]
        assert est == serial
        assert (serial.workers, est.workers) == (1, cores)
        assert 0 < est.estimates[0].n_censored < est.n_paths
        assert multiprocessing.active_children() == []
        # a worker's exception reaches the caller, and the pool is gone
        monkeypatch.setattr(blowup, "_advance_paths", _advance_or_raise)
        with pytest.raises(ValueError, match="injected failure in paths"):
            mc_blowup_probability(self.PARAMS, 1.0, [self.LEVEL], workers=10_000, **kw)
        assert sizes == [cores, cores]
        assert multiprocessing.active_children() == []


def _advance_or_raise(seed, lo, hi, *args):
    """The Monte Carlo kernel, except that every range but the first raises;
    module-level, so the pool can send it to its workers by name."""
    if lo > 0:
        raise ValueError(f"injected failure in paths {lo}..{hi - 1}")
    return _ADVANCE_PATHS(seed, lo, hi, *args)


_ADVANCE_PATHS = blowup._advance_paths


@functools.cache
def fitted_interval_64():
    """The n = 64 interval with all 64 modes and c fitted on the shipped
    certify configs' kernel-ratio times (0.05 to 10, 30 of them)."""
    eig = solve_eigenpairs(build_grid(DomainSpec("interval", (math.pi,)), 64), 64)
    times = HeatKernelConfig(n_modes=120, t_start=0.05, t_stop=10.0, t_num=30).times()
    return eig, heat_kernel_ratio_report(eig, times).c


class TestGlobalSide:
    """The heat-kernel condition integrates e^{kappa beta W_r - (lam1 +
    kappa^2/2) beta r}, the blowup functional A itself, so the certification
    probability is P[A_inf < threshold] and the Monte Carlo kernel checks it
    at the raw level."""

    # configs/certify_analytic.json: its threshold and probability_certified
    THRESHOLD = 2.6578267061888856
    P_CERTIFIED = 0.9591620622518695

    def test_monte_carlo_matches_certification_probability(self, interval_512):
        _, _, _, eig = interval_512
        params = ModelParams(beta=1.0, kappa=1.0)
        bound = analytic_blowup_bound(eig.lam1, 1.0, 1.0, self.THRESHOLD)
        assert bound.p_global == self.P_CERTIFIED
        [est] = mc_blowup_probability(
            params, eig.lam1, [self.THRESHOLD], n_paths=4000, horizon=50.0, dt=1e-3, seed=3
        ).estimates
        p_global_hat = 1.0 - (est.p_hat + est.truncation_allowance)
        assert abs(p_global_hat - self.P_CERTIFIED) <= 4.0 * est.stderr

    @given(
        kappa=st.floats(0.2, 3.0),
        beta=st.floats(0.25, 3.0),
        Lambda=st.floats(1.0, 4.0),
        a=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=100)
    def test_the_two_bounds_cannot_overlap(self, kappa, beta, Lambda, a):
        # f = a psi with the smallest K that dominates it, K S_eta psi >= f.
        # P[blowup] >= 1 - Q(alpha, z(x*)) and P[global] >= Q(alpha, z(threshold))
        # can both hold only if threshold <= x*. x* reads the lower constant
        # C of params, here its default 1, so Lambda >= C = 1.
        eig, c = fitted_interval_64()
        eta = 1.0
        f = a * eig.psi
        K = a * math.exp(eig.lam1 * eta) / float(np.sum(eig.grid.weights * eig.modes[:, 0]))
        params = ModelParams(beta=beta, kappa=kappa, Lambda=Lambda)
        cert = certificate_heat_kernel(K, eta, params, eig, c, f=f)
        x_star = BlowupThreshold(weighted_inner(eig.grid, f, eig.psi), params).x_star
        assert cert.threshold <= x_star
        p_blowup = analytic_blowup_bound(eig.lam1, kappa, beta, x_star).p_blowup_lower
        assert p_blowup + cert.probability <= 1.0

