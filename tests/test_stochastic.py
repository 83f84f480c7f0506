import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spdelab.errors import ConfigurationError
from spdelab.stochastic import (
    BrownianPath,
    blowup_density,
    brownian_increments,
    exp_functional,
    gamma_shape,
    gamma_tail,
    sample_brownian,
)


class TestDerivedParams:
    # the gamma shape alpha, the one parameter derived from (beta, kappa, lam1)
    def test_reference_point(self):
        assert gamma_shape(beta=1.0, kappa=1.0, lam1=1.0) == pytest.approx(3.0)

    def test_beta_two(self):
        assert gamma_shape(2.0, 1.0, 1.0) == pytest.approx(1.5)

    @given(
        beta=st.floats(0.1, 5.0),
        kappa=st.floats(0.1, 4.0),
        lam1=st.floats(0.1, 10.0),
    )
    def test_algebraic_identity(self, beta, kappa, lam1):
        alpha = gamma_shape(beta, kappa, lam1)
        assert alpha * kappa**2 * beta == pytest.approx(2 * lam1 + kappa**2, rel=1e-12)

    def test_zero_noise_redirects(self):
        with pytest.raises(ConfigurationError, match="dichotomy"):
            gamma_shape(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("kappa, beta", [(1e-160, 1.0), (5e-324, 1.0), (1e-200, 1e-200)])
    def test_overflowing_shape_refused(self, kappa, beta):
        # 2 lam1 / (kappa^2 beta) past the float range: alpha would be inf, or
        # kappa beta / 2 itself underflows to 0
        with pytest.raises(ConfigurationError, match=f"overflows at kappa={kappa!r}"):
            gamma_shape(beta, kappa, 1.0)


class TestBrownianPath:
    def test_bitwise_reproducible(self):
        a = sample_brownian(2.0, 0.01, seed=7, path_index=15)
        b = sample_brownian(2.0, 0.01, seed=7, path_index=15)
        assert_array_equal(a.values, b.values)
        c = sample_brownian(2.0, 0.01, seed=7, path_index=16)
        assert not np.array_equal(a.values, c.values)

    def test_matches_increment_stream(self):
        # the path is exactly the cumulative sum of the published draw stream
        p = sample_brownian(1.0, 0.125, seed=3, path_index=9)
        z = brownian_increments(3, 9, 8)
        assert_allclose(p.values[1:], np.cumsum(math.sqrt(0.125) * z), rtol=0, atol=0)

    def test_grid_shape(self):
        p = sample_brownian(1.0, 0.001, seed=0, path_index=0)
        assert p.nsteps == 1000
        assert p.values[0] == 0.0
        assert len(p.times) == 1001
        assert p.times[-1] == pytest.approx(1.0)

    def test_times_built_once_and_read_only(self):
        p = sample_brownian(1.0, 0.01, seed=0, path_index=0)
        assert p.times is p.times
        with pytest.raises(ValueError):
            p.times[0] = 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sample_brownian(1.0, 2.0, 0, 0)
        with pytest.raises(ConfigurationError):
            BrownianPath(dt=0.1, horizon=1.0, values=np.ones(11))
        with pytest.raises(ConfigurationError):
            BrownianPath(dt=0.1, horizon=1.0, values=np.zeros(5))

    def test_frozen_zero(self):
        p = BrownianPath.frozen_zero(3.0, 0.5)
        assert np.all(p.values == 0)

    def test_endpoint_law(self):
        n = 100_000
        t_final = 1.0
        w = np.array(
            [sample_brownian(t_final, 0.5, seed=2024, path_index=i).values[-1] for i in range(n)]
        )
        assert abs(w.mean()) < 4.0 * math.sqrt(t_final / n)
        assert w.var() == pytest.approx(t_final, rel=0.05)


class TestExpFunctional:
    def test_constant_integrand(self):
        p = BrownianPath.frozen_zero(2.0, 0.01)
        A = exp_functional(p, 0.0, 0.0)
        assert_allclose(A, p.times, rtol=0, atol=1e-12)

    def test_closed_form_decay(self):
        p = BrownianPath.frozen_zero(5.0, 0.001)
        A = exp_functional(p, -1.0, 0.0)
        assert np.max(np.abs(A - (1.0 - np.exp(-p.times)))) < 1e-6

    def test_infinite_horizon_limit(self):
        # b=0, a=-(lam1 + kappa^2/2) beta: A(inf) = 1/((lam1 + kappa^2/2) beta)
        lam1, kappa, beta = 1.0, 1.0, 1.0
        a = -(lam1 + 0.5 * kappa**2) * beta
        p = BrownianPath.frozen_zero(40.0, 0.001)
        A = exp_functional(p, a, 0.0)
        assert A[-1] == pytest.approx(1.0 / ((lam1 + 0.5 * kappa**2) * beta), rel=1e-6)

    def test_saturation_flag(self):
        # a = 10 passes EXP_CLAMP at t = 70: the clamp keeps A finite
        p = BrownianPath.frozen_zero(100.0, 0.1)
        A = exp_functional(p, 10.0, 0.0)
        assert np.all(np.isfinite(A))

    @settings(max_examples=40)
    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(0.0, 2.0),
        idx=st.integers(0, 1000),
    )
    def test_nondecreasing(self, a, b, idx):
        p = sample_brownian(1.0, 0.01, seed=5, path_index=idx)
        A = exp_functional(p, a, b)
        assert A[0] == 0.0
        assert np.all(np.diff(A) >= 0)
        assert np.all(A[1:] > 0)

    def test_monotone_in_scale_on_nonnegative_path(self):
        base = sample_brownian(1.0, 0.01, seed=11, path_index=4)
        p = BrownianPath(dt=base.dt, horizon=base.horizon, values=np.abs(base.values))
        low = exp_functional(p, -0.5, 0.5)
        high = exp_functional(p, -0.5, 1.5)
        assert np.all(high >= low)


class TestGammaTail:
    def test_exponential_tail(self):
        for z in (0.1, 1.0, 5.0, 20.0):
            assert gamma_tail(1.0, z) == pytest.approx(math.exp(-z), rel=1e-13)

    def test_integer_shape_series(self):
        assert gamma_tail(3.0, 1.0) == pytest.approx(math.exp(-1) * 2.5, rel=1e-13)
        assert gamma_tail(3.0, 1.0) == pytest.approx(0.9196986029286058, rel=1e-13)

    def test_at_zero(self):
        assert gamma_tail(2.5, 0.0) == 1.0

    def test_large_shape(self):
        # alpha ~ 5000 at z ~ alpha (blowup at kappa = 0.02, beta = 1, v0psi = 1),
        # where a 500-term series does not converge. Compared with the
        # Wilson-Hilferty normal approximation: (Z/alpha)^(1/3) is close to
        # N(1 - 1/(9 alpha), 1/(9 alpha)); the plain N(alpha, alpha) misses
        # the skew by 2e-3 here
        alpha, z = 5000.026742019763, 5000.0
        q = gamma_tail(alpha, z)
        s = math.sqrt(1.0 / (9.0 * alpha))
        normal = 0.5 * math.erfc(((z / alpha) ** (1.0 / 3.0) - 1.0 + s * s) / (s * math.sqrt(2.0)))
        assert math.isfinite(q)
        assert abs(q - normal) <= 1e-3

    @given(alpha=st.floats(0.3, 12.0), z=st.floats(0.0, 50.0))
    def test_range(self, alpha, z):
        q = gamma_tail(alpha, z)
        assert 0.0 <= q <= 1.0

    @given(alpha=st.floats(0.3, 12.0), z=st.floats(0.0, 30.0), dz=st.floats(0.01, 5.0))
    def test_nonincreasing_in_z(self, alpha, z, dz):
        assert gamma_tail(alpha, z + dz) <= gamma_tail(alpha, z) + 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_tail(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_tail(1.0, -0.5)


class TestBlowupDensity:
    def test_coincidence_point(self):
        val = blowup_density(2.0, 1.0, 1.0, 1.0)
        assert val == pytest.approx(math.exp(-1) / 4.0, rel=1e-13)

    def test_second_point(self):
        # (1/2)^3 e^{-1/2} / (4 * Gamma(3))
        assert blowup_density(4.0, 1.0, 1.0, 1.0) == pytest.approx(
            0.009477041558009897, rel=1e-12
        )

    def test_normalization_by_quadrature(self):
        for lam1, kappa, beta in ((1.0, 1.0, 1.0), (0.7, 1.3, 0.8), (2.0, 0.6, 2.5)):
            alpha = (2 * lam1 + kappa**2) / (kappa**2 * beta)
            peak = 2.0 / (kappa**2 * beta**2 * (alpha + 1.0))
            cut = 50.0 * peak

            f = lambda y: blowup_density(y, lam1, kappa, beta)
            head, _ = scipy.integrate.quad(f, 0.0, cut, points=[peak], limit=200)
            tail, _ = scipy.integrate.quad(f, cut, np.inf, limit=200)
            assert head + tail == pytest.approx(1.0, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            blowup_density(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            blowup_density(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            blowup_density(1.0, 1.0, 0.0, 1.0)

    def test_vectorized(self):
        y = np.array([0.5, 2.0, 4.0])
        out = blowup_density(y, 1.0, 1.0, 1.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(math.exp(-1) / 4.0, rel=1e-13)
