"""Certificate tests against frozen-path closed forms.

With W held at zero the Brownian factor drops out and every integral here has
a pencil-and-paper value: for f = a psi on (0, pi) with Lambda = beta = 1 and
kappa = 1 the certificate integral is a/3, the envelope is
(1 - (a/3)(1 - e^{-3t/2}))^{-1}, and the heat-kernel functional is
1/(lam1 + 1/2), 2/3 at lam1 = 1.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab import certificates
from spdelab.blowup import ModelParams, _drift_scale
from spdelab.certificates import (
    CertificateKind,
    CertificateReport,
    Verdict,
    admissible_initial,
    certificate_heat_kernel,
    certificate_sup_norm,
)
from spdelab.domain import (
    DomainSpec,
    EigenData,
    build_grid,
    heat_kernel_ratio_report,
    solve_eigenpairs,
)
from spdelab.errors import ConfigurationError, PreconditionFailure
from spdelab.integrator import simulate_paths
from spdelab.stochastic import BrownianPath, exp_functional, sample_brownian


def gamma_q(alpha, x):
    """Q(alpha, x) = 1 - x^alpha e^{-x} sum_k x^k / Gamma(alpha + k + 1), the
    series summed in plain floats, apart from the library's gamma law."""
    return 1.0 - sum(
        math.exp((alpha + k) * math.log(x) - x - math.lgamma(alpha + k + 1)) for k in range(80)
    )

INTEGRAL, SATURATION = CertificateKind.INTEGRAL, CertificateKind.SATURATION


@pytest.fixture(scope="module")
def cert_env():
    dom = DomainSpec(kind="interval", lengths=(math.pi,))
    grid = build_grid(dom, 512)
    eig = solve_eigenpairs(grid, 24)
    path = BrownianPath.frozen_zero(horizon=12.0, dt=2e-3)
    return grid, eig, path


PARAMS = ModelParams(beta=1.0, kappa=1.0, Cstar=1.0)


@pytest.fixture(scope="module")
def small_eig():
    """24 modes on a 64-node interval."""
    return solve_eigenpairs(build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), 64), 24)


def linear_path(top, horizon, dt):
    """A path whose W rises linearly from 0 to top over the horizon."""
    return BrownianPath(dt=dt, values=np.linspace(0.0, top, round(horizon / dt) + 1))


class TestIntegralCertificate:
    def test_frozen_path_third(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL]
        assert rep.kind is CertificateKind.INTEGRAL
        assert rep.verdict is Verdict.CERTIFIED
        assert rep.J == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert rep.tail < 1e-8
        assert rep.threshold == 1.0

    def test_envelope_starts_at_one_and_decays_to_closed_form(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL]
        assert rep.envelope[0] == 1.0
        closed = (1.0 - (1.0 - math.exp(-1.5 * 12.0)) / 3.0) ** -1
        assert rep.envelope[-1] == pytest.approx(closed, rel=1e-5)
        assert np.all(np.diff(rep.envelope) >= 0)

    def test_bound_starts_at_sup_of_data(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL]
        assert rep.bound_sup[0] == pytest.approx(float(eig.psi.max()), rel=1e-12)

    def test_scaled_data_not_certified(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, 4.0 * eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL]
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert rep.J == pytest.approx(4.0 / 3.0, abs=4e-6)
        assert rep.envelope is None
        assert "not below one" in rep.reason

    def test_integral_linear_in_data_for_unit_exponent(self, cert_env):
        # beta = 1 makes J exactly linear in f; same discretization both sides.
        _, eig, path = cert_env
        j1 = certificate_sup_norm(path, eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL].J
        j4 = certificate_sup_norm(path, 4.0 * eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL].J
        assert j4 == pytest.approx(4.0 * j1, rel=1e-12)

    def test_overflowing_path_rejected_with_reason(self, cert_env):
        _, eig, _ = cert_env
        ramp = np.linspace(0.0, 1600.0, 2001)
        wild = BrownianPath(dt=1e-3, values=ramp)
        rep = certificate_sup_norm(wild, eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL]
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert "overflow" in rep.reason

    def test_divergent_tail_majorant_rejected(self, cert_env):
        # beta=2, kappa=2: conditional growth kappa^2 beta^2 / 2 = 8 beats
        # decay (lam1 + 2) * 2 = 6, so no finite tail bound exists.
        _, eig, path = cert_env
        params = ModelParams(beta=2.0, kappa=2.0)
        rep = certificate_sup_norm(path, 0.01 * eig.psi, params, eig, [INTEGRAL])[INTEGRAL]
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert "tail majorant" in rep.reason

    def test_noiseless_model_redirected(self, cert_env):
        _, eig, path = cert_env
        with pytest.raises(ConfigurationError):
            certificate_sup_norm(
                path, eig.psi, ModelParams(beta=1.0, kappa=0.0), eig, [INTEGRAL]
            )

    def test_bad_initial_data(self, cert_env):
        _, eig, path = cert_env
        with pytest.raises(PreconditionFailure):
            certificate_sup_norm(path, -eig.psi, PARAMS, eig, [INTEGRAL])
        with pytest.raises(PreconditionFailure):
            certificate_sup_norm(path, np.zeros_like(eig.psi), PARAMS, eig, [INTEGRAL])
        with pytest.raises(ConfigurationError):
            certificate_sup_norm(path, eig.psi[:-1], PARAMS, eig, [INTEGRAL])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_data_rejected(self, cert_env, bad):
        # a NaN datum gives a NaN J, which no "J >= 1" test turns down
        _, eig, path = cert_env
        f = eig.psi.copy()
        f[7] = bad
        with pytest.raises(ConfigurationError, match=f"not finite at node 7: f={bad}"):
            certificate_sup_norm(path, f, PARAMS, eig, [INTEGRAL])


class TestSaturationCertificate:
    def test_unit_bump_certified(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, eig.psi, PARAMS, eig, [SATURATION])[SATURATION]
        assert rep.kind is CertificateKind.SATURATION
        assert rep.verdict is Verdict.CERTIFIED
        assert rep.J == pytest.approx(1.0 / 3.0, abs=1e-6)
        # threshold is Cstar (1 - J)^{1/beta} = 2/3, cleared by ||f||_inf = 1/2
        assert rep.threshold == pytest.approx(2.0 / 3.0, abs=2e-6)

    def test_enveloped_sup_norm_stays_in_band(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, eig.psi, PARAMS, eig, [SATURATION])[SATURATION]
        assert np.all(rep.bound_sup > 0)
        assert np.all(rep.bound_sup < PARAMS.Cstar)

    def test_doubled_bump_not_certified(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, 2.0 * eig.psi, PARAMS, eig, [SATURATION])[SATURATION]
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert rep.J == pytest.approx(2.0 / 3.0, abs=2e-6)
        assert "Cstar" in rep.reason

    def test_matches_integral_on_zero_path_unit_exponent(self, cert_env):
        # W = 0 kills both exponential factors, and beta = 1 makes the two
        # integrals literally the same sum.
        _, eig, path = cert_env
        a = certificate_sup_norm(path, eig.psi, PARAMS, eig, [INTEGRAL])[INTEGRAL]
        b = certificate_sup_norm(path, eig.psi, PARAMS, eig, [SATURATION])[SATURATION]
        assert a.J == b.J

    def test_small_data_certified_for_generous_range(self, cert_env):
        _, eig, path = cert_env
        rep = certificate_sup_norm(path, 1e-6 * eig.psi, PARAMS, eig, [SATURATION])[SATURATION]
        assert rep.verdict is Verdict.CERTIFIED

    def test_missing_range_bound_rejected(self, cert_env):
        _, eig, path = cert_env
        with pytest.raises(ConfigurationError):
            certificate_sup_norm(
                path, eig.psi, ModelParams(beta=1.0, kappa=1.0), eig, [SATURATION]
            )

    def test_underflowed_bound_does_not_refuse(self, small_eig):
        # on the zero path the sup-norm series of 0.2 psi underflows to 0
        # near t = 495; the enveloped norm is an upper bound and the solution
        # stays positive, so only reaching Cstar refuses. T = 600 used to be
        # refused with "leaves (0, Cstar) at t=495.29", at the J of T = 400
        params = ModelParams(beta=1.0, kappa=1.0, Cstar=2.0)
        reps = {}
        for T in (400.0, 600.0):
            path = BrownianPath.frozen_zero(T, 0.01)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                reps[T] = certificate_sup_norm(
                    path, 0.2 * small_eig.psi, params, small_eig, [INTEGRAL, SATURATION]
                )
        assert reps[600.0][SATURATION].bound_sup[-1] == 0.0
        for kind in (INTEGRAL, SATURATION):
            assert reps[400.0][kind].verdict is Verdict.CERTIFIED
            assert reps[600.0][kind].verdict is Verdict.CERTIFIED
            assert reps[600.0][kind].J == pytest.approx(reps[400.0][kind].J, rel=1e-15)

    def test_projected_sup_over_cstar_refuses(self, small_eig):
        # a box of height 0.01 clears Cstar (1 - J) = 0.0101, but its 24-mode
        # projection overshoots to 0.01097, past Cstar = 0.0102, at t = 0
        x = small_eig.grid.axes[0]
        f = np.where(np.abs(x - math.pi / 2) < 1.0, 0.01, 0.0)
        params = ModelParams(beta=1.0, kappa=1.0, Cstar=0.0102)
        path = BrownianPath.frozen_zero(5.0, 0.01)
        rep = certificate_sup_norm(path, f, params, small_eig, [SATURATION])[SATURATION]
        assert float(np.max(f)) <= rep.threshold
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert rep.reason == "enveloped sup norm reaches Cstar at t=0"


class TestHeatKernelCertificate:
    @staticmethod
    def _k_for_threshold(eig, target, eta=1.0, c=1.0):
        phi1 = eig.modes[:, 0]
        sup = float(phi1.max())
        mass = float(np.sum(eig.grid.weights * phi1))
        return math.exp(eig.lam1 * eta) / (target * (1.0 + c) * sup**2 * mass)

    def test_analytic_probability_reference(self, cert_env):
        _, eig, _ = cert_env
        K = self._k_for_threshold(eig, 2.0)
        rep = certificate_heat_kernel(K, 1.0, ModelParams(beta=1.0, kappa=1.0), eig, c=1.0)
        assert rep.threshold == pytest.approx(2.0, rel=1e-12)
        # alpha = 2 lam1 + 1 and z = 1 for kappa = beta = 1 at threshold 2
        assert rep.probability == pytest.approx(gamma_q(2.0 * eig.lam1 + 1.0, 1.0), rel=1e-12)
        assert rep.verdict is None
        assert math.isnan(rep.J)

    def test_vanishing_data_certifies_almost_surely(self, cert_env):
        _, eig, _ = cert_env
        rep = certificate_heat_kernel(1e-12, 1.0, ModelParams(beta=1.0, kappa=1.0), eig, c=1.0)
        assert rep.probability > 1.0 - 1e-12

    def test_underflowing_denominator_is_an_infinite_threshold(self, cert_env):
        # [K (1+c) (sup psi)^2 int psi]^beta is 0 in floats at K = 1e-300 and
        # beta = 2: the threshold is +inf, certain in both modes
        _, eig, path = cert_env
        params = ModelParams(beta=2.0, kappa=1.0)
        rep = certificate_heat_kernel(1e-300, 1.0, params, eig, c=1.0)
        assert (rep.threshold, rep.probability) == (math.inf, 1.0)
        rep = certificate_heat_kernel(1e-300, 1.0, params, eig, c=1.0, path=path)
        assert rep.threshold == math.inf and rep.verdict is Verdict.CERTIFIED

    def test_overflowing_denominator_is_a_zero_threshold(self, small_eig):
        # the power overflows at K = 1e200 and beta = 2, and Lambda beta > 0
        # makes the denominator infinite: no path certifies
        path = sample_brownian(5.0, 1e-3, 3, 0)
        params = ModelParams(beta=2.0, kappa=1.0)
        rep = certificate_heat_kernel(1e200, 1.0, params, small_eig, c=1.0, path=path)
        assert rep.threshold == 0.0 and rep.verdict is Verdict.NOT_CERTIFIED

    @pytest.mark.parametrize("K, beta", [(1e308, 1.0), (1e200, 2.0)])
    def test_zero_threshold_has_probability_0(self, small_eig, K, beta):
        # the denominator is inf, by a product at beta = 1 and by a power at
        # beta = 2; A_inf > 0 almost surely, so no path meets a threshold of 0
        rep = certificate_heat_kernel(K, 1.0, ModelParams(beta=beta, kappa=1.0), small_eig, c=1.0)
        assert (rep.threshold, rep.probability) == (0.0, 0.0)

    def test_positive_threshold_lost_to_a_tiny_kappa_is_refused(self, small_eig):
        # kappa^2 beta^2 threshold underflows to 0 at kappa = 1e-100 and
        # K = 1e150, though the threshold itself is positive
        threshold = certificate_heat_kernel(1e150, 1.0, PARAMS, small_eig, c=1.0).threshold
        assert 0.0 < threshold < 1e-140
        tiny_kappa = ModelParams(beta=1.0, kappa=1e-100)
        with pytest.raises(ConfigurationError, match=r"K=1e\+150: .*kappa=1e-100"):
            certificate_heat_kernel(1e150, 1.0, tiny_kappa, small_eig, c=1.0)

    def test_threshold_grows_past_the_exponent_clamp(self, small_eig):
        # e^{lam1 beta eta} overflows past eta ~ 710 / (lam1 beta), but the
        # quotient is formed in logs: the threshold grows by e^{lam1 beta d_eta}
        # from eta = 710 to 750 to 800 (it once read 1998.28 at all three),
        # and a quotient past the largest float is +inf
        params = ModelParams(beta=1.0, kappa=1.0)
        etas = (710.0, 750.0, 800.0, 2000.0)
        thresholds = [
            certificate_heat_kernel(1e300, eta, params, small_eig, c=4.0).threshold
            for eta in etas
        ]
        assert thresholds[0] == pytest.approx(3.83e7, rel=1e-3)
        assert thresholds[3] == math.inf
        logs = np.log(thresholds[:3])
        assert np.diff(logs) == pytest.approx(small_eig.lam1 * np.diff(etas[:3]), rel=1e-12)

    def test_probability_decreases_with_data_size(self, cert_env):
        _, eig, _ = cert_env
        params = ModelParams(beta=1.0, kappa=1.0)
        probs = [
            certificate_heat_kernel(K, 1.0, params, eig, c=1.0).probability
            for K in (0.01, 0.1, 1.0, 10.0)
        ]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_extreme_admissible_data_accepted(self, cert_env):
        _, eig, _ = cert_env
        K = 0.7
        f = admissible_initial(K, 1.5, eig)
        rep = certificate_heat_kernel(
            K, 1.5, ModelParams(beta=1.0, kappa=1.0), eig, c=1.0, f=f
        )
        assert rep.probability is not None  # domination check passed

    def test_excess_data_names_the_node(self, cert_env):
        _, eig, _ = cert_env
        K = 0.7
        f = admissible_initial(K, 1.5, eig) * (1.0 + 1e-6)
        with pytest.raises(PreconditionFailure, match="node"):
            certificate_heat_kernel(
                K, 1.5, ModelParams(beta=1.0, kappa=1.0), eig, c=1.0, f=f
            )

    def test_path_mode_verdicts(self, cert_env):
        _, eig, path = cert_env
        params = ModelParams(beta=1.0, kappa=1.0)
        # frozen path functional is 2/3: threshold 2 certifies, 0.5 does not
        K_easy = self._k_for_threshold(eig, 2.0)
        rep = certificate_heat_kernel(K_easy, 1.0, params, eig, c=1.0, path=path)
        assert rep.J == pytest.approx(1.0 / (eig.lam1 + 0.5), abs=1e-5)
        assert rep.verdict is Verdict.CERTIFIED
        K_hard = self._k_for_threshold(eig, 0.5)
        rep = certificate_heat_kernel(K_hard, 1.0, params, eig, c=1.0, path=path)
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert "not below" in rep.reason

    def test_path_mode_noiseless(self, cert_env):
        # kappa = 0 path mode is legitimate: the functional is 1/lam1 exactly.
        _, eig, path = cert_env
        params = ModelParams(beta=1.0, kappa=0.0)
        K = self._k_for_threshold(eig, 2.0)
        rep = certificate_heat_kernel(K, 1.0, params, eig, c=1.0, path=path)
        assert rep.J == pytest.approx(1.0 / eig.lam1, abs=1e-4)
        assert rep.verdict is Verdict.CERTIFIED

    def test_path_mode_overflow_and_divergent_tail_are_infinite(self, cert_env):
        _, eig, path = cert_env
        K = self._k_for_threshold(eig, 2.0)
        wild = BrownianPath(dt=1e-3, values=np.linspace(0.0, 1600.0, 2001))
        cases = [
            (wild, ModelParams(beta=1.0, kappa=1.0), "overflow"),
            (path, ModelParams(beta=2.0, kappa=2.0), "tail majorant"),
        ]
        for noise, params, why in cases:
            rep = certificate_heat_kernel(K, 1.0, params, eig, c=1.0, path=noise)
            assert rep.verdict is Verdict.NOT_CERTIFIED
            assert rep.J == math.inf and rep.tail == math.inf
            assert why in rep.reason

    def test_analytic_mode_noiseless_rejected(self, cert_env):
        _, eig, _ = cert_env
        with pytest.raises(ConfigurationError):
            certificate_heat_kernel(0.5, 1.0, ModelParams(beta=1.0, kappa=0.0), eig, c=1.0)

    def test_parameter_guards(self, cert_env):
        _, eig, _ = cert_env
        params = ModelParams(beta=1.0, kappa=1.0)
        with pytest.raises(ConfigurationError):
            certificate_heat_kernel(0.0, 1.0, params, eig, c=1.0)
        with pytest.raises(ConfigurationError):
            certificate_heat_kernel(0.5, 0.5, params, eig, c=1.0)
        with pytest.raises(ConfigurationError):
            certificate_heat_kernel(0.5, 1.0, params, eig, c=0.0)
        with pytest.raises(ConfigurationError):
            certificate_heat_kernel(0.5, 1.0, params, eig, c=math.inf)


class TestLinearEquation:
    """Lambda = C = 0: the reaction vanishes, so every certificate holds, with
    no guard for Lambda. The weight Lambda beta N^beta is 0, and its log -inf,
    and the heat-kernel denominator is 0; warnings are errors here."""

    PARAMS = ModelParams(beta=1.0, kappa=1.0, C=0.0, Lambda=0.0, Cstar=1.0)

    def test_sup_norm_integrals_are_zero_and_certified(self, small_eig):
        path = sample_brownian(5.0, 1e-3, 3, 0)
        reports = certificate_sup_norm(
            path, 0.5 * small_eig.psi, self.PARAMS, small_eig, [INTEGRAL, SATURATION]
        )
        for rep in reports.values():
            assert (rep.J, rep.tail, rep.verdict) == (0.0, 0.0, Verdict.CERTIFIED)
            assert np.all(rep.envelope == 1.0)

    def test_heat_kernel_threshold_is_infinite(self, small_eig):
        # at K = 1e200, beta = 2 the power [K (1+c) (sup psi)^2 int psi]^beta
        # overflows; its weight Lambda beta = 0 keeps the threshold +inf, where
        # it used to read 0: path mode was not certified and analytic mode
        # refused the gamma law at level 0
        path = sample_brownian(5.0, 1e-3, 3, 0)
        for beta, K in [(1.0, 1.0), (2.0, 1e3), (2.0, 1e200)]:
            params = ModelParams(beta=beta, kappa=1.0, C=0.0, Lambda=0.0, Cstar=1.0)
            rep = certificate_heat_kernel(K, 1.0, params, small_eig, c=1.0)
            assert (rep.threshold, rep.probability) == (math.inf, 1.0)
            rep = certificate_heat_kernel(K, 1.0, params, small_eig, c=1.0, path=path)
            assert rep.threshold == math.inf and rep.verdict is Verdict.CERTIFIED


class TestOneKernel:
    """Every kind integrates through exp_functional and shares one overflow
    rule: a clamped exponent of the integrand or of the tail makes J and the
    tail infinite."""

    OVERFLOW = "exponential factor overflows along the path"
    PARAMS = ModelParams(beta=1.0, kappa=1.0, Cstar=1e6)

    @pytest.mark.parametrize("kind, top", [(INTEGRAL, 1600.0), (SATURATION, -1600.0)])
    def test_sup_norm_kinds_overflow_to_inf(self, small_eig, kind, top):
        # b W_T = 1600 for the integral kind on W rising to 1600, and for the
        # saturation kind (b = -kappa) on its mirror image; the integral kind
        # used to report the clamped, finite J = 9.96e296
        path = linear_path(top, 2.0, 1e-3)
        f = 1e-6 * small_eig.psi
        rep = certificate_sup_norm(path, f, self.PARAMS, small_eig, [kind])[kind]
        assert rep.J == rep.tail == math.inf
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert rep.reason == self.OVERFLOW

    def test_overflowing_weight_is_infinite(self, small_eig):
        # (1e200 sup psi)^2 overflows a float: the tail weight used to raise
        # OverflowError, and certify exited 1 with a traceback
        params = ModelParams(beta=2.0, kappa=1.0)
        path = BrownianPath.frozen_zero(1.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reps = certificate_sup_norm(path, 1e200 * small_eig.psi, params, small_eig, [INTEGRAL])
        assert reps[INTEGRAL].J == reps[INTEGRAL].tail == math.inf
        assert reps[INTEGRAL].verdict is Verdict.NOT_CERTIFIED

    def test_heat_kernel_overflows_to_inf(self, small_eig):
        path = linear_path(1600.0, 2.0, 1e-3)
        rep = certificate_heat_kernel(1e-3, 1.0, self.PARAMS, small_eig, 1.0, path=path)
        assert rep.J == rep.tail == math.inf
        assert rep.reason == self.OVERFLOW

    def test_heat_kernel_clamps_its_whole_exponent(self, small_eig):
        # b W reaches 705, past EXP_CLAMP, but a t + b W peaks near 105: the
        # functional is finite and its threshold gives the verdict; it used
        # to be refused as an overflow
        path = linear_path(705.0, 400.0, 0.01)
        rep = certificate_heat_kernel(1e-3, 1.0, self.PARAMS, small_eig, 1.0, path=path)
        assert math.isfinite(rep.J) and math.isfinite(rep.tail)
        assert rep.verdict is Verdict.NOT_CERTIFIED
        assert rep.reason == f"functional {rep.J:.6g} is not below {rep.threshold:.6g}"

    def test_heat_kernel_functional_is_the_blowup_functional(self, small_eig):
        # J is A(T) at the (a, b) that lower_solution_series uses, plus the tail
        params = ModelParams(beta=1.3, kappa=0.8)
        path = sample_brownian(3.0, 1e-3, 7, 0)
        rep = certificate_heat_kernel(1.0, 1.0, params, small_eig, 1.0, path=path)
        a, b = _drift_scale(params.beta, params.kappa, small_eig.lam1)
        A, clamped = exp_functional(path, a, b)
        assert not clamped
        assert rep.J == float(A[-1]) + rep.tail
        tail = math.exp(a * path.times[-1] + b * path.values[-1]) / (-a - 0.5 * b * b)
        assert rep.tail == pytest.approx(tail, rel=1e-14)


@pytest.fixture(scope="module")
def sampled_env():
    """n = 128 with 48 modes, the kernel-ratio constant fitted as certify fits
    it (120 modes, 30 times on [0.05, 10]), and 40 paths of seed 11 on
    T = 10, dt = 2e-3."""
    grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), 128)
    times = np.logspace(math.log10(0.05), 1.0, 30)
    c = heat_kernel_ratio_report(solve_eigenpairs(grid, 120), times).c
    paths = [sample_brownian(10.0, 2e-3, 11, i) for i in range(40)]
    return solve_eigenpairs(grid, 48), c, paths


class TestHeatKernelImpliesIntegral:
    # (kappa, beta, K); 31, 8, 8 and 28 of the 40 paths are heat-kernel
    # certified, and J_int / (J_hk / threshold) was at most 0.226
    @pytest.mark.parametrize(
        "kappa, beta, K", [(1.0, 1.0, 0.5), (1.0, 1.0, 1.5), (0.7, 1.5, 1.0), (1.5, 0.8, 0.8)]
    )
    def test_pathwise(self, sampled_env, kappa, beta, K):
        # for f <= K S_eta psi and a true kernel-ratio constant, the
        # heat-kernel condition implies the integral one, path by path
        eig, c, paths = sampled_env
        params = ModelParams(beta=beta, kappa=kappa)
        f = admissible_initial(K, 1.0, eig)
        certified = 0
        for path in paths:
            hk = certificate_heat_kernel(K, 1.0, params, eig, c, path=path, f=f)
            if hk.verdict is not Verdict.CERTIFIED:
                continue
            certified += 1
            rep = certificate_sup_norm(path, f, params, eig, [INTEGRAL])[INTEGRAL]
            assert rep.verdict is Verdict.CERTIFIED
            assert rep.J < hk.J / hk.threshold
        assert certified > 0


class TestTailMajorant:
    @staticmethod
    def _report(kind, horizon, f, params, eig):
        path = BrownianPath.frozen_zero(horizon=horizon, dt=0.01)
        if kind is CertificateKind.HEAT_KERNEL:
            return certificate_heat_kernel(1.0, 1.0, params, eig, c=1.0, path=path)
        return certificate_sup_norm(path, f, params, eig, [kind])[kind]

    @given(
        kind=st.sampled_from(list(CertificateKind)),
        kappa=st.floats(0.2, 1.5),
        beta=st.floats(0.6, 1.8),
        steps=st.integers(50, 300),
        scale=st.floats(0.01, 0.5),
        mix=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    )
    def test_tail_covers_the_next_fifteen_time_units(
        self, cert_env, kind, kappa, beta, steps, scale, mix
    ):
        # J at T1 = computed part + tail must bound the computed part at
        # T1 + 15 on the zero path. Data in the retained basis: |phi_k| <=
        # k phi_1 on the sine grid, so sum k |c_k| <= c_1 keeps f >= 0. The
        # ranges keep every tail finite (decay beats noise growth).
        _, eig, _ = cert_env
        coeff = np.zeros(eig.m)
        coeff[0] = scale
        coeff[1:6] = 0.9 * scale / 5.0 * np.array(mix) / np.arange(2, 7)
        f = eig.modes @ coeff
        params = ModelParams(beta=beta, kappa=kappa, Cstar=1e6)
        T1 = steps * 0.01
        short = self._report(kind, T1, f, params, eig)
        long = self._report(kind, T1 + 15.0, f, params, eig)
        assert math.isfinite(short.tail) and math.isfinite(long.tail)
        assert short.J >= long.J - long.tail

    def test_certificates_close_at_the_last_grid_time(self):
        # a horizon that dt does not divide ends the grid before it; the
        # trapezoid stops at the last grid time, so the tail must start
        # there: at horizon 1.0099 J once fell from 0.056451 to 0.056273
        eig = solve_eigenpairs(build_grid(DomainSpec("interval", (math.pi,)), 64), 48)
        params = ModelParams(beta=1.0, kappa=1.0, Cstar=2.0)
        reports = []
        for horizon in (1.0, 1.0099):
            path = sample_brownian(horizon, 0.01, 3, 0)
            sup = certificate_sup_norm(path, 0.2 * eig.psi, params, eig, [INTEGRAL, SATURATION])
            hk = certificate_heat_kernel(0.5, 1.0, params, eig, c=4.0, path=path)
            reports.append([sup[INTEGRAL], sup[SATURATION], hk])
        for at_grid, past_grid in zip(*reports):
            assert at_grid.verdict is Verdict.CERTIFIED
            assert (past_grid.J, past_grid.tail, past_grid.verdict) == (
                at_grid.J, at_grid.tail, at_grid.verdict
            )


class TestOnePass:
    def test_one_series_serves_both_kinds(self, cert_env, monkeypatch):
        # a noisy path makes the two kinds differ; each report of the
        # both-kinds call must be bitwise the one its kind gets alone
        _, eig, _ = cert_env
        path = sample_brownian(6.0, 2e-3, 5, 0)
        f = 0.2 * eig.psi
        alone = {
            kind: certificate_sup_norm(path, f, PARAMS, eig, [kind])[kind]
            for kind in (INTEGRAL, SATURATION)
        }
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            certificates, "sup_norm_decay", counted("series", certificates.sup_norm_decay)
        )
        monkeypatch.setattr(EigenData, "project", counted("project", EigenData.project))
        both = certificate_sup_norm(path, f, PARAMS, eig, [INTEGRAL, SATURATION])
        # one projection for the defect and the tail envelope, one inside the series
        assert calls == {"series": 1, "project": 2}
        assert list(both) == [INTEGRAL, SATURATION]
        for kind, rep in alone.items():
            assert rep.verdict is Verdict.CERTIFIED
            for name in ("J", "tail", "threshold", "reason"):
                assert getattr(both[kind], name) == getattr(rep, name)
            for name in ("envelope", "bound_sup"):
                assert np.array_equal(getattr(both[kind], name), getattr(rep, name))
        assert both[INTEGRAL].J != both[SATURATION].J

    def test_kinds_must_be_sup_norm_kinds(self, cert_env):
        _, eig, path = cert_env
        for kinds in ([], [CertificateKind.HEAT_KERNEL], ["integral", "heat_kernel"]):
            with pytest.raises(ConfigurationError, match="integral and saturation"):
                certificate_sup_norm(path, eig.psi, PARAMS, eig, kinds)
        # the str values name the kinds as well as the members do
        rep = certificate_sup_norm(path, eig.psi, PARAMS, eig, ["saturation"])[SATURATION]
        assert rep.kind is SATURATION

    def test_negative_entry_refused_like_the_integrator(self):
        # one node at -1e-13 on a nonnegative datum: both entry points share
        # one validator, which refuses any negative entry and names its node
        dom = DomainSpec(kind="interval", lengths=(math.pi,))
        grid = build_grid(dom, 32)
        eig = solve_eigenpairs(grid, 24)
        f = 0.3 * eig.psi
        f[5] = -1e-13
        path = BrownianPath.frozen_zero(horizon=1.0, dt=1e-2)
        with pytest.raises(PreconditionFailure, match="node 5") as cert_err:
            certificate_sup_norm(path, f, PARAMS, eig, [INTEGRAL])
        with pytest.raises(PreconditionFailure) as sim_err:
            simulate_paths(f, [path], PARAMS, eig, 1e8)
        assert str(sim_err.value) == str(cert_err.value)


class TestReportValidation:
    def test_envelope_must_start_at_one(self):
        with pytest.raises(ConfigurationError):
            CertificateReport(
                kind=CertificateKind.INTEGRAL, J=0.5, verdict=Verdict.CERTIFIED,
                threshold=1.0, envelope=np.array([1.5, 2.0]),
            )

    def test_probability_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            CertificateReport(
                kind=CertificateKind.HEAT_KERNEL, J=math.nan, verdict=None,
                threshold=1.0, probability=1.5,
            )
