"""Certificate tests against frozen-path closed forms.

With W held at zero the Brownian factor drops out and every integral here has
a pencil-and-paper value: for f = a psi on (0, pi) with Lambda = beta = 1 and
kappa = 1 the certificate integral is a/3, the envelope is
(1 - (a/3)(1 - e^{-3t/2}))^{-1}, and the heat-kernel functional is
1/(lam1 + 1/2), 2/3 at lam1 = 1.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab import certificates
from spdelab.blowup import ModelParams, TabulatedNonlinearity
from spdelab.certificates import (
    CertificateKind,
    CertificateReport,
    Verdict,
    admissible_initial,
    certificate_heat_kernel,
    certificate_sup_norm,
)
from spdelab.domain import DomainSpec, EigenData, build_grid, solve_eigenpairs
from spdelab.errors import ConfigurationError, PreconditionFailure
from spdelab.integrator import SchemeConfig, simulate_paths
from spdelab.stochastic import BrownianPath, sample_brownian


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
        wild = BrownianPath(dt=1e-3, horizon=2.0, values=ramp)
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

    def test_tabulated_nonlinearity_above_cap_rejected(self, cert_env):
        _, eig, path = cert_env
        hot = TabulatedNonlinearity(z=np.array([0.0, 1.0, 2.0]), g=np.array([0.0, 2.0, 8.0]))
        params = ModelParams(beta=1.0, kappa=1.0, Lambda=1.0, G=hot)
        with pytest.raises(PreconditionFailure):
            certificate_sup_norm(path, eig.psi, params, eig, [INTEGRAL])

    def test_tabulated_nonlinearity_within_cap_accepted(self, cert_env):
        _, eig, path = cert_env
        mild = TabulatedNonlinearity(z=np.array([0.0, 1.0, 2.0]), g=np.array([0.0, 0.5, 2.0]))
        params = ModelParams(beta=1.0, kappa=1.0, Lambda=1.0, G=mild)
        rep = certificate_sup_norm(path, eig.psi, params, eig, [INTEGRAL])[INTEGRAL]
        assert rep.verdict is Verdict.CERTIFIED


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

    def test_tabulated_cap_only_checked_inside_range(self, cert_env):
        # Exceeds Lambda z^2 only at z = 2 >= Cstar = 1: fine for saturation,
        # fatal for the unrestricted integral certificate.
        _, eig, path = cert_env
        edge = TabulatedNonlinearity(z=np.array([0.0, 1.0, 2.0]), g=np.array([0.0, 1.0, 8.0]))
        params = ModelParams(beta=1.0, kappa=1.0, Lambda=1.0, Cstar=1.0, G=edge)
        rep = certificate_sup_norm(path, 0.1 * eig.psi, params, eig, [SATURATION])[SATURATION]
        assert rep.verdict is Verdict.CERTIFIED
        for kinds in ([INTEGRAL], [INTEGRAL, SATURATION]):
            with pytest.raises(PreconditionFailure):
                certificate_sup_norm(path, 0.1 * eig.psi, params, eig, kinds)


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
        wild = BrownianPath(dt=1e-3, horizon=2.0, values=np.linspace(0.0, 1600.0, 2001))
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
            simulate_paths(f, [path], PARAMS, eig, SchemeConfig())
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
