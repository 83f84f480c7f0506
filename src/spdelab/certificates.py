"""Global-existence certificates along a noise path.

Three checks, each one path integral int_0^inf e^{a r + b W_r} w(r) dr that
stochastic.exp_functional evaluates with log w as its log weight:

* integral certificate: J = Lambda beta int_0^inf e^{kappa beta W_r}
  ||e^{-kappa^2 r/2} S_r f||_inf^beta dr < 1 grants a global solution with
  the envelope B(t) = (1 - J(t))^{-1/beta};
* saturation certificate: same integral with factor e^{-kappa W_r}, for
  nonlinearities only controlled on (0, C*); certifies when
  ||f||_inf <= C* (1 - J*)^{1/beta} and the enveloped sup norm stays below C*;
* heat-kernel certificate: for f dominated by K S_eta psi, the blowup
  functional int e^{kappa beta W_r - (lam1 + kappa^2/2) beta r} dr of
  blowup.lower_solution_series against a closed-form threshold built from the
  kernel-ratio constant c; an analytic mode returns the certification
  probability from the gamma law of blowup.analytic_blowup_bound at it.

The [0, T] part of each integral is trapezoidal on the path grid, with T
its last grid time floor(horizon/dt) dt; the (T, inf)
remainder is replaced by a closed-form majorant that freezes W at
its endpoint and grows the remaining Brownian factor at its conditional
mean rate. A certificate is granted only if computed part plus majorant
clears the threshold; a clamped exponent makes both infinite.

The first two share the semigroup sup-norm series of f, so one call of
certificate_sup_norm evaluates it once for both; certificate_heat_kernel
needs no series.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blowup import ModelParams, _drift_scale, analytic_blowup_bound
from .domain import EigenData, _validate_initial, sup_norm_decay
from .errors import ConfigurationError, PreconditionFailure
from .stochastic import BrownianPath, _clamped_exp, exp_functional

logger = logging.getLogger(__name__)


class CertificateKind(str, Enum):
    INTEGRAL = "integral"
    SATURATION = "saturation"
    HEAT_KERNEL = "heat_kernel"


class Verdict(str, Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Evaluated certificate: the integral, the verdict, and envelope samples.

    J is the certificate integral (computed part plus tail majorant) for the
    integral and saturation kinds, and the path functional for the heat-kernel
    kind in path mode. threshold is what J was compared against. envelope and
    bound_sup sample B(t) (or B*(t)) and B(t) * ||e^{-kappa^2 t/2} S_t f||_inf
    on the path grid; they are present only on certified reports. probability
    is set only by the heat-kernel certificate in analytic mode, where no
    per-path verdict exists.
    """

    kind: CertificateKind
    J: float
    verdict: Verdict | None
    threshold: float
    tail: float = 0.0
    envelope: np.ndarray | None = None
    bound_sup: np.ndarray | None = None
    probability: float | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.envelope is not None:
            if abs(self.envelope[0] - 1.0) > 1e-12:
                raise ConfigurationError("certificate envelope must start at B(0) = 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(f"probability {self.probability} outside [0, 1]")


def _coefficient_envelope(coeff: np.ndarray, T: float, kappa: float, eigen: EigenData) -> float:
    """Bound on ||e^{-kappa^2 t/2} S_t f||_inf at t = T, from the coefficients
    of f, that keeps majorizing after multiplication by
    e^{-(lam_1 + kappa^2/2)(t - T)} for t > T."""
    return math.exp(-0.5 * kappa**2 * T) * float(
        np.sum(np.abs(coeff) * np.exp(-eigen.eigenvalues * T) * eigen.mode_sup)
    )


def _path_integral(
    path: BrownianPath, a: float, b: float, log_weight, weight_T: float, rate: float
) -> tuple[np.ndarray | None, float, float, str | None]:
    """J(t) = int_0^t e^{a r + b W_r + log_weight(r)} dr on the path grid (None
    if infinite), J(T) plus the (T, inf) majorant, the majorant, and why the
    integral cannot certify (None if nothing stops it). The majorant freezes
    W at W_T, grows its factor at the conditional mean rate b^2/2 and decays
    the rest at rate: e^{a T + b W_T} weight_T / (rate - b^2/2). It is
    infinite if that rate is not positive or an exponent is clamped."""
    c_env = rate - 0.5 * b**2
    if c_env <= 0:
        return None, math.inf, math.inf, "tail majorant diverges (noise growth beats decay)"
    J_series, clamped = exp_functional(path, a, b, log_weight)
    factor_T = np.array([a * float(path.times[-1]) + b * float(path.values[-1])])
    if _clamped_exp(factor_T) or clamped:
        return None, math.inf, math.inf, "exponential factor overflows along the path"
    tail = float(factor_T[0]) * weight_T / c_env
    return J_series, float(J_series[-1]) + tail, tail, None


def _report(
    kind: CertificateKind, J: float, threshold: float, tail: float, reason: str | None, **fields
) -> CertificateReport:
    """A path-mode report, certified exactly when there is no reason against."""
    verdict = Verdict.CERTIFIED if reason is None else Verdict.NOT_CERTIFIED
    return CertificateReport(
        kind=kind, J=J, verdict=verdict, threshold=threshold, tail=tail, reason=reason, **fields
    )


def _check_sup_norm_kind(
    kind: CertificateKind | str, f: np.ndarray, params: ModelParams, eigen: EigenData
) -> np.ndarray:
    """Raise if the integral or saturation certificate cannot be evaluated
    for f; return f validated.

    The checks run in a fixed order: C* (saturation only), kappa > 0, then
    the initial data. None evaluates the series. The reaction is Lambda
    z^(1+beta) itself, so the upper bound the certificates assume holds for
    every model.
    """
    saturation = kind == CertificateKind.SATURATION
    if saturation and params.Cstar is None:
        raise ConfigurationError("saturation certificate needs Cstar in the model parameters")
    if params.kappa <= 0:
        raise ConfigurationError("certificates need kappa > 0; the noiseless dichotomy is separate")
    return _validate_initial(f, eigen.grid)


def certificate_sup_norm(
    path: BrownianPath,
    f: np.ndarray,
    params: ModelParams,
    eigen: EigenData,
    kinds: list[CertificateKind],
) -> dict[CertificateKind, CertificateReport]:
    """The integral and saturation certificates of f, keyed by kind, with
    lam1 read from eigen.

    Both integrate the weight Lambda beta ||e^{-kappa^2 r/2} S_r f||_inf^beta
    against e^{b W_r}, so f is validated and projected and its sup-norm
    series evaluated once for every kind asked for.

    * INTEGRAL (b = kappa beta): certifies J < 1, with the envelope
      B(t) = (1 - J(t))^(-1/beta).
    * SATURATION (b = -kappa): the variant model driven by G(v) itself, where
      the power-law domination is only assumed on (0, C*). Certifies when
      ||f||_inf <= C* (1 - J*)^(1/beta) and the enveloped sup norm
      B*(t) ||e^{-kappa^2 t/2} S_t f||_inf, an upper bound, stays below C*.

    J adds a closed-form majorant for the horizon tail to the trapezoidal
    [0, T] part, so a certified J is an overestimate of the true integral up
    to the conditional-mean treatment of the unseen Brownian factor.
    """
    kinds = list(kinds)
    if not kinds or not set(kinds) <= {CertificateKind.INTEGRAL, CertificateKind.SATURATION}:
        raise ConfigurationError(f"sup-norm certificates are integral and saturation, got {kinds}")
    kinds = [CertificateKind(k) for k in kinds]
    for kind in kinds:
        f = _check_sup_norm_kind(kind, f, params, eigen)
    coeff = eigen.project(f)
    scale = float(np.max(np.abs(f)))
    defect = float(np.max(np.abs(f - eigen.modes @ coeff)))
    if defect > 1e-8 * scale:
        logger.warning(
            "initial data has %.3g relative mass outside the retained basis; "
            "the certificate applies to the projected data",
            defect / scale,
        )
    norms = sup_norm_decay(f, path.times, params.kappa, eigen)
    N_T = _coefficient_envelope(coeff, float(path.times[-1]), params.kappa, eigen)
    # the weight Lambda beta N^beta, in logs on the grid: an underflowed N has
    # weight 0, and an overflowed one makes J infinite
    with np.errstate(divide="ignore", over="ignore"):
        log_weight = np.log(params.Lambda * params.beta) + params.beta * np.log(norms)
        weight_T = float(params.Lambda * params.beta * np.float64(N_T) ** params.beta)
    # lam1 <= every retained eigenvalue keeps the tail a majorant
    a, b_integral = _drift_scale(params.beta, params.kappa, eigen.lam1)
    reports = {}
    for kind in kinds:
        saturation = kind is CertificateKind.SATURATION
        b = -params.kappa if saturation else b_integral
        J_series, J, tail, reason = _path_integral(path, 0.0, b, log_weight, weight_T, -a)
        if reason is None and not J < 1.0:
            reason = f"integral {J:.6g} is not below one"
        if reason is not None:
            reports[kind] = _report(kind, J, 0.0 if saturation else 1.0, tail, reason)
            continue
        envelope = (1.0 - J_series) ** (-1.0 / params.beta)
        bound_sup = envelope * norms
        threshold = 1.0
        if saturation:
            threshold = params.Cstar * (1.0 - J) ** (1.0 / params.beta)
            sup_f = float(np.max(f))
            inside = bound_sup < params.Cstar
            if sup_f > threshold:
                reason = f"||f||_inf = {sup_f:.6g} exceeds Cstar (1 - J)^(1/beta) = {threshold:.6g}"
            elif not bool(inside.all()):
                t_out = path.times[int(np.argmin(inside))]
                reason = f"enveloped sup norm reaches Cstar at t={t_out:.6g}"
        fields = {}
        if reason is None:
            fields = {"envelope": envelope, "bound_sup": bound_sup}
        reports[kind] = _report(kind, J, threshold, tail, reason, **fields)
    return reports


def admissible_initial(K: float, eta: float, eigen: EigenData) -> np.ndarray:
    """The extreme admissible datum K S_eta psi, exact in the retained basis."""
    phi1 = eigen.modes[:, 0]
    return K * math.exp(-eigen.lam1 * eta) * phi1


def certificate_heat_kernel(
    K: float,
    eta: float,
    params: ModelParams,
    eigen: EigenData,
    c: float,
    path: BrownianPath | None = None,
    f: np.ndarray | None = None,
) -> CertificateReport:
    """Certificate for initial data dominated by K S_eta psi.

    With psi the L2-normalized principal mode of eigen, lam1 its eigenvalue
    and c the kernel-ratio constant, the sufficient condition is

        int_0^inf e^{kappa beta W_r - (lam1 + kappa^2/2) beta r} dr
            < e^{lam1 beta eta} / (Lambda beta [K (1+c) (sup psi)^2 int psi]^beta).

    In path mode (path given) the left side is the blowup functional of
    lower_solution_series plus the endpoint-frozen tail majorant, compared
    against the right side; it is infinite when an exponent is clamped or the
    majorant diverges. In analytic mode (path None) the left side is the blowup
    functional A_inf, and the report carries the probability that the
    condition holds, analytic_blowup_bound(lam1, kappa, beta, threshold).p_global.
    A right side whose denominator underflows to 0 is +inf: every path
    certifies, and the probability is 1.

    When f is given it is checked against the domination f <= K S_eta psi
    node by node; the first violating node is named in the failure.
    """
    if K <= 0 or not math.isfinite(K):
        raise ConfigurationError(f"K must be positive and finite, got {K}")
    if eta < 1.0:
        raise ConfigurationError(f"eta must be >= 1, got {eta}")
    if not (math.isfinite(c) and c > 0):
        raise ConfigurationError(f"kernel-ratio constant must be positive and finite, got {c}")
    if f is not None:
        f = _validate_initial(f, eigen.grid)
        cap = admissible_initial(K, eta, eigen)
        bad = f > cap * (1.0 + 1e-12) + 1e-300
        if np.any(bad):
            node = int(np.argmax(bad))
            coords = tuple(float(axis[node]) for axis in eigen.grid.nodes())
            raise PreconditionFailure(
                f"initial data exceeds K S_eta psi at node {node} (x={coords}): "
                f"{f[node]} > {cap[node]}"
            )
    phi1 = eigen.modes[:, 0]
    sup_phi1 = float(np.max(phi1))
    mass_phi1 = float(np.sum(eigen.grid.weights * phi1))
    beta = params.beta
    try:
        denom = params.Lambda * beta * (K * (1.0 + c) * sup_phi1**2 * mass_phi1) ** beta
    except OverflowError:  # float ** raises where * gives inf; both leave threshold 0
        denom = math.inf
    # e^{lam1 beta eta} / denom in logs, so that no exponent is clamped: 0 past an
    # overflowing denominator, +inf past one that underflows or the largest float
    try:
        threshold = math.exp(eigen.lam1 * beta * eta - math.log(denom))
    except (ValueError, OverflowError):  # the log of 0, or the exp of the quotient
        threshold = math.inf

    if path is None:
        # the left side is A_inf of the blowup functional, at the same (a, b)
        try:
            probability = analytic_blowup_bound(eigen.lam1, params.kappa, beta, threshold).p_global
        except ConfigurationError as exc:
            raise ConfigurationError(f"heat-kernel certificate at K={K!r}: {exc}") from exc
        return CertificateReport(
            kind=CertificateKind.HEAT_KERNEL,
            J=math.nan,
            verdict=None,
            threshold=threshold,
            probability=probability,
        )

    a, b = _drift_scale(beta, params.kappa, eigen.lam1)
    _, J, tail, reason = _path_integral(path, a, b, 0.0, 1.0, -a)
    if not J < threshold:
        reason = reason or f"functional {J:.6g} is not below {threshold:.6g}"
    return _report(CertificateKind.HEAT_KERNEL, J, threshold, tail, reason)
