"""Run configuration: one JSON document, schema-validated by hand.

Unknown keys are rejected everywhere so typos fail loudly instead of being
silently ignored. Sections are optional at load time; each command demands
the sections it needs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blowup import ModelParams, TabulatedNonlinearity
from .domain import DomainSpec
from .errors import ConfigurationError
from .integrator import Scheme, SchemeConfig

_CERT_KINDS = ("integral", "saturation", "heat_kernel")


def _check_keys(section: dict, allowed: set[str], context: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")


def _finite_number(value, what: str) -> float:
    """value as a finite float, refusing bools, non-numbers and what no finite
    float holds; JSON integers are unbounded, and float() of one past 1.8e308
    overflows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigurationError(f"{what} must be finite, got an integer past 1.8e308") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite")
    return value


def _number(section: dict, key: str, context: str, *, default=None, minimum=None,
            strict_min=None, required=False) -> float | None:
    if key not in section:
        if required:
            raise ConfigurationError(f"{context}.{key} is required")
        return default
    value = _finite_number(section[key], f"{context}.{key}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{context}.{key} must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigurationError(f"{context}.{key} must be > {strict_min}, got {value}")
    return value


def _integer(section: dict, key: str, context: str, *, default=None, minimum=None,
             required=False) -> int | None:
    if key not in section:
        if required:
            raise ConfigurationError(f"{context}.{key} is required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{context}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{context}.{key} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class DomainConfig:
    kind: str
    lengths: tuple[float, ...]
    n: int
    n_fine: int | None = None

    def spec(self) -> DomainSpec:
        return DomainSpec(kind=self.kind, lengths=self.lengths)


@dataclass(frozen=True)
class InitialConfig:
    mode: str  # "eigen-multiple" | "tabulated"
    a: float | None = None
    file: str | None = None


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    n_paths: int = 1
    seed: int = 0
    v0psi_sweep: tuple[float, ...] = ()
    # sim.cutoff, sim.scheme and sim.max_snapshots
    integrator: SchemeConfig = field(default_factory=SchemeConfig)


@dataclass(frozen=True)
class CertificateConfig:
    kinds: tuple[str, ...] = _CERT_KINDS
    K: float | None = None
    eta: float = 1.0
    c: float | str = "fit"
    analytic: bool = False
    frozen_zero_path: bool = False


@dataclass(frozen=True)
class HeatKernelConfig:
    n_modes: int = 200
    t_start: float = 1e-2
    t_stop: float = 10.0
    t_num: int = 40

    def times(self) -> np.ndarray:
        return np.logspace(math.log10(self.t_start), math.log10(self.t_stop), self.t_num)


@dataclass(frozen=True)
class OutputsConfig:
    directory: str | None = None


@dataclass(frozen=True)
class RunConfig:
    domain: DomainConfig | None
    model: ModelParams | None
    initial: InitialConfig | None
    sim: SimConfig | None
    certificate: CertificateConfig | None
    heat_kernel: HeatKernelConfig = field(default_factory=HeatKernelConfig)
    outputs: OutputsConfig = field(default_factory=OutputsConfig)
    sha256: str = ""

    def need(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigurationError(f"config section '{name}' is required for this command")
        return value


def _parse_domain(section: dict) -> DomainConfig:
    _check_keys(section, {"kind", "lengths", "n", "n_fine"}, "domain")
    kind = section.get("kind")
    if kind not in ("interval", "rectangle"):
        raise ConfigurationError(f"domain.kind must be 'interval' or 'rectangle', got {kind!r}")
    lengths = section.get("lengths")
    if not isinstance(lengths, list) or not lengths:
        raise ConfigurationError("domain.lengths must be a non-empty list")
    lengths = tuple(_finite_number(L, "domain lengths") for L in lengths)
    if min(lengths) <= 0:
        raise ConfigurationError(f"domain lengths must be positive, got {min(lengths)}")
    expected = 1 if kind == "interval" else 2
    if len(lengths) != expected:
        raise ConfigurationError(f"domain.kind {kind} needs {expected} lengths, got {len(lengths)}")
    n = _integer(section, "n", "domain", required=True, minimum=8)
    n_fine = _integer(section, "n_fine", "domain", minimum=8)
    if n_fine is not None and n_fine <= n:
        raise ConfigurationError(f"domain.n_fine must exceed n={n}, got {n_fine}")
    return DomainConfig(kind=kind, lengths=lengths, n=n, n_fine=n_fine)


def _parse_nonlinearity(section: dict, beta: float):
    _check_keys(section, {"type", "coeff", "z", "g"}, "model.G")
    kind = section.get("type")
    if kind == "power_law":
        coeff = _number(section, "coeff", "model.G", default=None, strict_min=0.0)
        from .blowup import PowerLaw

        return PowerLaw(coeff=coeff, beta=beta) if coeff is not None else None
    if kind == "tabulated":
        table = {}
        for key in ("z", "g"):
            entries = section.get(key)
            if not isinstance(entries, list):
                raise ConfigurationError(f"model.G.{key} must be a list for tabulated G")
            table[key] = np.array([_finite_number(v, f"model.G.{key} entries") for v in entries])
        return TabulatedNonlinearity(**table)
    raise ConfigurationError(f"model.G.type must be 'power_law' or 'tabulated', got {kind!r}")


def _parse_model(section: dict) -> ModelParams:
    _check_keys(section, {"beta", "kappa", "Lambda", "C", "Cstar", "G"}, "model")
    beta = _number(section, "beta", "model", required=True, strict_min=0.0)
    kappa = _number(section, "kappa", "model", required=True, minimum=0.0)
    lam = _number(section, "Lambda", "model", default=1.0, strict_min=0.0)
    c = _number(section, "C", "model", default=1.0, strict_min=0.0)
    cstar = _number(section, "Cstar", "model", default=None, strict_min=0.0)
    g = None
    if "G" in section:
        if not isinstance(section["G"], dict):
            raise ConfigurationError("model.G must be an object")
        g = _parse_nonlinearity(section["G"], beta)
    return ModelParams(beta=beta, kappa=kappa, C=c, Lambda=lam, Cstar=cstar, G=g)


def _parse_initial(section: dict) -> InitialConfig:
    _check_keys(section, {"mode", "a", "file"}, "initial")
    mode = section.get("mode")
    if mode == "eigen-multiple":
        a = _number(section, "a", "initial", required=True, strict_min=0.0)
        return InitialConfig(mode=mode, a=a)
    if mode == "tabulated":
        file = section.get("file")
        if not isinstance(file, str) or not file:
            raise ConfigurationError("initial.file must name a csv file for tabulated mode")
        return InitialConfig(mode=mode, file=file)
    raise ConfigurationError(
        f"initial.mode must be 'eigen-multiple' or 'tabulated', got {mode!r}"
    )


def _parse_sim(section: dict) -> SimConfig:
    _check_keys(
        section,
        {"dt", "horizon", "n_paths", "seed", "cutoff", "scheme", "v0psi_sweep", "max_snapshots"},
        "sim",
    )
    dt = _number(section, "dt", "sim", required=True, strict_min=0.0)
    horizon = _number(section, "horizon", "sim", required=True, strict_min=0.0)
    n_paths = _integer(section, "n_paths", "sim", default=1, minimum=1)
    seed = _integer(section, "seed", "sim", default=0, minimum=0)
    scheme_name = section.get("scheme", "imex")
    try:
        scheme = Scheme(scheme_name)
    except ValueError:
        raise ConfigurationError(
            f"sim.scheme must be one of {[s.value for s in Scheme]}, got {scheme_name!r}"
        ) from None
    cutoff = _number(section, "cutoff", "sim", default=1e8)
    max_snapshots = _integer(section, "max_snapshots", "sim", default=1000)
    try:  # SchemeConfig checks the values and names the field
        integrator = SchemeConfig(cutoff=cutoff, scheme=scheme, max_snapshots=max_snapshots)
    except ConfigurationError as exc:
        raise ConfigurationError(f"sim.{exc}") from None
    sweep = section.get("v0psi_sweep", [])
    if not isinstance(sweep, list):
        raise ConfigurationError("sim.v0psi_sweep must be a list of positive finite numbers")
    sweep = tuple(_finite_number(v, "sim.v0psi_sweep entries") for v in sweep)
    if sweep and min(sweep) <= 0:
        raise ConfigurationError(f"sim.v0psi_sweep entries must be positive, got {min(sweep)}")
    return SimConfig(
        dt=dt, horizon=horizon, n_paths=n_paths, seed=seed, v0psi_sweep=sweep,
        integrator=integrator,
    )


def _parse_certificate(section: dict) -> CertificateConfig:
    _check_keys(section, {"kinds", "K", "eta", "c", "analytic", "frozen_zero_path"}, "certificate")
    kinds = section.get("kinds", list(_CERT_KINDS))
    if not isinstance(kinds, list) or not kinds:
        raise ConfigurationError("certificate.kinds must be a non-empty list")
    for i, k in enumerate(kinds):
        if k not in _CERT_KINDS:
            raise ConfigurationError(f"certificate.kinds entries must be in {_CERT_KINDS}, got {k!r}")
        if k in kinds[:i]:
            raise ConfigurationError(f"certificate.kinds lists {k!r} more than once")
    K = _number(section, "K", "certificate", default=None, strict_min=0.0)
    eta = _number(section, "eta", "certificate", default=1.0, minimum=1.0)
    c = section.get("c", "fit")
    if c != "fit":
        c = _finite_number(c, "certificate.c")
        if c <= 0:
            raise ConfigurationError(f"certificate.c must be 'fit' or positive, got {c}")
    analytic = section.get("analytic", False)
    frozen = section.get("frozen_zero_path", False)
    if not isinstance(analytic, bool) or not isinstance(frozen, bool):
        raise ConfigurationError("certificate.analytic and .frozen_zero_path must be booleans")
    return CertificateConfig(
        kinds=tuple(kinds), K=K, eta=eta, c=c, analytic=analytic, frozen_zero_path=frozen
    )


def _parse_heat_kernel(section: dict) -> HeatKernelConfig:
    _check_keys(section, {"n_modes", "t_start", "t_stop", "t_num"}, "heat_kernel")
    n_modes = _integer(section, "n_modes", "heat_kernel", default=200, minimum=30)
    t_start = _number(section, "t_start", "heat_kernel", default=1e-2, strict_min=0.0)
    t_stop = _number(section, "t_stop", "heat_kernel", default=10.0, strict_min=0.0)
    t_num = _integer(section, "t_num", "heat_kernel", default=40, minimum=2)
    if t_stop <= t_start:
        raise ConfigurationError(f"heat_kernel.t_stop must exceed t_start, got {t_stop}")
    return HeatKernelConfig(n_modes=n_modes, t_start=t_start, t_stop=t_stop, t_num=t_num)


def _parse_outputs(section: dict) -> OutputsConfig:
    _check_keys(section, {"directory"}, "outputs")
    directory = section.get("directory")
    if directory is not None and not isinstance(directory, str):
        raise ConfigurationError("outputs.directory must be a string")
    return OutputsConfig(directory=directory)


_SECTION_PARSERS = {
    "domain": _parse_domain,
    "model": _parse_model,
    "initial": _parse_initial,
    "sim": _parse_sim,
    "certificate": _parse_certificate,
    "heat_kernel": _parse_heat_kernel,
    "outputs": _parse_outputs,
}


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    _check_keys(raw, set(_SECTION_PARSERS), "config")
    parsed = {}
    for name, parser in _SECTION_PARSERS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                raise ConfigurationError(f"config section '{name}' must be an object")
            parsed[name] = parser(raw[name])
    return RunConfig(
        domain=parsed.get("domain"),
        model=parsed.get("model"),
        initial=parsed.get("initial"),
        sim=parsed.get("sim"),
        certificate=parsed.get("certificate"),
        heat_kernel=parsed.get("heat_kernel", HeatKernelConfig()),
        outputs=parsed.get("outputs", OutputsConfig()),
        sha256=hashlib.sha256(raw_bytes).hexdigest(),
    )
