"""Run configuration: one JSON document, schema-validated by hand.

Each setting is declared once, by the dataclass that holds it: the field's
name is the setting's key, the field's default its default, and the
dataclass's constructor checks its range. The parsers here check JSON types
only. Unknown keys are rejected everywhere so typos fail loudly instead of
being silently ignored. Sections are optional at load time; each command
demands the sections it needs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .blowup import ModelParams
from .certificates import CertificateKind
from .domain import MIN_POINTS_PER_AXIS, MIN_RATIO_MODES, DomainSpec
from .errors import ConfigurationError

_CERT_KINDS = tuple(kind.value for kind in CertificateKind)
# numpy holds counts and sizes in 64-bit integers; JSON integers are unbounded
_INT64 = 1 << 63


def _above(name: str, value, bound) -> None:
    if value <= bound:
        raise ConfigurationError(f"{name} must be > {bound}, got {value}")


def _at_least(name: str, value, bound) -> None:
    if value < bound:
        raise ConfigurationError(f"{name} must be >= {bound}, got {value}")


@dataclass(frozen=True)
class DomainConfig(DomainSpec):
    """The domain with its mesh: ``n`` interior points per axis, and
    ``n_fine`` for the Richardson pair (None doubles the mesh exactly: the
    widths L/(n+1) halve at 2(n+1) - 1 points)."""

    n: int
    n_fine: int | None = None

    def __post_init__(self):
        super().__post_init__()
        _at_least("n", self.n, MIN_POINTS_PER_AXIS)
        if self.n_fine is None:
            object.__setattr__(self, "n_fine", 2 * (self.n + 1) - 1)
        elif self.n_fine <= self.n:
            raise ConfigurationError(f"n_fine must exceed n={self.n}, got {self.n_fine}")


@dataclass(frozen=True)
class InitialConfig:
    mode: str  # "eigen-multiple" | "tabulated"
    a: float | None = None
    file: str | None = None

    def __post_init__(self):
        if self.mode == "eigen-multiple":
            if self.a is None:
                raise ConfigurationError("a is required")
            _above("a", self.a, 0.0)
        elif self.mode == "tabulated":
            if not self.file:
                raise ConfigurationError("file must name a csv file for tabulated mode")
        else:
            raise ConfigurationError(
                f"mode must be 'eigen-multiple' or 'tabulated', got {self.mode!r}"
            )


@dataclass(frozen=True)
class SimConfig:
    """The run's time grid, paths, seed, the masses the blowup command sweeps
    and the sup norm past which a simulated path has blown up."""

    dt: float
    horizon: float
    n_paths: int = 1
    seed: int = 0
    v0psi_sweep: tuple[float, ...] = ()
    cutoff: float = 1e8

    def __post_init__(self):
        if self.cutoff <= 1:
            raise ConfigurationError(f"cutoff must exceed one, got {self.cutoff}")
        _above("dt", self.dt, 0.0)
        _above("horizon", self.horizon, 0.0)
        _at_least("n_paths", self.n_paths, 1)
        _at_least("seed", self.seed, 0)
        if self.v0psi_sweep:
            _above("v0psi_sweep entries", min(self.v0psi_sweep), 0.0)


@dataclass(frozen=True)
class CertificateConfig:
    kinds: tuple[str, ...] = _CERT_KINDS
    K: float | None = None
    eta: float = 1.0
    c: float | str = "fit"
    analytic: bool = False
    frozen_zero_path: bool = False

    def __post_init__(self):
        if not self.kinds:
            raise ConfigurationError("kinds must be a non-empty list")
        for i, k in enumerate(self.kinds):
            if k not in _CERT_KINDS:
                raise ConfigurationError(f"kinds entries must be in {_CERT_KINDS}, got {k!r}")
            if k in self.kinds[:i]:
                raise ConfigurationError(f"kinds lists {k!r} more than once")
        if self.K is not None:
            _above("K", self.K, 0.0)
        _at_least("eta", self.eta, 1.0)
        if self.c != "fit" and self.c <= 0:
            raise ConfigurationError(f"c must be 'fit' or positive, got {self.c}")


@dataclass(frozen=True)
class HeatKernelConfig:
    n_modes: int = 200
    t_start: float = 1e-2
    t_stop: float = 10.0
    t_num: int = 40

    def __post_init__(self):
        _at_least("n_modes", self.n_modes, MIN_RATIO_MODES)
        _above("t_start", self.t_start, 0.0)
        _above("t_stop", self.t_stop, self.t_start)
        _at_least("t_num", self.t_num, 2)

    def times(self) -> np.ndarray:
        return np.logspace(math.log10(self.t_start), math.log10(self.t_stop), self.t_num)


@dataclass(frozen=True)
class RunConfig:
    domain: DomainConfig | None = None
    model: ModelParams | None = None
    initial: InitialConfig | None = None
    sim: SimConfig | None = None
    certificate: CertificateConfig | None = None
    heat_kernel: HeatKernelConfig = field(default_factory=HeatKernelConfig)
    sha256: str = ""

    def need(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigurationError(f"config section '{name}' is required for this command")
        return value


def _json(value, what: str, types=(int, float), name="a number"):
    """value if it has the JSON type ``name``, held as one of ``types``, where
    ``what`` is its dotted key; a bool is an int to Python but not to JSON."""
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise ConfigurationError(f"{what} must be {name}, got {value!r}")
    return value


# the JSON type checks of the settings each take a value and its dotted key
_boolean = partial(_json, types=bool, name="a boolean")
_any_integer = partial(_json, types=int, name="an integer")
_string = partial(_json, types=(str, type(None)), name="a string")  # null: unset


def _finite_number(value, what: str) -> float:
    """value as a finite float, refusing bools, non-numbers and what no finite
    float holds; JSON integers are unbounded, and float() of one past 1.8e308
    overflows."""
    try:
        value = float(_json(value, what))
    except OverflowError:
        raise ConfigurationError(f"{what} must be finite, got an integer past 1.8e308") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite")
    return value


def _integer(value, what: str) -> int:
    """value as an integer that an int64 holds, as numpy needs of a count."""
    value = _any_integer(value, what)
    if not -_INT64 <= value < _INT64:
        raise ConfigurationError(f"{what} must be finite, got an integer outside int64")
    return value


def _list(value, what: str) -> tuple:
    return tuple(_json(value, what, list, "a list"))


def _numbers(value, what: str) -> tuple[float, ...]:
    return tuple(_finite_number(v, f"{what} entries") for v in _list(value, what))


def _fit_or_number(value, what: str) -> float | str:
    return value if value == "fit" else _finite_number(value, what)


def _check_keys(section: dict, allowed, context: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")


def _make(cls, context: str, section: dict, **checks):
    """cls from a section whose keys are its fields: each value through its
    key's JSON type check in ``checks`` (an enumeration has none; cls checks
    it with every range), and each field the section omits at its default.
    cls's refusals begin with the field's name; the section's goes before."""
    _check_keys(section, {f.name for f in fields(cls)}, context)
    for f in fields(cls):
        if f.name not in section and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{context}.{f.name} is required")
    values = {k: checks[k](v, f"{context}.{k}") if k in checks else v for k, v in section.items()}
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{context}.{exc}") from None


# each section's parser: it takes the section's name and its JSON object
_SECTION_PARSERS = {
    "domain": partial(_make, DomainConfig, lengths=_numbers, n=_integer, n_fine=_integer),
    "model": partial(
        _make, ModelParams, beta=_finite_number, kappa=_finite_number, C=_finite_number,
        Lambda=_finite_number, Cstar=_finite_number,
    ),
    "initial": partial(_make, InitialConfig, a=_finite_number, file=_string),
    "sim": partial(
        _make, SimConfig, dt=_finite_number, horizon=_finite_number, n_paths=_integer,
        seed=_any_integer,  # numpy's SeedSequence takes any integer
        v0psi_sweep=_numbers, cutoff=_finite_number,
    ),
    "certificate": partial(
        _make, CertificateConfig, kinds=_list, K=_finite_number, eta=_finite_number,
        c=_fit_or_number, analytic=_boolean, frozen_zero_path=_boolean,
    ),
    "heat_kernel": partial(
        _make, HeatKernelConfig,
        n_modes=_integer, t_start=_finite_number, t_stop=_finite_number, t_num=_integer,
    ),
}


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(raw_bytes)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; nesting
        # past the decoder's recursion limit raises RecursionError
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    _check_keys(raw, set(_SECTION_PARSERS), "config")
    parsed = {}
    for name, parse in _SECTION_PARSERS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                raise ConfigurationError(f"config section '{name}' must be an object")
            parsed[name] = parse(name, raw[name])
    return RunConfig(**parsed, sha256=hashlib.sha256(raw_bytes).hexdigest())
