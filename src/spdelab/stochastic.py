"""Brownian paths, exponential functionals, and the limiting gamma law.

``exp_functional`` integrates every path functional: the blowup functional,
which is also the heat-kernel certificate's, and the certificates' weighted
integrals. ``_clamped_exp`` clamps its exponents and the Monte Carlo kernel's.

The sampling scheme is counter-based: every path owns the generator seeded by
``[seed, path_index]`` and reads its increments from that one stream, in one
call or in consecutive chunks; chunked ``standard_normal`` draws are bitwise
equal to a single draw. ``path_generators`` reseeds a whole block of paths'
generators at once: it runs numpy's ``SeedSequence`` hash on arrays, one
batch per block, and sets each generator's PCG64 state, so every stream is
still bitwise ``np.random.default_rng([seed, path_index])``'s. Like numpy's
streams, the draws are fixed per numpy version. The Monte Carlo kernel draws
each chunk into the path's own row of a block of MC_BLOCK paths, so a row
holds exactly the draws of that path. Paths are therefore bitwise
reproducible regardless of chunking, block width, worker count, or the order
in which indices are visited.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _refuse_oversized

# exponent ceiling: exp(700) is still finite in float64, exp(710) is not
EXP_CLAMP = 700.0


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Wiener values on the uniform grid t_k = k*dt, with W(0) = 0. The grid
    ends at the last value: T = times[-1]."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"need a positive finite dt, got dt={self.dt}")
        if len(self.values) < 2:
            raise ConfigurationError(f"a path needs a step, got {len(self.values)} values")
        if self.values[0] != 0.0:
            raise ConfigurationError("Brownian path must start at zero")

    @property
    def nsteps(self) -> int:
        return len(self.values) - 1

    @functools.cached_property
    def times(self) -> np.ndarray:
        """Grid times k*dt, built on first use and read-only."""
        times = self.dt * np.arange(len(self.values))
        times.flags.writeable = False
        return times

    @classmethod
    def frozen_zero(cls, horizon: float, dt: float) -> "BrownianPath":
        """Diagnostic injection: the identically-zero path."""
        nsteps = _n_steps(horizon, dt)
        _refuse_oversized(nsteps + 1, f"a path of T={horizon} at dt={dt}")
        return cls(dt=dt, values=np.zeros(nsteps + 1))


def _n_steps(horizon: float, dt: float) -> int:
    """floor(horizon/dt), allowing 1e-9 of a step for rounding."""
    if not 0 < dt <= horizon:
        raise ConfigurationError(f"need 0 < dt <= horizon, got dt={dt} T={horizon}")
    steps = horizon / dt + 1e-9
    if not math.isfinite(steps):
        raise ConfigurationError(f"horizon/dt is not a finite step count: T={horizon} dt={dt}")
    return int(math.floor(steps))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, hashed by xor-multiply-xorshift steps whose multiplier
# advances by MULT_A at every step
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
# the 128-bit multiplier of PCG64's LCG
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of n successive hash steps from init,
    as (n, 1) uint32 columns."""
    xor, mul = [], []
    for _ in range(n):
        xor.append(init)
        init = init * mult & _MASK32
        mul.append(init)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


@functools.cache
def _mix_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants of the entropy hash of n_words words: the pool fill, three
    steps for each pool word mixed into the others, and a pool's worth for
    each word past the pool."""
    return _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, n_words - _POOL))


# the output hash: two words of each pool word, for four uint64 words
_OUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    out ^= out >> 16
    return out


def _generate_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every column e of
    the (words, paths) uint32 array entropy, as (4, paths) uint64."""
    xor, mul = _mix_constants(len(entropy))
    pool = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):
        # the three other words each take one hash of this one, which none
        # of them changes
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3], mul[k : k + 3]))
        k += 3
    for word in entropy[_POOL:]:  # words past the pool mix into every pool word
        pool = _mix(pool, _hashmix(word, xor[k : k + _POOL], mul[k : k + _POOL]))
        k += _POOL
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_OUT_CONSTANTS).astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


def _n_words(n: int) -> int:
    """How many 32-bit words numpy splits the integer n >= 0 into: at least one."""
    return (n.bit_length() + 31) // 32 or 1


def path_generators(
    seed: int, path_indices, out: list[np.random.Generator] | None = None
) -> list[np.random.Generator]:
    """The generators of paths path_indices under seed, each bitwise
    ``np.random.default_rng([seed, i])``; the only place randomness enters.

    out holds generators to reseed, at least one per index: its first
    len(path_indices) are reseeded in one pass and returned. The entropy
    words of seed, then of i, go through numpy's ``SeedSequence`` hash as
    uint32 arrays, one batch per count of index words (the hash runs extra
    rounds per word past its pool), and PCG64's seeding turns the hash into
    each state, set through ``bit_generator.state``. That costs about 4 us a
    path and 70 us a call, against 10 us a path for ``default_rng``. Without
    out the generators are new, and numpy's own: building one costs about
    as much as seeding it, so the batch pays only for reseeding.
    """
    indices = [int(i) for i in path_indices]
    if seed < 0 or min(indices, default=0) < 0:
        raise ValueError(f"seed and path indices must be >= 0, got seed {seed}")
    if out is None:
        return [np.random.default_rng([seed, i]) for i in indices]
    if len(out) < len(indices):
        raise ValueError(f"{len(out)} generators for {len(indices)} paths")
    # the entropy is seed's little-endian 32-bit words, then the index's
    n_seed = _n_words(seed)
    counts = [_n_words(i) for i in indices]
    state = np.empty((4, len(indices)), np.uint64)
    for count in set(counts):
        cols = [k for k, c in enumerate(counts) if c == count]
        entropy = np.empty((n_seed + count, len(cols)), np.uint32)
        entropy[:n_seed] = [[seed >> 32 * w & _MASK32] for w in range(n_seed)]
        for w in range(count):
            entropy[n_seed + w] = [indices[k] >> 32 * w & _MASK32 for k in cols]
        state[:, cols] = _generate_state(entropy)
    # PCG64's srandom: inc = 2 initseq + 1, then two LCG steps from 0 with
    # initstate added between them
    for rng, (s_hi, s_lo, q_hi, q_lo) in zip(out, state.T.tolist()):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state_128 = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
    return out[: len(indices)]


def brownian_increments(seed: int, path_index: int, nsteps: int) -> np.ndarray:
    """The first nsteps unit-variance draws of one path's stream.

    The path constructor reads them in one call and the Monte Carlo kernel in
    chunks of the same stream, so a (seed, index) pair pins the path bitwise.
    """
    [rng] = path_generators(seed, [path_index])
    return rng.standard_normal(nsteps)


def sample_brownian(horizon: float, dt: float, seed: int, path_index: int) -> BrownianPath:
    """Draw one reproducible Brownian path on the uniform grid."""
    nsteps = _n_steps(horizon, dt)
    _refuse_oversized(nsteps + 1, f"a path of T={horizon} at dt={dt}")
    incr = math.sqrt(dt) * brownian_increments(seed, path_index, nsteps)
    values = np.empty(nsteps + 1)
    values[0] = 0.0
    np.cumsum(incr, out=values[1:])
    return BrownianPath(dt=dt, values=values)


def gamma_shape(beta: float, kappa: float, lam1: float) -> float:
    """Shape alpha = (2*lam1 + kappa^2)/(kappa^2*beta) of the limiting gamma law.

    Evaluated as -mu/(kappa*beta/2) with mu = -(lam1 + kappa^2/2)/kappa; the
    textbook quotient can differ in the last ulp, and blowup.csv writes alpha
    with all its digits.

    Raises
    ------
    ConfigurationError
        If kappa == 0: the noiseless problem has no limiting gamma law, use
        the deterministic dichotomy instead. Also if alpha overflows, which
        a tiny kappa does.
    """
    if kappa == 0:
        raise ConfigurationError("kappa=0: use the deterministic dichotomy, mu is undefined")
    if beta <= 0 or kappa < 0 or lam1 <= 0:
        raise ConfigurationError(f"need beta>0, kappa>0, lam1>0, got {beta}, {kappa}, {lam1}")
    mu = -(lam1 + 0.5 * kappa**2) / kappa
    scale = 0.5 * kappa * beta
    alpha = -(mu / scale) if scale > 0 else math.inf
    if not math.isfinite(alpha):
        raise ConfigurationError(
            f"the gamma shape alpha = (2 lam1 + kappa^2)/(kappa^2 beta) overflows at "
            f"kappa={kappa!r}, beta={beta!r}, lam1={lam1!r}"
        )
    return alpha


def _clamped_exp(expo: np.ndarray):
    """Exponentiate expo in place, each entry clamped to EXP_CLAMP, and return
    whether each row (the last axis) had an entry clamped."""
    clamped = expo.max(axis=-1) > EXP_CLAMP
    if clamped.any():
        np.minimum(expo, EXP_CLAMP, out=expo)
    np.exp(expo, out=expo)
    return clamped


def exp_functional(
    path: BrownianPath, a: float, b: float, log_weight=0.0
) -> tuple[np.ndarray, bool]:
    """Running trapezoidal values of int_0^t exp(a s + b W_s + log_weight(s)) ds
    on the path grid, and whether an exponent passed EXP_CLAMP and was
    clamped. log_weight is a scalar or sampled on the path grid."""
    expo = a * path.times + b * path.values + log_weight
    clamped = bool(_clamped_exp(expo))
    steps = 0.5 * path.dt * (expo[1:] + expo[:-1])
    return np.concatenate(([0.0], np.cumsum(steps))), clamped


def gamma_tail(alpha: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(alpha, z), the Gamma(alpha, 1) tail."""
    if alpha <= 0:
        raise ValueError(f"shape must be positive, got {alpha}")
    if z < 0:
        raise ValueError(f"tail argument must be >= 0, got {z}")
    # imported on first use: at module level it slows `import spdelab.cli`
    from scipy.special import gammaincc

    return float(gammaincc(alpha, z))


def blowup_density(y, lam1: float, kappa: float, beta: float):
    """Density of the limiting value of the exponential functional.

    h(y) = (2/(kappa^2 beta^2 y))^alpha * exp(-2/(kappa^2 beta^2 y))
    / (y Gamma(alpha)) with alpha = (2 lam1 + kappa^2)/(kappa^2 beta): the
    density of 2/(kappa^2 beta^2 Z) for Z ~ Gamma(alpha), which integrates to
    one. Scalar y gives a float, array y an array.
    """
    if kappa <= 0 or beta <= 0 or lam1 <= 0:
        raise ValueError(f"need lam1, kappa, beta > 0, got {lam1}, {kappa}, {beta}")
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("density argument must be positive")
    alpha = gamma_shape(beta, kappa, lam1)
    u = 2.0 / (kappa**2 * beta**2 * y)
    out = np.exp(alpha * np.log(u) - u - math.lgamma(alpha)) / y
    return float(out) if out.ndim == 0 else out
