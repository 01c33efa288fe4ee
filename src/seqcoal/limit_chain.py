"""Rescaled limit of the record chain, and the law of the record value.

Rescaling the record chain by xi_i = R_i^2 / A_i and eta_i = ln(A_i / A_{i-1})
yields, in the limit of late records, an autonomous chain
    xi_{i+1} = (xi_i + X) exp(-eta),   X, eta independent Exp(1),
whose stationary law is Exp(1).  Separately, the rank of a uniformly chosen
lineage at the time the n-th individual arrives (the record value W_n) has an
exact binomial-weight law with Gaussian-type bulk behaviour at scale sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import log_gamma_diff
from .streams import exp_inverse

__all__ = [
    "LimitState",
    "step_limit",
    "sample_limit_path",
    "sample_limit_batch",
    "WnLaw",
    "wn_pmf",
    "wn_log_pmf",
    "wn_local_limit_error",
    "conditional_wn",
    "rescaled_observables",
]

_EXACT_WN_LIMIT = 10**4


@dataclass
class LimitState:
    xi: float

    def __post_init__(self):
        if not (self.xi >= 0.0 and math.isfinite(self.xi)):
            raise ValueError("xi must be finite and >= 0")


def step_limit(state: LimitState, rng: np.random.Generator) -> LimitState:
    """One transition: add an Exp(1) increment, damp by an Exp(1) log-factor.

    Draws the increment first, then the damping exponent.
    """
    x = exp_inverse(rng)
    eta = exp_inverse(rng)
    return LimitState((state.xi + x) * math.exp(-eta))


def sample_limit_path(start, steps: int, rng: np.random.Generator) -> list:
    """Path of the limit chain as a list of xi values, length steps + 1.

    start may be a LimitState, a number, or "stationary" to begin with an
    Exp(1) draw (which the chain then preserves in law).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if isinstance(start, str):
        if start != "stationary":
            raise ValueError(f"unknown start {start!r}")
        state = LimitState(exp_inverse(rng))
    elif isinstance(start, LimitState):
        state = start
    else:
        state = LimitState(float(start))
    xs = [state.xi]
    for _ in range(steps):
        state = step_limit(state, rng)
        xs.append(state.xi)
    return xs


def sample_limit_batch(xi0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Advance many limit-chain states by one step in lockstep.

    Draws the increment array first, then the damping array, mirroring the
    scalar step's order within the call.
    """
    x = exp_inverse(rng, xi0.shape[0])
    eta = exp_inverse(rng, xi0.shape[0])
    return (xi0 + x) * np.exp(-eta)


# ---------------------------------------------------------------------------
# the record-value law


@dataclass
class WnLaw:
    """Exact law of the record value among the first n individuals.

    P(W_n = k) is proportional to k * C(2n, n-k) for k = 0..n; the
    normalizer works out to n * C(2n, n) / 2 exactly.  Weights are
    big integers, so every rational query is exact.
    """

    n: int
    weights: list
    normalizer: int

    @classmethod
    def build(cls, n: int) -> "WnLaw":
        if n < 1:
            raise ValueError("need n >= 1")
        if n > _EXACT_WN_LIMIT:
            raise ValueError(
                f"exact weights capped at n = {_EXACT_WN_LIMIT}; "
                "use wn_log_pmf beyond")
        weights = [0] * (n + 1)
        c = math.comb(2 * n, n)
        normalizer = n * c // 2
        for k in range(1, n + 1):
            # C(2n, n-k) from C(2n, n-k+1); the product telescopes exactly
            c = c * (n - k + 1) // (n + k)
            weights[k] = k * c
        return cls(n, weights, normalizer)

    def pmf_exact(self, k: int) -> Fraction:
        if k < 0 or k > self.n:
            return Fraction(0)
        return Fraction(self.weights[k], self.normalizer)

    def pmf_float(self) -> np.ndarray:
        """Whole pmf in doubles via the stable ratio recurrence
        p(k) = (2k/n) * prod_{j<=k} (n-j+1)/(n+j), avoiding the huge
        intermediate binomials."""
        n = self.n
        j = np.arange(1, n + 1, dtype=float)
        ratio = np.concatenate([[1.0], np.cumprod((n - j + 1.0) / (n + j))])
        k = np.arange(0, n + 1, dtype=float)
        return (2.0 * k / n) * ratio

    def cdf_float(self) -> np.ndarray:
        return np.cumsum(self.pmf_float())


def wn_pmf(n: int) -> WnLaw:
    return WnLaw.build(n)


def wn_log_pmf(n: int, k) -> float | np.ndarray:
    """log P(W_n = k) through one log-gamma difference kernel; works far
    past the exact-weight range.  k = 0 or k outside 0..n gives -inf."""
    if n < 1:
        raise ValueError("need n >= 1")
    k_arr = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # ln C(2n, n-k) - ln C(2n, n), then the k * 2/n prefactor
        delta = log_gamma_diff(n + 1.0, k_arr, k_arr)
        out = np.log(2.0 * k_arr / n) + delta
    out = np.where((k_arr < 1) | (k_arr > n), -np.inf, out)
    if np.ndim(k) == 0:
        return float(out)
    return out


def wn_local_limit_error(n: int, s_values) -> tuple:
    """Relative error of the Gaussian-type bulk approximation.

    At k = floor(s sqrt(n)) the pmf should be close to 2s e^{-s^2} / sqrt(n).
    Returns (kept s values, relative errors); points whose floor lands at
    k = 0 are dropped since the approximation has nothing to say there.
    """
    s = np.asarray(s_values, dtype=float)
    k = np.floor(s * math.sqrt(n)).astype(int)
    keep = k >= 1
    s, k = s[keep], k[keep]
    law = wn_pmf(n)
    pmf = law.pmf_float()
    approx = 2.0 * s * np.exp(-s * s) / math.sqrt(n)
    rel = pmf[k] / approx - 1.0
    return s, rel


def conditional_wn(n: int, k: int) -> dict:
    """Exact law of W_n given W_n >= k, as Fractions keyed by value.

    k <= 1 returns the unconditioned law restricted to its support.
    """
    law = wn_pmf(n)
    lo = max(k, 1)
    if lo > n:
        raise ValueError("conditioning event is empty")
    total = sum(law.weights[lo:], 0)
    return {j: Fraction(law.weights[j], total) for j in range(lo, n + 1)}


def rescaled_observables(path, burn_in: int = 0) -> list:
    """Map a record path to the limit-chain coordinates.

    Returns [(xi_i, eta_i), ...] with xi_i = R_i^2 / A_i and
    eta_i = ln(A_i / A_{i-1}), starting at the second record and
    discarding the first burn_in pairs.  Flagged states contribute
    their float coordinates.
    """
    r = path.r_array()
    a = path.a_array()
    if burn_in < 0 or burn_in + 1 >= r.shape[0]:
        raise ValueError("burn_in leaves no observations")
    xi = r[1:] ** 2 / a[1:]
    eta = np.log(a[1:] / a[:-1])
    return list(zip(xi[burn_in:].tolist(), eta[burn_in:].tolist()))
