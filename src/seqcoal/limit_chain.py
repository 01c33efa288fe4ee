"""Rescaled limit of the record chain, and the law of the record value.

Rescaling the record chain by xi_i = R_i^2 / A_i and eta_i = ln(A_i / A_{i-1})
yields, in the limit of late records, an autonomous chain
    xi_{i+1} = (xi_i + X) exp(-eta),   X, eta independent Exp(1),
whose stationary law is Exp(1).  The damping factor U = exp(-eta) is
uniform on (0, 1], and the sampler draws it as one.  Separately, the rank
of a uniformly chosen lineage at the time the n-th individual arrives (the
record value W_n) has an exact binomial-weight law with Gaussian-type bulk
behaviour at scale sqrt(n).  It is the record chain's first rank step,
taken from the empty state (r, a) = (0, n), so its float and log forms are
ra_chain's rank-law kernels at r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ra_chain import _log_r_tail, _rank_pmf
from .streams import exp_inverse

__all__ = [
    "sample_limit_batch",
    "WnLaw",
    "wn_log_pmf",
    "wn_local_limit_error",
    "rescaled_observables",
]

_EXACT_WN_LIMIT = 10**4


def sample_limit_batch(xi0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Advance many limit-chain states by one step in lockstep.

    Draws the increment array X first, then a uniform array u, each of
    xi0's shape, and returns (xi0 + X) U with U = 1 - u.  U stands for
    the damping factor exp(-eta): with eta ~ Exp(1) it is uniform on
    (0, 1], and 1 - u is exact and never 0, so the step takes no exp and
    redraws nothing.  Raises ValueError unless every start is finite and
    >= 0.
    """
    if np.count_nonzero((xi0 >= 0.0) & (xi0 < np.inf)) < xi0.size:
        raise ValueError("xi must be finite and >= 0")
    return (xi0 + exp_inverse(rng, xi0.shape)) * (1.0 - rng.random(xi0.shape))


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
        _check_n(n)
        n = int(n)
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
        """Whole pmf in doubles for k = 0..n (see _wn_pmf_float)."""
        return _wn_pmf_float(self.n)


def _check_n(n):
    """ValueError unless n is a whole number >= 1."""
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError("need a whole n >= 1")


def _wn_pmf_float(n: int) -> np.ndarray:
    """P(W_n = k) in doubles for k = 0..n, with no exact weights and no cap
    on n: 0 at k = 0, then the rank law from (0, n),
    (2k/(n+k)) prod_{j<k} (n-j)/(n+j), as one cumulative product."""
    _check_n(n)
    return np.concatenate(([0.0], _rank_pmf(0, n, n)))


def wn_log_pmf(n: int, k) -> float | np.ndarray:
    """log P(W_n = k) as the rank law from (0, n): the log absorption
    factor ln(2k/(n+k)) plus the log tail of the rank step, so it works far
    past the exact-weight range.  k = 0 or k outside 0..n gives -inf;
    ValueError unless n is a whole number >= 1."""
    _check_n(n)
    k_arr = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(2.0 * k_arr / (n + k_arr)) + _log_r_tail(0, n, k_arr)
    out = np.where((k_arr < 1) | (k_arr > n), -np.inf, out)
    if np.ndim(k) == 0:
        return float(out)
    return out


def wn_local_limit_error(n: int, s_values) -> tuple:
    """Relative error of the Gaussian-type bulk approximation.

    At k = floor(s sqrt(n)) the pmf should be close to 2s e^{-s^2} / sqrt(n).
    Returns (kept s values, relative errors); points whose floor lands
    outside 1..n are dropped: the approximation has nothing to say at
    k = 0, and past n the pmf is 0.  The whole pmf is read in doubles,
    n + 1 of them, with no exact weights, so n has no cap beyond memory;
    ValueError unless n is a whole number >= 1.
    """
    pmf = _wn_pmf_float(n)
    s = np.asarray(s_values, dtype=float)
    k = np.floor(s * math.sqrt(n)).astype(int)
    keep = (k >= 1) & (k <= n)
    s, k = s[keep], k[keep]
    # math.exp per point: numpy's exp loops round differently on CPUs
    # with and without AVX-512, so the output would depend on the CPU
    e = np.fromiter(map(math.exp, (-s * s).tolist()), float, s.size)
    approx = 2.0 * s * e / math.sqrt(n)
    rel = pmf[k] / approx - 1.0
    return s, rel


def rescaled_observables(R, A, burn_in: int = 0) -> tuple:
    """Map record states to the limit-chain coordinates.

    R and A hold ranks and positions with states on axis 0: one path
    (1-D), or one path per column (2-D) as sample_paths_batch returns
    them.
    Returns arrays (xi, eta) with xi_i = R_i^2 / A_i and
    eta_i = ln(A_i / A_{i-1}) for states i = burn_in + 1, burn_in + 2, ...,
    so that row 0 of each belongs to state burn_in + 1.
    """
    R = np.asarray(R, dtype=float)
    A = np.asarray(A, dtype=float)
    if R.shape != A.shape:
        raise ValueError("R and A must have the same shape")
    if burn_in < 0 or burn_in + 1 >= R.shape[0]:
        raise ValueError("burn_in leaves no observations")
    xi = R[burn_in + 1:] ** 2 / A[burn_in + 1:]
    eta = np.log(A[burn_in + 1:] / A[burn_in:-1])
    return xi, eta
