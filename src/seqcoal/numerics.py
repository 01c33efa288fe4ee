"""Shared numerical kernel: stable log-gamma differences."""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = ["log_gamma_diff"]

# Below this, gammaln(z) is small enough that direct subtraction keeps
# absolute error near 1e-9; above it the paired Stirling form is used.
_STIRLING_CUTOFF = 1.0e6


def _bernoulli_tail(z):
    # Stirling correction 1/(12z) - 1/(360 z^3) + 1/(1260 z^5); terms beyond
    # are < 1e-38 for z >= 1e6.  Past z = 1e150 the z^-3 terms fall below
    # the rounding of 1/12, so capping z there changes no value and keeps
    # z * z from overflowing.
    zc = np.minimum(z, 1e150)
    inv2 = 1.0 / (zc * zc)
    return (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) / z


def _paired_stirling(z, m, rest):
    return (m * np.log(z) - (rest - 0.5) * np.log1p(-m / z) - m
            + _bernoulli_tail(z) - _bernoulli_tail(rest))


def _direct(z, rest):
    with np.errstate(divide="ignore", invalid="ignore"):
        return gammaln(z) - gammaln(rest)


def log_gamma_diff(z, m):
    """lnGamma(z) - lnGamma(z - m) without catastrophic cancellation.

    For large z the two log-gamma values are huge and nearly equal while the
    difference is moderate, so naive subtraction loses most digits.  When both
    z and z - m are at least the cutoff the difference is evaluated in paired
    Stirling form,

        m ln z - (z - m - 1/2) log1p(-m/z) - m + B(z) - B(z - m),

    whose error tracks the size of the result instead of the size of the
    operands; below it, as the direct gammaln difference.  Each element is
    computed on its own branch only.  Requires 0 <= m <= z - 1 elementwise,
    except that z - m = 0 gives -inf from the direct branch, which the rank
    tail relies on for its zero past the support.
    """
    z = np.asarray(z, dtype=float)
    m = np.asarray(m, dtype=float)
    rest = z - m
    paired = (rest >= _STIRLING_CUTOFF) & (z >= _STIRLING_CUTOFF)
    # arrays on one branch skip the masked gather and scatter, which would
    # cost the lockstep chain about an eighth of its time
    if paired.all():
        out = _paired_stirling(z, m, rest)
    elif not paired.any():
        out = _direct(z, rest)
    else:
        z, m = np.broadcast_arrays(z, m)
        out = np.empty(z.shape)
        out[paired] = _paired_stirling(z[paired], m[paired], rest[paired])
        direct = ~paired
        out[direct] = _direct(z[direct], rest[direct])
    if out.ndim == 0:
        return float(out)
    return out
