"""Shared numerical kernel: a difference of two log-gamma differences,
evaluated without cancellation."""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = ["log_gamma_diff"]

# From z - m = 50 on, the Stirling remainder through its z^-7 term is good
# to about 4e-19 (the next term, 1/(1188 z^9)); below, gammaln is exact
# enough and the fused form is not needed.
_STIRLING_CUTOFF = 50.0

# Below t = 0.05, z*g(t) comes from the power series of g; at and above it,
# from the closed form, whose rounding (about 3 ulps of m) is small there.
_SERIES_CUTOFF = 0.05

# g(t)/t^2 = sum_{k>=2} t^(k-2) / (k(k-1)).  _SERIES_T[j] is the largest t
# for which the terms through k = j + 2 leave a relative error below 2^-53.
_G_COEFFS = [1.0 / (k * (k - 1)) for k in range(2, 13)]
_SERIES_T = [(2.0**-53 * k * (k + 1) / 2.0) ** (1.0 / (k - 1))
             for k in range(2, 13)]


def _stirling_remainder(w, w_min):
    # B(w) = 1/(12w) - 1/(360w^3) + 1/(1260w^5) - 1/(1680w^7), in powers of
    # 1/w, whose square underflows quietly to 0 where w * w would overflow.
    # Past w = 1e3 the terms after w^-3 are below 8e-19, and past w = 1e6
    # those after 1/(12w) are below 3e-21; there they are left out.
    inv = 1.0 / w
    if w_min >= 1e6:
        return inv / 12.0
    inv2 = inv * inv
    if w_min >= 1e3:
        return (1.0 / 12.0 - inv2 / 360.0) * inv
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2)
            * inv2) * inv


@np.errstate(divide="ignore", invalid="ignore")
def log_gamma_diff(z, gap, m):
    """[lnGamma(z) - lnGamma(z - m)] - [lnGamma(z2) - lnGamma(z2 - m)], with
    z2 = z + gap, for gap >= 0 and 0 <= m <= z elementwise.

    The four log-gamma values are huge and nearly equal when z is large, so
    neither they nor the two inner differences are subtracted.  With
    t_i = m / z_i and g(t) = (1 - t) log1p(-t) + t, Stirling's series gives

        m log1p(-gap/z2) - z g(t1) + z2 g(t2) + [log1p(-t1) - log1p(-t2)]/2
            + B(z) - B(z - m) - B(z2) + B(z2 - m),

    where every term is of the size of the result or smaller; z g(t) is
    summed from the power series sum_{k>=2} t^k/(k(k-1)) when t < 0.05.
    Elements with z - m below 50 take the first difference from gammaln,
    and the second too where z2 - m is also below 50, so z - m = 0 gives
    -inf, the log of a zero tail.  m = 0 gives 0.
    """
    z = np.asarray(z, dtype=float)
    gap = np.asarray(gap, dtype=float)
    m = np.asarray(m, dtype=float)
    # rows: z, z2, z - m, z2 - m; t_i takes the first two, the closed form
    # of z g(t) the last two, and B all four
    shape = np.broadcast(z, gap, m).shape
    w = np.empty((4,) + (shape or (1,)))
    w[0] = z
    z = w[0]
    z2 = np.add(z, gap, out=w[1])
    rest = np.subtract(z, m, out=w[2])
    np.subtract(z2, m, out=w[3])
    t = m / w[:2]
    lg = np.log1p(-t)
    # z g(t) = m t (g(t)/t^2), with as many series terms as the largest
    # t needs; past the series cutoff, (z - m) log1p(-t) + m
    top = t.max(initial=0.0)
    k = 0
    while k < len(_SERIES_T) - 1 and _SERIES_T[k] < top:
        k += 1
    s = t * _G_COEFFS[k]
    for c in reversed(_G_COEFFS[:k]):
        s += c
        s *= t
    s *= m
    if top >= _SERIES_CUTOFF:
        s = np.where(t < _SERIES_CUTOFF, s, w[2:] * lg + m)
    # row i: z_i g(t_i) - log1p(-t_i)/2 - B(z_i) + B(z_i - m); the
    # result takes row 1 minus row 0
    rest_min = rest.min()  # the smallest of the four arguments
    b = _stirling_remainder(w, rest_min)
    s -= 0.5 * lg
    s -= b[:2]
    s += b[2:]
    out = m * np.log1p(-gap / z2) + (s[1] - s[0])
    if rest_min < _STIRLING_CUTOFF:
        # the first difference from gammaln; the second too where z2 - m
        # is also below the cutoff, else lnGamma(z2) - lnGamma(z2 - m) =
        # m ln z2 - row 1, whose rounding is about m ln z2 ulps
        # where gammaln's would be about z2 ln z2
        low = rest < _STIRLING_CUTOFF
        zl, gl, rl, hl = w[:, low]
        if m.shape != low.shape:
            m = np.broadcast_to(m, low.shape)
        second = np.where(
            hl < _STIRLING_CUTOFF, gammaln(gl) - gammaln(hl),
            m[low] * np.log(gl) - s[1][low])
        out[low] = (gammaln(zl) - gammaln(rl)) - second
    return out if shape else float(out[0])
