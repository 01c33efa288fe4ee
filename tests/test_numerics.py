"""Numerical kernels against scipy references and brute-force sums."""

import math

import numpy as np
import pytest

from seqcoal import numerics
from seqcoal.numerics import log_gamma_diff
from seqcoal.streams import exp_inverse, stream


def test_stream_reproducible_and_path_sensitive():
    a = stream(7, 1, 2).random(5)
    b = stream(7, 1, 2).random(5)
    c = stream(7, 2, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_exp_inverse_scalar_is_python_float():
    rng = stream(0, 99)
    v = exp_inverse(rng)
    assert type(v) is float
    assert v > 0.0


def test_exp_inverse_matches_inversion_of_same_stream():
    u = stream(3, 4).random(1000)
    got = exp_inverse(stream(3, 4), 1000)
    assert np.array_equal(got, -np.log(u))


def test_exp_inverse_seeded_mean():
    x = exp_inverse(stream(11, 0), 200_000)
    assert x.min() > 0.0
    assert abs(x.mean() - 1.0) < 0.01


def _lgamma_reference(z, gap, m):
    z2 = z + gap
    return ((math.lgamma(z) - math.lgamma(z - m))
            - (math.lgamma(z2) - math.lgamma(z2 - m)))


def test_log_gamma_diff_against_mpmath_every_decade():
    # the rank tail's shape, z = a - r, gap = 2r + x, m = x - 1 with r and x
    # near sqrt(a): the four log-gamma values are about a ln a while the
    # result is O(1), so a subtraction of them would keep no digit past 1e20
    mpmath = pytest.importorskip("mpmath")
    rng = stream(12, 0)
    for e in range(3, 291):
        a = math.floor(10.0 ** (e + rng.random()))
        root = math.sqrt(a)
        # below 1e7, t = m/z crosses the series cutoff: sample it densely
        for _ in range(40 if e < 7 else 3):
            r = math.floor(root * rng.uniform(0.05, 2.0)) + 1.0
            x = math.floor(root * rng.uniform(0.05, 3.0)) + 2.0
            z, gap, m = a - r, 2.0 * r + x, x - 1.0
            got = log_gamma_diff(z, gap, m)
            with mpmath.workdps(40 + e):
                Z, G, M = (mpmath.mpf(v) for v in (z, gap, m))
                want = float(mpmath.loggamma(Z) - mpmath.loggamma(Z - M)
                             - mpmath.loggamma(Z + G) + mpmath.loggamma(Z + G - M))
            assert abs(got - want) <= 1e-13, (a, r, x, got, want)


def test_log_gamma_diff_small_args_match_lgamma():
    # below z - m = 50 the kernel takes gammaln; just above it, the fused
    # form must agree with the same lgamma values
    for z, gap, m in [(5.0, 1.0, 2.0), (30.0, 0.0, 29.0), (2.5, 7.0, 1.0),
                      (60.0, 3.0, 9.0), (80.0, 40.0, 25.0), (400.0, 9.0, 300.0)]:
        got = log_gamma_diff(z, gap, m)
        assert got == pytest.approx(_lgamma_reference(z, gap, m), rel=1e-13,
                                    abs=1e-13)


def test_log_gamma_diff_large_args_against_exact_sum():
    # the result is the log of m ratios (z - j)/(z + gap - j); fsum keeps
    # that reference exact to a few ulps, where a difference of lgamma
    # values of size 3e7 would keep about 9 digits
    z, gap, m = 2.0e6, 3.0e3, 50
    want = math.fsum(math.log((z - j) / (z + gap - j)) for j in range(1, m + 1))
    assert log_gamma_diff(z, gap, float(m)) == pytest.approx(want, rel=1e-14,
                                                             abs=1e-15)


def test_log_gamma_diff_array_and_scalar_agree():
    z = np.array([10.0, 2.0e6, 3.0e7, 1e200])
    gap = np.array([4.0, 3.0e3, 0.0, 2e100])
    m = np.array([3.0, 10.0, 1.0, 1e99])
    arr = log_gamma_diff(z, gap, m)
    assert arr.shape == (4,)
    for i in range(4):
        assert arr[i] == log_gamma_diff(float(z[i]), float(gap[i]), float(m[i]))
    # a scalar z against array gap and m, as the record-value law calls it
    assert np.array_equal(log_gamma_diff(1e6, gap[:3], m[:3]),
                          log_gamma_diff(np.full(3, 1e6), gap[:3], m[:3]))


def test_log_gamma_diff_zero_m_is_zero():
    for z, gap in [(4.0e6, 9.0), (3.0, 2.0), (1e300, 1e299)]:
        assert log_gamma_diff(z, gap, 0.0) == 0.0
    assert np.all(log_gamma_diff(np.array([3.0, 4e6]), 5.0, 0.0) == 0.0)


def test_log_gamma_diff_mixed_branches_at_cutoff():
    cut = numerics._STIRLING_CUTOFF
    z = np.array([cut - 1.0, cut, cut + 1.0, cut + 1.0, 2.0 * cut, 1e6, 12.0,
                  cut, 1e9])
    m = np.array([0.0, 1.0, 1.0, 2.0, cut + 1.0, 500.0, 11.0, cut, 1e9])
    gap = np.array([5.0, 0.0, 3.0, 100.0, 7.0, 2e3, 1.0, 4.0, 1e3])
    low = z - m < cut
    assert low.any() and not low.all()
    got = log_gamma_diff(z, gap, m)
    for i in range(z.size):
        assert got[i] == log_gamma_diff(float(z[i]), float(gap[i]), float(m[i]))
    # z - m = 0 gives -inf, the log of a zero tail
    assert np.isneginf(got[-2:]).all()
    for zi, gi, mi, vi in zip(z[:-2], gap[:-2], m[:-2], got[:-2]):
        # the log of a product of m ratios (z - j)/(z + gap - j)
        want = math.fsum(math.log((zi - j) / (zi + gi - j))
                         for j in range(1, int(mi) + 1))
        assert vi == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_gamma_diff_small_z_beside_a_huge_gap():
    # the rank tail at a - r = d < 50 with a large: the first difference
    # is small and exact from gammaln, the second is not, since lnGamma(2a)
    # alone rounds by about 2a ln(2a) ulps
    mpmath = pytest.importorskip("mpmath")
    for a in (1e8, 1e12, 1e15):
        for d in (3.0, 31.0, 49.0):
            z, gap, m = d, 2.0 * (a - d) + 2.0, 1.0
            got = log_gamma_diff(z, gap, m)
            with mpmath.workdps(60):
                Z, G, M = (mpmath.mpf(v) for v in (z, gap, m))
                want = float(mpmath.loggamma(Z) - mpmath.loggamma(Z - M)
                             - mpmath.loggamma(Z + G) + mpmath.loggamma(Z + G - M))
            assert abs(got - want) <= 1e-13, (a, d, got, want)
