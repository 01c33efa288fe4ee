"""Numerical kernels against scipy references and brute-force sums."""

import math

import numpy as np
import pytest
from scipy import special

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


def test_log_gamma_diff_small_args_match_lgamma():
    for z, m in [(5.0, 2.0), (30.0, 29.0), (100.0, 0.0), (2.5, 1.0)]:
        want = math.lgamma(z) - math.lgamma(z - m)
        assert log_gamma_diff(z, m) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_log_gamma_diff_large_args_against_exact_sum():
    # lnGamma(z) - lnGamma(z-m) = sum_{j=1..m} ln(z-j); fsum keeps the
    # reference exact to a few ulps while the naive lgamma difference would
    # lose ~7 digits at this magnitude.
    z, m = 2.0e6, 50
    want = math.fsum(math.log(z - j) for j in range(1, m + 1))
    got = log_gamma_diff(float(z), float(m))
    assert got == pytest.approx(want, rel=1e-11)


def test_log_gamma_diff_array_and_scalar_agree():
    z = np.array([10.0, 2.0e6, 3.0e7])
    m = np.array([3.0, 10.0, 1.0])
    arr = log_gamma_diff(z, m)
    assert arr.shape == (3,)
    for i in range(3):
        assert arr[i] == log_gamma_diff(float(z[i]), float(m[i]))


def _both_branches(z, m):
    """Both branches on every element, then a pick per element: the
    evaluation log_gamma_diff must reproduce bit for bit."""
    rest = z - m
    safe_z, safe_rest = np.maximum(z, 1.0), np.maximum(rest, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = special.gammaln(z) - special.gammaln(rest)
        paired = (m * np.log(safe_z) - (safe_rest - 0.5) * np.log1p(-m / safe_z)
                  - m + numerics._bernoulli_tail(safe_z)
                  - numerics._bernoulli_tail(safe_rest))
    cut = numerics._STIRLING_CUTOFF
    return np.where((rest >= cut) & (z >= cut), paired, direct)


def test_log_gamma_diff_mixed_branches_at_cutoff():
    cut = numerics._STIRLING_CUTOFF
    z = np.array([cut - 1.0, cut, cut, cut + 1.0, cut + 1.0, cut + 40.0,
                  2.0 * cut, 12.0, cut, cut + 3.0])
    m = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 40.0, 40.0, 11.0, cut, cut + 3.0])
    rest = z - m
    paired = (rest >= cut) & (z >= cut)
    assert paired.any() and not paired.all()
    got = log_gamma_diff(z, m)
    assert np.array_equal(got, _both_branches(z, m))
    for i in range(z.size):
        assert got[i] == log_gamma_diff(float(z[i]), float(m[i]))
    # z - m = 0 gives the direct branch's -inf, the log of a zero tail
    assert np.isneginf(got[-2:]).all()
    for zi, mi, gi in zip(z[:-2], m[:-2], got[:-2]):
        want = math.fsum(math.log(zi - j) for j in range(1, int(mi) + 1))
        assert gi == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_log_gamma_diff_zero_m_is_zero():
    assert log_gamma_diff(4.0e6, 0.0) == 0.0
