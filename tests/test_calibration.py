"""Frozen numerical pins at n = 10**4.

The acceptance checks only assert loose bounds (sup error below 5%, KS
below 0.02).  These tests pin the actual values observed with the exact
pmf pipeline, so a silent regression that stays inside the loose bounds
still fails here.
"""

import math

import numpy as np
import pytest

from seqcoal.limit_chain import (WnLaw, _wn_pmf_float, sample_limit_batch,
                                 wn_local_limit_error)
from seqcoal.streams import exp_inverse, stream

N_PIN = 10**4


def test_local_limit_sup_error_pinned():
    s_grid = np.linspace(0.2, 2.0, 3601)
    _, rel = wn_local_limit_error(N_PIN, s_grid)
    sup = float(np.abs(rel).max())
    assert sup == pytest.approx(0.0416231, abs=1e-3)
    assert sup <= 0.05


def test_exact_cdf_ks_against_exp1_pinned():
    cdf = np.cumsum(_wn_pmf_float(N_PIN))
    k = np.arange(1, N_PIN + 1, dtype=np.float64)
    target = -np.expm1(-(k**2) / N_PIN)
    # Exp(1) is continuous, so the KS sup is attained at a jump of the
    # discrete cdf, approached from one side or the other.
    ks_d = float(
        np.maximum(np.abs(cdf[1:] - target), np.abs(cdf[:-1] - target)).max()
    )
    assert ks_d == pytest.approx(0.0043015, abs=1e-4)
    assert ks_d <= 0.02


def test_normalizer_asymptotic_error_pinned():
    n = N_PIN
    law = WnLaw.build(n)
    log_exact = (
        math.log(n)
        + math.lgamma(2 * n + 1)
        - 2 * math.lgamma(n + 1)
        - math.log(2)
    )
    # lgamma route agrees with the big-integer normalizer itself
    assert log_exact == pytest.approx(math.log(2) * law.normalizer.bit_length(), rel=1e-3)
    log_asym = 0.5 * math.log(n) - math.log(2 * math.sqrt(math.pi)) + 2 * n * math.log(2)
    ratio_err = abs(math.expm1(log_exact - log_asym))
    assert ratio_err == pytest.approx(1.25e-5, rel=1e-2)


def test_limit_chain_lag1_correlation_near_half():
    # One stationary step: corr(xi_0, xi_1) sits at 1/2, the value the
    # path-convergence check calibrates against.
    rng = stream(20260822, 7, 1)
    n = 400_000
    xi0 = exp_inverse(rng, n)
    xi1 = sample_limit_batch(xi0, rng)
    rho = float(np.corrcoef(xi0, xi1)[0, 1])
    assert abs(rho - 0.5) < 0.008
