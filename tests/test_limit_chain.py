"""The rescaled limit chain and the exact record-value law."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from seqcoal.limit_chain import (WnLaw, rescaled_observables,
                                 sample_limit_batch, wn_local_limit_error,
                                 wn_log_pmf)
from seqcoal.ra_chain import RAState, sample_paths_batch, urn_oracle_r
from seqcoal.stats import ks_one_sample
from seqcoal.streams import exp_inverse, stream


class ScriptedRNG:
    """Returns pre-chosen values in order, and logs which draw took them."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def _take(self, name, size):
        self.calls.append(name)
        count = int(np.prod(size))
        return np.array([self.values.pop(0) for _ in range(count)]).reshape(size)

    def random(self, size):
        return self._take("random", size)

    def standard_exponential(self, size):
        return self._take("standard_exponential", size)


def test_limit_batch_start_validation():
    sample_limit_batch(np.array([0.0, 3.5]), stream(30, 0))
    sample_limit_batch(np.array([]), stream(30, 0))
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            sample_limit_batch(np.array([1.0, bad]), stream(30, 0))


def test_limit_step_algebra():
    # the increments X = 1, 2 are drawn first as one array, then the
    # uniforms u = 0.5, 0 as one array, so U = 1 - u = 0.5, 1: a u of 0
    # gives U = 1 and is not redrawn
    rng = ScriptedRNG([1.0, 2.0, 0.5, 0.0])
    out = sample_limit_batch(np.array([2.0, 0.0]), rng)
    assert rng.calls == ["standard_exponential", "random"]
    assert rng.values == []
    assert out.tolist() == [1.5, 2.0]


def test_limit_batch_draws_per_entry():
    # one increment and one damping factor per entry, in C order, so equal
    # starts in different rows of a 2-D array still move apart
    for start in (np.ones((3, 3)), np.linspace(0.0, 3.0, 7)):
        out = sample_limit_batch(start, stream(0, 0))
        rng = stream(0, 0)
        x = exp_inverse(rng, start.size)
        u = rng.random(start.size)
        assert out.shape == start.shape
        assert np.array_equal(out.ravel(), (start.ravel() + x) * (1.0 - u))
        assert np.unique(out).size == out.size


def test_stationarity_preserved():
    rng = stream(32, 0)
    xi = exp_inverse(rng, 100_000)
    for _ in range(3):
        xi = sample_limit_batch(xi, rng)
    assert abs(xi.mean() - 1.0) < 0.01
    assert abs((xi ** 2).mean() - 2.0) < 0.05
    rep = ks_one_sample(xi, "exp1")
    assert rep.passed, rep


def test_one_step_drift():
    # E[next | xi = x] = (x + 1) E[e^-eta] = (x + 1) / 2
    xi = np.full(100_000, 5.0)
    out = sample_limit_batch(xi, stream(33, 0))
    assert abs(out.mean() - 3.0) < 0.02


# --- the record-value law ---------------------------------------------------


def test_wn_small_laws_by_hand():
    law2 = WnLaw.build(2)
    assert law2.weights == [0, 4, 2]
    assert law2.normalizer == 6
    assert law2.pmf_exact(1) == Fraction(2, 3)
    assert law2.pmf_exact(2) == Fraction(1, 3)
    assert law2.pmf_exact(0) == 0
    assert law2.pmf_exact(3) == 0
    law3 = WnLaw.build(3)
    assert law3.weights == [0, 15, 12, 3]
    assert law3.normalizer == 30


def test_wn_normalizer_identities_big_integer():
    for n in list(range(1, 31)) + [77, 200]:
        law = WnLaw.build(n)
        assert sum(law.weights) == law.normalizer
        assert law.normalizer == n * math.comb(2 * n, n) // 2
        # the underlying half-range identity
        assert sum(k * math.comb(2 * n, k) for k in range(0, n + 1)) \
            == n * 2 ** (2 * n - 1)


def test_wn_build_guards():
    with pytest.raises(ValueError):
        WnLaw.build(0)
    with pytest.raises(ValueError):
        WnLaw.build(10**4 + 1)
    # the whole-number rule of wn_log_pmf: a whole float builds the int law
    with pytest.raises(ValueError, match="whole n"):
        WnLaw.build(2.5)
    law = WnLaw.build(100.0)
    assert type(law.n) is int and law == WnLaw.build(100)


def test_wn_pmf_float_matches_exact():
    law = WnLaw.build(50)
    floats = law.pmf_float()
    assert floats.shape == (51,)
    for k in range(0, 51):
        assert floats[k] == pytest.approx(float(law.pmf_exact(k)), rel=1e-12)
    assert floats.sum() == pytest.approx(1.0, abs=1e-12)


def test_wn_law_is_the_rank_law_from_the_empty_state():
    # P(W_n = x) = (2x/(n+x)) prod_{k<x} (n-k)/(n+k): the rank law's product
    # form at (r, a) = (0, n), the state before the first record
    for n in range(1, 201):
        law = WnLaw.build(n)
        assert law.pmf_exact(0) == 0
        tail = Fraction(1)
        for x in range(1, n + 1):
            assert law.pmf_exact(x) == Fraction(2 * x, n + x) * tail
            tail *= Fraction(n - x, n + x)


def test_wn_law_is_the_urn_at_rank_zero():
    # RAState rejects r = 0, so a stand-in carries the empty state
    for n in range(1, 13):
        law = WnLaw.build(n)
        probs = urn_oracle_r(SimpleNamespace(r=0, a=n))
        assert probs == [law.pmf_exact(x) for x in range(1, n + 1)]


def test_wn_log_pmf_matches_float_pmf():
    n = 1000
    law = WnLaw.build(n)
    floats = law.pmf_float()[1:]
    logs = wn_log_pmf(n, np.arange(1, n + 1))
    # the double-precision pmf underflows in the far tail; compare where it
    # is comfortably representable and require the log route to agree there
    ok = floats > 1e-280
    assert ok.sum() > n // 2
    assert np.max(np.abs(np.exp(logs[ok]) / floats[ok] - 1.0)) < 1e-10
    assert np.all(logs[~ok] < -600.0)


def test_wn_log_pmf_against_mpmath_far_past_exact_weights():
    # the log tail of the rank step from (0, n) is one fused log-gamma
    # difference, so the bulk k ~ sqrt(n) keeps its digits at any n
    mpmath = pytest.importorskip("mpmath")
    for e in range(2, 21):
        n = 10**e
        k = np.unique(np.floor(np.linspace(0.1, 3.0, 16) * math.sqrt(n)))
        got = wn_log_pmf(n, k)
        with mpmath.workdps(40 + 2 * e):
            N = mpmath.mpf(n)
            for ki, gi in zip(k.tolist(), got.tolist()):
                K = mpmath.mpf(ki)
                want = (mpmath.log(2 * K / N) + 2 * mpmath.loggamma(N + 1)
                        - mpmath.loggamma(N - K + 1) - mpmath.loggamma(N + K + 1))
                assert abs(gi - float(want)) <= 1e-13, (n, ki)


def test_wn_log_pmf_support_and_scalar():
    assert wn_log_pmf(10, 0) == -math.inf
    assert wn_log_pmf(10, 11) == -math.inf
    assert wn_log_pmf(10, -3) == -math.inf
    v = wn_log_pmf(10, 4)
    assert isinstance(v, float)
    exact = float(WnLaw.build(10).pmf_exact(4))
    assert v == pytest.approx(math.log(exact), rel=1e-12)
    for n in (0, 2.5, math.nan):
        with pytest.raises(ValueError):
            wn_log_pmf(n, 1)


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_wn_local_limit_error_past_exact_weights(n):
    # c07's grid past the exact-weight cap: the bulk error falls as
    # 1/sqrt(n), with sup|rel| sqrt(n) about 4.2, 4.4 and 3.5 at n = 1e4,
    # 1e5 and 1e6
    _, rel = wn_local_limit_error(n, np.linspace(0.2, 2.0, 3601))
    assert np.all(np.isfinite(rel))
    assert np.abs(rel).max() * math.sqrt(n) < 5.0


def test_wn_local_limit_error_shape():
    s = np.array([0.01, 0.5, 1.0, 2.0])
    kept, rel = wn_local_limit_error(100, s)
    # floor(0.01 * 10) = 0: that point is dropped
    assert kept.tolist() == [0.5, 1.0, 2.0]
    assert rel.shape == (3,)
    assert np.all(np.abs(rel) < 0.5)
    # floor(2.5 * 2) = 5 lies past n = 4, where the pmf is 0: dropped too
    kept, rel = wn_local_limit_error(4, [2.5, 1.0])
    assert kept.tolist() == [1.0] and rel.shape == (1,)
    for n in (0, 2.5, math.nan):
        with pytest.raises(ValueError):
            wn_local_limit_error(n, s)


def conditional_wn(n: int, k: int) -> dict:
    """Exact law of W_n given W_n >= k, as Fractions keyed by value; the
    reference the rank transition law is checked against.

    k <= 1 returns the unconditioned law restricted to its support.
    """
    law = WnLaw.build(n)
    lo = max(k, 1)
    if lo > n:
        raise ValueError("conditioning event is empty")
    total = sum(law.weights[lo:], 0)
    return {j: Fraction(law.weights[j], total) for j in range(lo, n + 1)}


def test_conditional_wn_unconditioned_and_mass():
    law = WnLaw.build(6)
    free = conditional_wn(6, 0)
    assert set(free) == set(range(1, 7))
    for j, p in free.items():
        assert p == law.pmf_exact(j)
    for k in range(0, 7):
        cond = conditional_wn(6, k)
        assert sum(cond.values(), Fraction(0)) == 1
    with pytest.raises(ValueError):
        conditional_wn(3, 4)


def test_conditional_wn_equals_rank_transition_law():
    # conditioning the record value at n on being >= k reproduces the rank
    # transition law out of state (k-1, n), index-shifted
    assert conditional_wn(3, 2) == {2: Fraction(4, 5), 3: Fraction(1, 5)}
    from seqcoal.ra_chain import r_pmf_exact
    for n in range(3, 13):
        for k in range(2, n + 1):
            cond = conditional_wn(n, k)
            state = RAState(k - 1, n)
            for j in range(k, n + 1):
                assert cond[j] == r_pmf_exact(state, j - (k - 1))


# --- rescaled coordinates ---------------------------------------------------


def test_rescaled_observables_frozen():
    R, A = np.array([1.0, 2.0, 4.0]), np.array([2.0, 5.0, 30.0])
    xi, eta = rescaled_observables(R, A)
    assert xi.shape == eta.shape == (2,)
    assert xi[0] == pytest.approx(4.0 / 5.0, rel=1e-15)
    assert eta[0] == pytest.approx(math.log(2.5), rel=1e-15)
    assert xi[1] == pytest.approx(16.0 / 30.0, rel=1e-15)
    assert eta[1] == pytest.approx(math.log(6.0), rel=1e-15)
    xi1, eta1 = rescaled_observables(R, A, burn_in=1)
    assert xi1.tolist() == xi[1:].tolist()
    assert eta1.tolist() == eta[1:].tolist()
    # one path per column, as sample_paths_batch lays them out
    xi2, eta2 = rescaled_observables(np.stack([R, R], axis=1),
                                     np.stack([A, A], axis=1))
    assert xi2.tolist() == [[v, v] for v in xi.tolist()]
    assert eta2.tolist() == [[v, v] for v in eta.tolist()]
    for burn_in in (2, -1):
        with pytest.raises(ValueError):
            rescaled_observables(R, A, burn_in=burn_in)
    with pytest.raises(ValueError):
        rescaled_observables(R, A[:2])


def test_rescaled_observables_multiplicative_consistency():
    R, A = sample_paths_batch(1, 15, stream(34, 0))
    r, a = R[:, 0], A[:, 0]
    xi, eta = rescaled_observables(r, a)
    for i in range(xi.shape[0]):
        assert xi[i] == pytest.approx(
            (r[i + 1] ** 2 / a[i]) * math.exp(-eta[i]), rel=1e-12)
