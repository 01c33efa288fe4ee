"""Statistical test helpers and record extraction from length windows."""

import math

import numpy as np
import pytest

from seqcoal.stats import (RecordExtraction, chi2_gof, chi2_two_sample,
                           extract_records, ks_one_sample, ks_two_sample,
                           tv_distance)
from seqcoal.streams import exp_inverse, stream


def test_ks_one_sample_accepts_matching_law():
    x = exp_inverse(stream(5, 1), 20_000)
    rep = ks_one_sample(x, "exp1")
    assert rep.passed
    assert rep.n == 20_000
    assert rep.params["reference"] == "exp1"


def test_ks_one_sample_rejects_wrong_law():
    u = stream(5, 2).random(20_000)
    rep = ks_one_sample(u, "exp1")
    assert not rep.passed
    assert rep.p_value < 1e-6


def test_ks_one_sample_callable_reference():
    u = stream(5, 3).random(5_000)
    rep = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
    assert rep.passed


def test_ks_one_sample_uniform_grid_reads_one():
    # the grid (i + 1/2)/n has D = 1/(2n), so the Kolmogorov argument is
    # about 1/(2 sqrt(n)), where the survival function rounds to 1
    n = 10**6
    rep = ks_one_sample((np.arange(n) + 0.5) / n, lambda x: x)
    assert rep.p_value == 1.0


def test_ks_one_sample_unknown_name():
    with pytest.raises(ValueError):
        ks_one_sample([0.5], "cauchy")


def test_ks_two_sample_same_law_passes():
    a = exp_inverse(stream(6, 1), 10_000)
    b = exp_inverse(stream(6, 2), 10_000)
    rep = ks_two_sample(a, b)
    assert rep.passed


def test_ks_two_sample_shifted_fails():
    a = exp_inverse(stream(6, 3), 10_000)
    rep = ks_two_sample(a, a + 0.2)
    assert not rep.passed


def test_ks_two_sample_statistic_brute_force():
    a = [0.1, 0.4, 0.9]
    b = [0.2, 0.3, 0.35, 0.95]
    rep = ks_two_sample(a, b)
    # max gap between the empirical CDFs, checked on a dense grid
    grid = np.linspace(0.0, 1.0, 2001)
    fa = np.searchsorted(np.sort(a), grid, side="right") / 3
    fb = np.searchsorted(np.sort(b), grid, side="right") / 4
    assert rep.statistic == pytest.approx(np.abs(fa - fb).max(), abs=1e-12)


def test_chi2_gof_exact_counts_give_stat_zero():
    rep = chi2_gof([50, 30, 20], [0.5, 0.3, 0.2])
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.passed


def test_chi2_gof_merges_thin_bins():
    # last two expected counts are 2 and 1, below the floor of 5: after
    # merging (into the previous bin) three bins remain, df = 2
    counts = [40, 40, 17, 2, 1]
    probs = [0.4, 0.4, 0.17, 0.02, 0.01]
    rep = chi2_gof(counts, probs)
    assert rep.params["bins"] == 3
    assert rep.params["df"] == 2


def test_chi2_gof_rejects_bad_probs():
    with pytest.raises(ValueError):
        chi2_gof([10, 10], [0.5, 0.4])


def test_chi2_gof_detects_skew():
    rep = chi2_gof([900, 100], [0.5, 0.5])
    assert not rep.passed


def test_chi2_two_sample_identical_counts():
    rep = chi2_two_sample([50, 25, 25], [50, 25, 25])
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0


def test_chi2_two_sample_detects_difference():
    rep = chi2_two_sample([900, 100], [500, 500])
    assert not rep.passed


def test_tv_distance_values():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.8, 0.2], [0.5, 0.5]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])


# --- record extraction ------------------------------------------------------


def test_extract_records_frozen_window():
    # lengths of individuals 2..6; records looking from the right:
    # value 1 at position 6, value 2 at position 5, value 4 at position 4,
    # value 5 at position 2.  Ranks among the window, largest first.
    ext = extract_records([5, 3, 4, 2, 1])
    assert ext.pairs == [(1, 2), (2, 4), (4, 5), (5, 6)]


def test_extract_records_invariant_under_monotone_transform():
    vals = [5.0, 3.0, 4.0, 2.0, 1.0]
    base = extract_records(vals)
    warped = extract_records([math.exp(v) for v in vals])
    assert warped.pairs == base.pairs


def test_extract_records_pairs_strictly_increase():
    rng = stream(17, 0)
    vals = list(rng.random(200))
    ext = extract_records(vals, first_index=2)
    for (r0, a0), (r1, a1) in zip(ext.pairs, ext.pairs[1:]):
        assert r1 > r0 and a1 > a0
    for r, a in ext.pairs:
        assert a - r >= 1


def test_extract_records_rejects_ties():
    with pytest.raises(ValueError):
        extract_records([1.0, 2.0, 1.0])


@pytest.mark.parametrize("vals", [[5.0, math.nan, 4.0, 2.0], [math.nan, math.nan],
                                  [float("nan"), float("nan")], [math.nan],
                                  [1.0, float("nan")]])
def test_extract_records_rejects_nan(vals):
    # a NaN compares false with everything, so it would take some rank and
    # shift the ranks of the values around it; two distinct NaN objects
    # also pass the duplicate check
    with pytest.raises(ValueError, match="NaN"):
        extract_records(vals)


def test_extract_records_rejects_non_positive_gamma():
    # the horizon N / gamma: gamma = 0 would divide by zero, and a negative
    # gamma would certify no pair
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            extract_records([5, 3, 4, 2, 1], gamma=gamma)


def test_extract_records_certification_with_true_ranks():
    # Global ranks for the window 2..6 (1 = largest overall).  Every rank up
    # to each pair's successor rank is attained inside the window, except
    # that rank 3 is missing, so certification stops before the pair whose
    # successor needs it.
    vals = [50, 30, 40, 20, 10]
    ranks = [1, 4, 2, 5, 6]  # rank 3 lives outside the window
    ext = extract_records(vals, ranks=ranks)
    assert ext.pairs == [(1, 2), (2, 4), (4, 5), (5, 6)]
    # pair 0 -> next rank 2: ranks {1,2} attained -> certified
    # pair 1 -> next rank 4: needs rank 3, absent -> stop
    assert ext.valid == 1


def test_extract_records_certification_full_window():
    vals = [50, 30, 40, 20, 10]
    ranks = [1, 3, 2, 4, 5]
    ext = extract_records(vals, ranks=ranks)
    assert ext.valid == len(ext.pairs) - 1


def test_extract_records_position_horizon_heuristic():
    vals = list(stream(18, 0).random(5000))
    ext = extract_records(vals, first_index=2, gamma=100.0)
    horizon = (2 + 5000 - 1) / 100.0
    kept = [p for p in ext.pairs if p[1] <= horizon]
    assert ext.valid == len(kept)
    assert isinstance(ext, RecordExtraction)
