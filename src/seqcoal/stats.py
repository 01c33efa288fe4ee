"""Verification statistics: deterministic test reports, distribution distances,
and extraction of record pairs from observed lineage lengths."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, kolmogorov

from .streams import _whole

__all__ = [
    "TestReport",
    "RecordExtraction",
    "ks_one_sample",
    "ks_two_sample",
    "chi2_gof",
    "chi2_two_sample",
    "tv_distance",
    "extract_records",
]

# Global decision threshold: a statistical check passes when p > 0.001.
PASS_THRESHOLD = 1e-3

# The chi-square tests merge bins until each expects at least this count.
_MIN_EXPECTED = 5.0

# Named reference CDFs accepted by ks_one_sample.
REFERENCE_CDFS = {
    "exp1": lambda x: -np.expm1(-np.maximum(x, 0.0)),
}


@dataclass
class TestReport:
    """Outcome of one statistical check."""

    test: str
    statistic: float
    p_value: float
    passed: bool
    n: int
    params: dict = field(default_factory=dict)


def _resolve_cdf(reference):
    if callable(reference):
        return reference, getattr(reference, "__name__", "callable")
    try:
        return REFERENCE_CDFS[reference], reference
    except KeyError:
        raise ValueError(f"unknown reference CDF {reference!r}") from None


def ks_one_sample(samples, reference) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a named or callable CDF.

    The p-value uses the asymptotic Kolmogorov distribution with the
    small-sample argument correction sqrt(n) + 0.12 + 0.11/sqrt(n).
    """
    cdf, name = _resolve_cdf(reference)
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("ks_one_sample needs at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    sqrt_n = math.sqrt(n)
    p = float(kolmogorov((sqrt_n + 0.12 + 0.11 / sqrt_n) * d))
    return TestReport("ks_one_sample", d, p, p > PASS_THRESHOLD, n,
                      {"reference": name})


def ks_two_sample(first, second) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value."""
    a = np.sort(np.asarray(first, dtype=float))
    b = np.sort(np.asarray(second, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample needs non-empty samples")
    pooled = np.concatenate([a, b])
    pooled.sort(kind="mergesort")
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(fa - fb)))
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    p = float(kolmogorov((en + 0.12 + 0.11 / en) * d))
    return TestReport("ks_two_sample", d, p, p > PASS_THRESHOLD,
                      a.size + b.size)


def _merge_bins(counts, expected):
    """Fold bins left to right until each carries expected mass >= _MIN_EXPECTED.

    A trailing underweight remainder is folded into the last emitted bin.
    Deterministic, so the same inputs always produce the same binning.
    """
    merged_obs, merged_exp = [], []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0:
        if merged_obs:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    return np.asarray(merged_obs), np.asarray(merged_exp)


def chi2_gof(counts, probs) -> TestReport:
    """Chi-square goodness of fit of observed counts against given bin
    probabilities.  Bins are merged until every expected count reaches
    _MIN_EXPECTED; degrees of freedom are merged bins minus one."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise ValueError("counts and probs must align")
    total = counts.sum()
    if total <= 0:
        raise ValueError("chi2_gof needs a positive total count")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("bin probabilities must sum to 1")
    obs, exp = _merge_bins(counts, total * probs)
    if obs.size < 2:
        raise ValueError("fewer than two bins after merging")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    df = obs.size - 1
    p = float(chdtrc(df, stat))
    return TestReport("chi2_gof", stat, p, p > PASS_THRESHOLD, int(total),
                      {"df": df, "bins": int(obs.size)})


def chi2_two_sample(counts_a, counts_b) -> TestReport:
    """Chi-square homogeneity test for two count vectors over shared bins."""
    ca = np.asarray(counts_a, dtype=float)
    cb = np.asarray(counts_b, dtype=float)
    if ca.shape != cb.shape:
        raise ValueError("count vectors must align")
    na, nb = ca.sum(), cb.sum()
    if na <= 0 or nb <= 0:
        raise ValueError("both samples must be non-empty")
    pooled = (ca + cb) / (na + nb)
    # Merge on the smaller sample's expected mass so both sides clear the floor.
    scale = min(na, nb)
    keep_obs_a, keep_exp = _merge_bins(ca, scale * pooled)
    keep_obs_b, _ = _merge_bins(cb, scale * pooled)
    exp_a = keep_exp * (na / scale)
    exp_b = keep_exp * (nb / scale)
    if keep_obs_a.size < 2:
        raise ValueError("fewer than two bins after merging")
    stat = float(np.sum((keep_obs_a - exp_a) ** 2 / exp_a)
                 + np.sum((keep_obs_b - exp_b) ** 2 / exp_b))
    df = keep_obs_a.size - 1
    p = float(chdtrc(df, stat))
    return TestReport("chi2_two_sample", stat, p, p > PASS_THRESHOLD,
                      int(na + nb), {"df": df, "bins": int(keep_obs_a.size)})


def tv_distance(p, q) -> float:
    """Total variation distance between two pmfs on a shared support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("pmfs must share a support")
    return 0.5 * float(np.sum(np.abs(p - q)))


@dataclass
class RecordExtraction:
    """Record pairs pulled from a finite window of lineage lengths.

    pairs holds every (rank, position) pair visible in the window, in record
    order; valid says how many leading pairs are trusted under the window's
    validity horizon.  Later pairs may be artifacts of truncation: an unseen
    individual beyond the window could hold a larger length.
    """

    pairs: list
    valid: int


def extract_records(values, *, first_index=2, ranks=None,
                    gamma=100.0) -> RecordExtraction:
    """Extract (rank, position) record pairs from lengths observed on a window.

    values[i] is the length of individual first_index + i.  A position is a
    record when its length beats everything later in the window; its rank is
    taken among all window values, largest first.  Output is invariant under
    any strictly increasing transform of the values.  A NaN or a repeated
    value has no rank, and raises ValueError.

    Validity horizon: with ground-truth global ranks supplied, pair i is
    certified when ranks 1..R_{i+1} are all attained inside the window, which
    rules out any unseen longer lineage disturbing it.  Without ranks, the
    heuristic keeps pairs with position <= N / gamma for window end N, and
    gamma must be > 0.
    """
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    first_index = _whole("first_index", first_index, 1)
    vals = list(values)
    n_vals = len(vals)
    if n_vals == 0:
        raise ValueError("extract_records needs at least one value")
    if any(v != v for v in vals):
        raise ValueError("NaN length value")
    if len(set(vals)) != n_vals:
        raise ValueError("duplicate length values")

    order = sorted(range(n_vals), key=lambda i: -vals[i])
    rank_of = [0] * n_vals
    for rk, idx in enumerate(order, start=1):
        rank_of[idx] = rk

    pairs = []
    best = -math.inf
    for i in range(n_vals - 1, -1, -1):
        if vals[i] > best:
            best = vals[i]
            pairs.append((rank_of[i], first_index + i))
    pairs.reverse()

    last_index = first_index + n_vals - 1
    if ranks is not None:
        ranks = list(ranks)
        if len(ranks) != n_vals:
            raise ValueError("ranks must align with values")
        attained = set(ranks)
        valid = 0
        for i in range(len(pairs) - 1):
            next_rank = pairs[i + 1][0]
            if all(r in attained for r in range(1, next_rank + 1)):
                valid = i + 1
            else:
                break
    else:
        horizon = last_index / gamma
        valid = 0
        for rk, pos in pairs:
            if pos <= horizon:
                valid += 1
            else:
                break
    return RecordExtraction(pairs, valid)
