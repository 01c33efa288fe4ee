"""Cross-validation suite: every closed-form law against an independent
route, at fixed seeds, with a deterministic JSON report.

Work is split into 64 fixed chunks, each seeded by its own derived stream
and run in index order, so the report bytes depend only on the master
seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import aldous, kingman, limit_chain, ra_chain
from .stats import chi2_gof, chi2_two_sample, ks_one_sample, ks_two_sample, tv_distance
from .streams import exp_inverse, stream

__all__ = ["CriterionResult", "run_criterion", "CRITERIA"]

_CHUNKS = 64


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"id": self.number, "name": self.name, "pass": self.passed,
                "details": self.details}


def _chunk_sizes(total: int) -> list:
    base, rem = divmod(total, _CHUNKS)
    return [base + (1 if c < rem else 0) for c in range(_CHUNKS)]


def _map_chunks(fn, total: int, seed: int, *path) -> list:
    """Apply fn(rng, size) over the 64 fixed chunks, in order."""
    return [fn(stream(seed, *path, c), size)
            for c, size in enumerate(_chunk_sizes(total))]


def _round6(x) -> float:
    """Stable summary rounding for report details."""
    return float(f"{float(x):.6g}")


def _mean_test(values: np.ndarray, target: float) -> tuple:
    """(z, passed) for the sample mean of values against target: z is
    (mean - target)/se, and passed holds when the mean lies within 3 se."""
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    return (mean - target) / se, abs(mean - target) <= 3 * se


# ---------------------------------------------------------------------------
# criterion 1: law of the first record position


_A1_TOP = 50


def _a1_bin(values: np.ndarray) -> np.ndarray:
    """Counts over bins 2..50 plus a tail bin; 0 means censored past the
    cap and lands in the tail."""
    clipped = np.where((values < 2) | (values > _A1_TOP), _A1_TOP + 1, values)
    return np.bincount(clipped - 2, minlength=_A1_TOP)


def c01_first_record_law(seed: int) -> CriterionResult:
    total = 10**6
    # values 2..50 individually, then the exact tail P(A1 >= 51)
    probs = np.array([2.0 / (n * (n + 1)) for n in range(2, _A1_TOP + 1)]
                     + [2.0 / (_A1_TOP + 1)])

    closed = sum(_map_chunks(
        lambda rng, size: _a1_bin(ra_chain.sample_a1(rng, size)),
        total, seed, 1, 0))
    field = sum(_map_chunks(
        lambda rng, size: _a1_bin(aldous.batch_first_record(size, rng, _A1_TOP + 1)),
        total, seed, 1, 1))

    rep_closed = chi2_gof(closed, probs)
    rep_field = chi2_gof(field, probs)
    tv = tv_distance(closed / total, field / total)
    passed = rep_closed.passed and rep_field.passed and tv < 0.005
    return CriterionResult(1, "first_record_law", passed, {
        "p_closed": _round6(rep_closed.p_value),
        "p_field": _round6(rep_field.p_value),
        "tv": _round6(tv),
        "samples": total,
    })


# ---------------------------------------------------------------------------
# criterion 2: rank transition, urn oracle and two algebraic forms


def _log_grid_states() -> list:
    states = []
    for exp in range(1, 9):
        a = 10**exp
        for r in sorted({1, 2, a // 3, a // 2, a - 1}):
            if 1 <= r < a:
                states.append((r, a))
    return states


_Y_PROBE = (1, 2, 3, 10, 100, 1000)


def _position_grid_states() -> list:
    """(c, prior, r_next) with c = a + r_next split in half and prior
    rank 1; criteria 3 and 4 probe each at _Y_PROBE, and criterion 5
    samples the first three."""
    return [(c, ra_chain.RAState(1, c - c // 2), c // 2)
            for c in (4, 20, 100, 1000, 10**6, 10**8)]


def _x_probe(r, a) -> list:
    # The support edge is probed only when the scalar O(x) evaluations can
    # afford it; wide supports are covered by the fixed offsets.
    width = a - r
    probe = {1, 2, 3, 7, 50, 1000}
    if width <= 2000:
        probe.add(width)
    return sorted(x for x in probe if 1 <= x <= width)


def c02_rank_transition_exact(seed: int) -> CriterionResult:
    exact_states = 0
    for a in range(2, 13):
        for r in range(1, a):
            state = ra_chain.RAState(r, a)
            oracle = ra_chain.urn_oracle_r(state)
            closed = [ra_chain.r_pmf_exact(state, x) for x in range(1, a - r + 1)]
            if oracle != closed:
                return CriterionResult(2, "rank_transition_exact", False, {
                    "mismatch_state": [r, a]})
            if sum(oracle, Fraction(0)) != 1:
                return CriterionResult(2, "rank_transition_exact", False, {
                    "not_normalized": [r, a]})
            exact_states += 1

    worst = 0.0
    checked = 0
    for r, a in _log_grid_states():
        state = ra_chain.RAState(r, a)
        for x in _x_probe(r, a):
            p1 = ra_chain.r_pmf(state, x, form="product")
            p2 = ra_chain.r_pmf(state, x, form="binomial")
            if p1 > 0.0:
                worst = max(worst, abs(p1 - p2) / p1)
            checked += 1
    passed = worst <= 1e-12
    return CriterionResult(2, "rank_transition_exact", passed, {
        "exact_states": exact_states,
        "grid_points": checked,
        "max_form_rel_diff": _round6(worst),
    })


# ---------------------------------------------------------------------------
# criterion 3: position transition, urn oracle and two algebraic forms


_Y_CUTOFF = 64


def c03_position_transition_exact(seed: int) -> CriterionResult:
    states = 0
    for c in range(3, 1001):
        r_next = c // 3 + 1
        a = c - r_next
        if a < 2:
            continue
        prior = ra_chain.RAState(1, a)
        probs, tail = ra_chain.urn_oracle_a(prior, r_next, _Y_CUTOFF)
        for y in range(1, _Y_CUTOFF + 1):
            if probs[y - 1] != ra_chain.a_pmf_exact(prior, r_next, y):
                return CriterionResult(3, "position_transition_exact", False, {
                    "mismatch": [a, r_next, y]})
        if tail != ra_chain.a_tail_exact(prior, r_next, _Y_CUTOFF + 1):
            return CriterionResult(3, "position_transition_exact", False, {
                "tail_mismatch": [a, r_next]})
        states += 1

    worst = 0.0
    for _, prior, r_next in _position_grid_states():
        for y in _Y_PROBE:
            p1 = ra_chain.a_pmf(prior, r_next, y, form="closed")
            p2 = ra_chain.a_pmf(prior, r_next, y, form="product")
            worst = max(worst, abs(p1 - p2) / p1)
    passed = worst <= 1e-12
    return CriterionResult(3, "position_transition_exact", passed, {
        "oracle_states": states,
        "max_form_rel_diff": _round6(worst),
    })


# ---------------------------------------------------------------------------
# criterion 4: tail identities on the same grids


def c04_tail_identities(seed: int) -> CriterionResult:
    worst_diff = 0.0
    worst_sum = 0.0
    for r, a in _log_grid_states():
        state = ra_chain.RAState(r, a)
        probes = _x_probe(r, a)
        # tails[x - 1] = r_tail(state, x), bit for bit (see _ratio_product)
        tails = ra_chain.r_tail_vector(r, a, max_x=probes[-1]).tolist()
        for x in probes:
            diff = tails[x - 1] - tails[x]
            worst_diff = max(worst_diff, abs(diff - ra_chain.r_pmf(state, x)))
        if a <= 10**4:
            pmf = ra_chain.r_pmf_vector(r, a)
            tails = ra_chain.r_tail_vector(r, a)
            partial = np.cumsum(pmf)
            total_err = np.abs(partial + tails[1:] - 1.0).max()
            worst_sum = max(worst_sum, float(total_err))
        else:
            head = min(1000, a - r)
            pmf_head = ra_chain.r_pmf_vector(r, a, max_x=head)
            acc = math.fsum(pmf_head.tolist())
            worst_sum = max(worst_sum,
                            abs(acc + ra_chain.r_tail(state, head + 1) - 1.0))

    for _, prior, r_next in _position_grid_states():
        for y in _Y_PROBE:
            diff = (ra_chain.a_tail(prior, r_next, y)
                    - ra_chain.a_tail(prior, r_next, y + 1))
            worst_diff = max(worst_diff,
                             abs(diff - ra_chain.a_pmf(prior, r_next, y)))
        acc = math.fsum(
            ra_chain.a_pmf_vector(prior.r, prior.a, r_next, 1000).tolist())
        worst_sum = max(worst_sum,
                        abs(acc + ra_chain.a_tail(prior, r_next, 1001) - 1.0))

    passed = worst_diff <= 1e-12 and worst_sum <= 1e-12
    return CriterionResult(4, "tail_identities", passed, {
        "max_tail_minus_pmf": _round6(worst_diff),
        "max_sum_defect": _round6(worst_sum),
    })


# ---------------------------------------------------------------------------
# criterion 5: sampler frequencies against exact pmfs


def c05_sampler_frequencies(seed: int) -> CriterionResult:
    """The array samplers, each uniform inverted exactly; the scalar
    samplers are pinned to them draw for draw in the unit tests."""
    total = 10**6
    details = {}
    passed = True

    for idx, (r, a) in enumerate(((1, 3), (2, 7), (5, 40))):
        def draw(rng, size, r=r, a=a):
            draws = ra_chain.sample_r_next_batch(r, a, rng, size)
            return np.bincount(draws - r - 1, minlength=a - r)
        counts = sum(_map_chunks(draw, total, seed, 5, idx))
        rep = chi2_gof(counts, ra_chain.r_pmf_vector(r, a))
        details[f"p_rank_{r}_{a}"] = _round6(rep.p_value)
        passed = passed and rep.passed

    cutoff = 200
    for idx, (c_val, prior, r_next) in enumerate(_position_grid_states()[:3]):
        def draw(rng, size, c_val=c_val):
            y = ra_chain._position_offsets(np.full(size, float(c_val)), rng)
            return np.bincount(np.minimum(y, cutoff + 1).astype(np.int64) - 1,
                               minlength=cutoff + 1)
        counts = sum(_map_chunks(draw, total, seed, 5, 10 + idx))
        probs = np.append(
            ra_chain.a_pmf_vector(prior.r, prior.a, r_next, cutoff),
            ra_chain.a_tail(prior, r_next, cutoff + 1))
        rep = chi2_gof(counts, probs)
        details[f"p_position_c{c_val}"] = _round6(rep.p_value)
        passed = passed and rep.passed

    details["draws_per_state"] = total
    return CriterionResult(5, "sampler_frequencies", passed, details)


# ---------------------------------------------------------------------------
# criterion 6: joint second-record law, exact chain against the stick field


_JOINT_CAP = 50


def _joint_key(r, a):
    return r * (_JOINT_CAP + 1) + a


def _chain_joint_chunk(rng, size) -> np.ndarray:
    a1 = ra_chain.sample_a1(rng, size)
    r2 = np.zeros(size, dtype=np.int64)
    for a_val in range(2, _JOINT_CAP + 1):
        sel = np.flatnonzero(a1 == a_val)
        if sel.size:
            r2[sel] = ra_chain.sample_r_next_batch(1, a_val, rng, sel.size)
    keep = (a1 >= 2) & (a1 <= _JOINT_CAP)
    y = ra_chain._position_offsets((a1 + r2).astype(float), rng)
    a2 = a1 + y.astype(np.int64)
    keep &= a2 <= _JOINT_CAP
    return np.bincount(_joint_key(r2[keep], a2[keep]),
                       minlength=(_JOINT_CAP + 1) * (_JOINT_CAP + 1))


def _field_joint_chunk(rng, size) -> np.ndarray:
    counts = np.zeros((_JOINT_CAP + 1) * (_JOINT_CAP + 1), dtype=np.int64)
    for _ in range(size):
        # the fields share the chunk's stream, each read to its end by
        # identify_ra before the next one is made
        field = aldous.StickField(rng)
        pairs = aldous.identify_ra(field, 2, max_individuals=64, max_sticks=64)
        if len(pairs) == 2 and pairs[1].a <= _JOINT_CAP:
            counts[_joint_key(pairs[1].r, pairs[1].a)] += 1
    return counts


def c06_cross_route_joint(seed: int) -> CriterionResult:
    total = 10**5
    chain = sum(_map_chunks(_chain_joint_chunk, total, seed, 6, 0))
    field = sum(_map_chunks(_field_joint_chunk, total, seed, 6, 1))
    support = np.flatnonzero((chain > 0) | (field > 0))
    rep = chi2_two_sample(chain[support], field[support])
    return CriterionResult(6, "cross_route_joint", rep.passed, {
        "p_two_sample": _round6(rep.p_value),
        "kept_chain": int(chain.sum()),
        "kept_field": int(field.sum()),
        "support_states": int(support.size),
    })


# ---------------------------------------------------------------------------
# criterion 7: record-value law summaries


def c07_record_value_law(seed: int) -> CriterionResult:
    for n in range(1, 201):
        lhs = sum(k * math.comb(2 * n, k) for k in range(n + 1))
        if lhs != n * 2**(2 * n - 1):
            return CriterionResult(7, "record_value_law", False, {
                "identity_failed_at": n})
        law = limit_chain.WnLaw.build(n)
        if sum(law.weights) != law.normalizer:
            return CriterionResult(7, "record_value_law", False, {
                "normalizer_failed_at": n})

    n = 10**4
    law = limit_chain.WnLaw.build(n)
    # normalizer against its n -> inf asymptotic, through logs
    log_exact = math.log(n) + (math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1)) - math.log(2)
    log_asym = 0.5 * math.log(n) - math.log(2 * math.sqrt(math.pi)) + 2 * n * math.log(2)
    ratio_err = abs(math.exp(log_exact - log_asym) - 1.0)

    s_grid = np.linspace(0.2, 2.0, 3601)
    _, rel = limit_chain.wn_local_limit_error(n, s_grid)
    local_sup = float(np.abs(rel).max())

    pmf = law.pmf_float()
    cdf = np.cumsum(pmf)
    k = np.arange(1, n + 1)
    target = -np.expm1(-(k.astype(float) ** 2) / n)
    ks_d = float(np.maximum(np.abs(cdf[1:] - target),
                            np.abs(cdf[:-1] - target)).max())

    passed = ratio_err <= 0.01 and local_sup <= 0.05 and ks_d <= 0.02
    return CriterionResult(7, "record_value_law", passed, {
        "identity_range": 200,
        "normalizer_rel_err": _round6(ratio_err),
        "local_limit_sup": _round6(local_sup),
        "ks_w2_exp1": _round6(ks_d),
    })


# ---------------------------------------------------------------------------
# criterion 8: stationarity of the limit chain


def _limit_pair_chunk(rng, size) -> tuple:
    """Stationary starts xi0 ~ Exp(1) and one limit step from each."""
    xi0 = exp_inverse(rng, size)
    return xi0, limit_chain.sample_limit_batch(xi0, rng)


def c08_limit_stationarity(seed: int) -> CriterionResult:
    total = 10**6
    xi1 = np.concatenate([p[1] for p in _map_chunks(
        _limit_pair_chunk, total, seed, 8, 0)])

    details = {}
    passed = True
    for k in range(1, 5):
        z, ok = _mean_test(xi1 ** k, math.factorial(k))
        details[f"moment_{k}_z"] = _round6(z)
        passed = passed and ok

    rep = ks_one_sample(xi1, "exp1")
    details["ks_p"] = _round6(rep.p_value)
    passed = passed and rep.passed

    for idx, x0 in enumerate((0.0, 1.0, 5.0)):
        def cond(rng, size, x0=x0):
            return limit_chain.sample_limit_batch(np.full(size, x0), rng)
        draws = np.concatenate(_map_chunks(cond, total, seed, 8, 1 + idx))
        z, ok = _mean_test(draws, (x0 + 1.0) / 2.0)
        details[f"drift_x{idx}_z"] = _round6(z)
        passed = passed and ok

    return CriterionResult(8, "limit_stationarity", passed, details)


# ---------------------------------------------------------------------------
# criteria 9 and 10: convergence of the rescaled chain, and tightness


def c09_rescaled_convergence(seed: int) -> CriterionResult:
    total = 10**5
    steps = 26  # states 1..27; the pairs after a burn-in of 24 are at 26, 27

    def chunk(rng, size):
        R, A = ra_chain.sample_paths_batch(size, steps, rng, start=(1, 2))
        xi, eta = limit_chain.rescaled_observables(R, A, burn_in=24)
        return xi[0], xi[1], eta[0]

    parts = _map_chunks(chunk, total, seed, 9, 0)
    xi_a = np.concatenate([p[0] for p in parts])
    xi_b = np.concatenate([p[1] for p in parts])
    eta = np.concatenate([p[2] for p in parts])

    d_xi = ks_one_sample(xi_a, "exp1").statistic
    d_eta = ks_one_sample(eta, "exp1").statistic

    rho_chain = float(np.corrcoef(xi_a, xi_b)[0, 1])
    sig_chain = (1.0 - rho_chain**2) / math.sqrt(total)

    limit_total = 10**6
    lp = _map_chunks(_limit_pair_chunk, limit_total, seed, 9, 1)
    l0 = np.concatenate([p[0] for p in lp])
    l1 = np.concatenate([p[1] for p in lp])
    rho_limit = float(np.corrcoef(l0, l1)[0, 1])
    sig_limit = (1.0 - rho_limit**2) / math.sqrt(limit_total)

    sigma = math.hypot(sig_chain, sig_limit)
    corr_ok = abs(rho_chain - rho_limit) <= 3.0 * sigma
    passed = d_xi <= 0.02 and d_eta <= 0.02 and corr_ok
    return CriterionResult(9, "rescaled_convergence", passed, {
        "ks_xi": _round6(d_xi),
        "ks_eta": _round6(d_eta),
        "corr_chain": _round6(rho_chain),
        "corr_limit": _round6(rho_limit),
        "corr_sigma": _round6(sigma),
    })


def c10_rank_tightness(seed: int) -> CriterionResult:
    total = 10**5
    steps = 29  # states 1..30

    def chunk(rng, size):
        R, A = ra_chain.sample_paths_batch(size, steps, rng, start=(1, 2))
        return (R / np.sqrt(A)).sum(axis=1)

    parts = _map_chunks(chunk, total, seed, 10, 0)
    sums = np.zeros(steps + 1)
    for i in range(steps + 1):
        sums[i] = math.fsum(float(p[i]) for p in parts)
    means = sums / total
    passed = bool(np.all(means <= 3.0))
    return CriterionResult(10, "rank_tightness", passed, {
        "max_mean": _round6(means.max()),
        "per_step": [_round6(v) for v in means],
    })


# ---------------------------------------------------------------------------
# criterion 11: three constructions of the same coalescent


_MRCA_N = 10
_MRCA_MEAN = 2.0 * (1.0 - 1.0 / _MRCA_N)


def _direct_tree(rng) -> kingman.Trajectory:
    return kingman.simulate_kingman(_MRCA_N, rng)


def _recursive_tree(rng) -> kingman.Trajectory:
    return kingman.build_pebls(_MRCA_N, rng)[1]


def _reconstructed_tree(rng) -> kingman.Trajectory:
    return kingman.reconstruct_from_pebls(kingman.build_pebls(_MRCA_N, rng)[0],
                                          rng)


# module-level builders, so a chunk callable pickles by reference
_MRCA_ROUTES = {"direct": _direct_tree, "recursive": _recursive_tree,
                "reconstructed": _reconstructed_tree}


def _mrca_chunk(build, rng, size) -> np.ndarray:
    """MRCA times of `size` trajectories, each from build(rng)."""
    return np.fromiter((kingman.time_to_mrca(build(rng)) for _ in range(size)),
                       dtype=float, count=size)


def c11_construction_equivalence(seed: int) -> CriterionResult:
    total = 10**5
    samples = {}
    details = {}
    passed = True
    for idx, (name, build) in enumerate(_MRCA_ROUTES.items()):
        vals = np.concatenate(_map_chunks(
            functools.partial(_mrca_chunk, build), total, seed, 11, idx))
        samples[name] = vals
        z, ok = _mean_test(vals, _MRCA_MEAN)
        details[f"mean_{name}"] = _round6(vals.mean())
        details[f"z_{name}"] = _round6(z)
        passed = passed and ok

    names = list(_MRCA_ROUTES)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rep = ks_two_sample(samples[names[i]], samples[names[j]])
            details[f"ks_p_{names[i]}_{names[j]}"] = _round6(rep.p_value)
            passed = passed and rep.passed
    return CriterionResult(11, "construction_equivalence", passed, details)


# ---------------------------------------------------------------------------


CRITERIA = {
    1: c01_first_record_law,
    2: c02_rank_transition_exact,
    3: c03_position_transition_exact,
    4: c04_tail_identities,
    5: c05_sampler_frequencies,
    6: c06_cross_route_joint,
    7: c07_record_value_law,
    8: c08_limit_stationarity,
    9: c09_rescaled_convergence,
    10: c10_rank_tightness,
    11: c11_construction_equivalence,
}


def run_criterion(number: int, seed: int) -> CriterionResult:
    return CRITERIA[number](seed)
