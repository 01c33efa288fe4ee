"""Record-chain laws: closed forms vs exact rationals, urn oracles, samplers."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from seqcoal import limit_chain, ra_chain, verify
from seqcoal.aldous import (StickField, batch_first_record, identify_ra,
                            partition_at)
from seqcoal.kingman import (PeblsSequence, Trajectory, build_pebls,
                             simulate_kingman)
from seqcoal.numerics import log_gamma_diff
from seqcoal.ra_chain import (RAState, a_pmf, a_pmf_exact, a_pmf_vector,
                              a_tail, a_tail_exact, r_pmf, r_pmf_exact,
                              r_pmf_vector, r_tail, r_tail_exact, r_tail_vector,
                              sample_a1, sample_a_next, sample_paths_batch,
                              sample_r_next, sample_r_next_batch, urn_oracle_a,
                              urn_oracle_r)
from seqcoal.stats import chi2_gof, extract_records, ks_one_sample
from seqcoal.streams import nonzero_uniform, stream


class ScriptedRNG:
    """Returns pre-chosen uniforms in order; fails loudly when exhausted."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        shape = tuple(np.atleast_1d(size))  # an int or a tuple, as numpy
        values = [self.values.pop(0) for _ in range(math.prod(shape))]
        return np.array(values).reshape(shape)


def test_state_validation():
    RAState(1, 2)
    RAState(5, 6)
    with pytest.raises(ValueError):
        RAState(0, 5)
    with pytest.raises(ValueError):
        RAState(3, 3)
    # whole numbers only: ints of any size, numpy integers and integral
    # floats pass, and the state stores each coordinate as a Python int
    for r, a in ((1, 10**40), (np.int64(2), np.int64(9)), (1.0, 1e307)):
        st = RAState(r, a)
        assert (st.r, st.a) == (int(r), int(a))
        assert type(st.r) is int and type(st.a) is int
    assert RAState(1.0, 5.0).a == 5
    # (the float-continuation test builds (1.0, inf) and (1.0, nan))
    for r, a in ((1, 2.5), (1.5, 3), (math.nan, 5), (1, -math.inf)):
        with pytest.raises(ValueError):
            RAState(r, a)
    # one rule with the package's counts: r is checked first, then a
    # against r + 1, each message naming the coordinate and its minimum
    for r, a, message in ((0, 5, "r must be a whole number >= 1"),
                          (3, 3, "a must be a whole number >= 4"),
                          (2.5, 5, "r must be a whole number >= 1"),
                          (2, math.nan, "a must be a whole number >= 3")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RAState(r, a)


def _types(value):
    """The Python type of value, and of each entry of a list or tuple."""
    if isinstance(value, (list, tuple)):
        return type(value), [_types(v) for v in value]
    return type(value)


# Every scalar entry point at a small state, and at (1000, 10^7) the rank
# law's np.cumprod path and sample_r_next's guided inversion
_SCALAR_CALLS = [
    ("r_pmf", (1, 5), lambda st: r_pmf(st, 2)),
    ("r_pmf_binomial", (1, 5), lambda st: r_pmf(st, 2, form="binomial")),
    ("r_tail", (1, 5), lambda st: r_tail(st, 3)),
    ("r_pmf_exact", (1, 5), lambda st: r_pmf_exact(st, 2)),
    ("r_tail_exact", (1, 5), lambda st: r_tail_exact(st, 3)),
    ("a_pmf", (1, 5), lambda st: a_pmf(st, 3, 2)),
    ("a_tail", (1, 5), lambda st: a_tail(st, 3, 2)),
    ("a_pmf_exact", (1, 5), lambda st: a_pmf_exact(st, 3, 2)),
    ("a_tail_exact", (1, 5), lambda st: a_tail_exact(st, 3, 2)),
    ("urn_oracle_r", (1, 5), urn_oracle_r),
    ("urn_oracle_a", (1, 5), lambda st: urn_oracle_a(st, 3, 4)),
    ("sample_r_next", (1, 5), lambda st: sample_r_next(st, stream(29, 0))),
    ("sample_a_next", (1, 5), lambda st: sample_a_next(st, 3, stream(29, 1))),
    ("r_pmf", (1000, 10**7), lambda st: r_pmf(st, 500)),
    ("r_tail", (1000, 10**7), lambda st: r_tail(st, 500)),
    ("sample_r_next", (1000, 10**7),
     lambda st: sample_r_next(st, stream(29, 2))),
]


@pytest.mark.parametrize("state,call", [c[1:] for c in _SCALAR_CALLS],
                         ids=[f"{n}-{r}-{a}" for n, (r, a), _ in _SCALAR_CALLS])
def test_scalar_api_is_exact_integer(state, call):
    # RAState stores Python ints, so a state given as ints, as np.int64 or
    # as integral floats gives each scalar law, oracle and sampler the same
    # value of the same Python type
    r, a = state
    want = call(RAState(r, a))
    for st in (RAState(np.int64(r), np.int64(a)), RAState(float(r), float(a))):
        got = call(st)
        assert got == want
        assert _types(got) == _types(want)


# Every scalar function with a step argument, called with that argument set
# to v at RAState(1, 5), where r_next = 3, x = 3 and y = 3 lie inside each
# support
_STEP_CALLS = [
    ("r_pmf-x", lambda st, v: r_pmf(st, v)),
    ("r_pmf_binomial-x", lambda st, v: r_pmf(st, v, form="binomial")),
    ("r_tail-x", lambda st, v: r_tail(st, v)),
    ("r_pmf_exact-x", lambda st, v: r_pmf_exact(st, v)),
    ("r_tail_exact-x", lambda st, v: r_tail_exact(st, v)),
    ("a_pmf-r_next", lambda st, v: a_pmf(st, v, 2)),
    ("a_pmf-y", lambda st, v: a_pmf(st, 3, v)),
    ("a_pmf_product-r_next", lambda st, v: a_pmf(st, v, 2, form="product")),
    ("a_pmf_product-y", lambda st, v: a_pmf(st, 3, v, form="product")),
    ("a_pmf_vector-r_next", lambda st, v: a_pmf_vector(st.r, st.a, v, 4).tolist()),
    ("a_tail-r_next", lambda st, v: a_tail(st, v, 2)),
    ("a_tail-y", lambda st, v: a_tail(st, 3, v)),
    ("a_pmf_exact-r_next", lambda st, v: a_pmf_exact(st, v, 2)),
    ("a_pmf_exact-y", lambda st, v: a_pmf_exact(st, 3, v)),
    ("a_tail_exact-r_next", lambda st, v: a_tail_exact(st, v, 2)),
    ("a_tail_exact-y", lambda st, v: a_tail_exact(st, 3, v)),
    ("sample_a_next-r_next", lambda st, v: sample_a_next(st, v, stream(29, 3))),
    ("urn_oracle_a-r_next", lambda st, v: urn_oracle_a(st, v, 4)),
]


@pytest.mark.parametrize("call", [c[1] for c in _STEP_CALLS],
                         ids=[c[0] for c in _STEP_CALLS])
def test_step_arguments_are_whole_numbers(call):
    # r_next, x and y take the state's whole-number rule: a numpy integer
    # or a whole float gives the int's value of the same Python type, and
    # anything else raises ValueError
    st = RAState(1, 5)
    want = call(st, 3)
    for v in (np.int64(3), 3.0):
        got = call(st, v)
        assert got == want
        assert _types(got) == _types(want)
    for bad in (2.5, "3", None):
        with pytest.raises(ValueError, match="whole number"):
            call(st, bad)


_R6 = np.arange(1.0, 7.0)  # a 1-D path of six states for the burn-in row

# Every count and index argument of the package: (id, name, minimum or
# None, the call with that argument set to v and the others fixed)
_COUNT_CALLS = [
    ("r_pmf_vector-max_x", "max_x", 0, lambda v: r_pmf_vector(1, 5, max_x=v)),
    ("r_tail_vector-max_x", "max_x", 0, lambda v: r_tail_vector(1, 5, max_x=v)),
    ("a_pmf_vector-max_y", "max_y", 0, lambda v: a_pmf_vector(1, 5, 3, v)),
    ("urn_oracle_a-y_cutoff", "y_cutoff", 1,
     lambda v: urn_oracle_a(RAState(1, 5), 3, v)),
    ("sample_paths_batch-num_paths", "num_paths", 0,
     lambda v: sample_paths_batch(v, 2, stream(29, 4))),
    ("sample_paths_batch-steps", "steps", 0,
     lambda v: sample_paths_batch(2, v, stream(29, 4))),
    ("sample_r_next_batch-size", "size", 0,
     lambda v: sample_r_next_batch(1, 5, stream(29, 5), v)),
    ("sample_a1-size", "size", 0, lambda v: sample_a1(stream(29, 6), v)),
    ("WnLaw.build-n", "n", 1, limit_chain.WnLaw.build),
    ("wn_pmf_float-n", "n", 1, limit_chain._wn_pmf_float),
    ("wn_log_pmf-n", "n", 1, lambda v: limit_chain.wn_log_pmf(v, [1, 2, 3])),
    ("wn_local_limit_error-n", "n", 1,
     lambda v: limit_chain.wn_local_limit_error(v, [0.5, 1.0])),
    ("rescaled_observables-burn_in", "burn_in", 0,
     lambda v: limit_chain.rescaled_observables(_R6, _R6 + 2.0, burn_in=v)),
    ("WnLaw.pmf_exact-k", "k", None, limit_chain.WnLaw.build(5).pmf_exact),
    ("simulate_kingman-n", "n", 1, lambda v: simulate_kingman(v, stream(29, 7))),
    ("build_pebls-n_max", "n_max", 1, lambda v: build_pebls(v, stream(29, 8))),
    ("Trajectory-n", "n", 1, Trajectory),
    ("PeblsSequence-n_max", "n_max", 1, lambda v: PeblsSequence(v, [1.0, 2.0])),
    ("identify_ra-max_pairs", "max_pairs", 1,
     lambda v: identify_ra(StickField(stream(29, 13)), v)),
    ("identify_ra-max_individuals", "max_individuals", 1,
     lambda v: identify_ra(StickField(stream(29, 13)), 3, max_individuals=v)),
    ("identify_ra-max_sticks", "max_sticks", 1,
     lambda v: identify_ra(StickField(stream(29, 13)), 3, max_sticks=v)),
    ("batch_first_record-replicates", "replicates", 0,
     lambda v: batch_first_record(v, stream(29, 10), 51)),
    ("batch_first_record-cap", "cap", 2,
     lambda v: batch_first_record(4, stream(29, 10), v)),
    ("partition_at-n", "n", 1,
     lambda v: partition_at(StickField(stream(29, 11), height_tol=1e-2), 0.5, v)),
    ("stick_height-j", "j", 1,
     lambda v: StickField(stream(29, 12), height_tol=1e-2).stick_height(v)),
    ("extract_records-first_index", "first_index", 1,
     lambda v: extract_records([0.5, 2.0, 1.0], first_index=v)),
    ("stream-master_seed", "master_seed", 0, lambda v: stream(v).random(2)),
    ("stream-path", "path entry", 0, lambda v: stream(29, v).random(2)),
]


# Rows whose argument defaults to None: no cap, or sample_a1's scalar draw
_NONE_DEFAULTS = {"r_pmf_vector-max_x", "r_tail_vector-max_x", "sample_a1-size",
                  "identify_ra-max_individuals", "identify_ra-max_sticks"}


@pytest.mark.parametrize("row,name,low,call", _COUNT_CALLS,
                         ids=[c[0] for c in _COUNT_CALLS])
def test_count_arguments_are_whole_numbers(row, name, low, call):
    # one whole-number rule for every count: 3, np.int64(3), 3.0 and
    # Fraction(3) give the same result, and a fraction, NaN, inf, a string,
    # None (but where it is the default) or a count below its minimum
    # raises ValueError naming the argument and the minimum
    want = call(3)
    for v in (np.int64(3), 3.0, Fraction(3)):
        np.testing.assert_equal(call(v), want)
    suffix = "" if low is None else f" >= {low}"
    below = () if low is None else (low - 1,)
    none = () if row in _NONE_DEFAULTS else (None,)
    for bad in (2.5, math.nan, math.inf, "3") + none + below:
        with pytest.raises(ValueError,
                           match=f"^{name} must be a whole number{suffix}$"):
            call(bad)


# --- the first record -------------------------------------------------------


def test_sample_a1_inversion_and_zero_redraw():
    assert sample_a1(ScriptedRNG([0.5])) == 4
    assert sample_a1(ScriptedRNG([0.25])) == 8
    assert sample_a1(ScriptedRNG([0.0, 0.5])) == 4
    assert sample_a1(ScriptedRNG([0.9])) == 2


def test_nonzero_uniform_redraws_zeros():
    assert nonzero_uniform(ScriptedRNG([0.0, 0.0, 0.25])) == 0.25
    got = nonzero_uniform(ScriptedRNG([0.5, 0.0, 0.75, 0.0, 0.0, 0.125]), 3)
    assert got.tolist() == [0.5, 0.125, 0.75]
    # a 2-D block: its zeros are redrawn at their flat (row-major)
    # positions, all of them in one call, until none is left; the Kingman
    # builders' flat blocks take the same rule (tests/test_kingman.py)
    rng = ScriptedRNG([0.5, 0.0, 0.75, 0.25, 0.0, 0.125, 0.375, 0.0, 0.625])
    got = nonzero_uniform(rng, (3, 2))
    assert got.tolist() == [[0.5, 0.375], [0.75, 0.25], [0.625, 0.125]]
    assert rng.values == []


def test_sample_a1_array():
    vals = sample_a1(stream(20, 0), size=50_000)
    assert vals.dtype == np.int64
    assert vals.min() >= 2
    counts = np.zeros(50, dtype=np.int64)
    for v in vals:
        counts[min(int(v), 51) - 2] += 1
    probs = [2.0 / (n * (n + 1.0)) for n in range(2, 51)]
    probs.append(1.0 - math.fsum(probs))
    rep = chi2_gof(counts, probs)
    assert rep.passed, rep


# --- rank transition --------------------------------------------------------


def test_r_pmf_smallest_states():
    assert r_pmf(RAState(1, 2), 1) == 1.0
    assert r_pmf(RAState(1, 3), 1) == pytest.approx(0.8)
    assert r_pmf(RAState(1, 3), 2) == pytest.approx(0.2)
    assert r_pmf(RAState(1, 3), 0) == 0.0
    assert r_pmf(RAState(1, 3), 3) == 0.0
    with pytest.raises(ValueError):
        r_pmf(RAState(1, 3), 1, form="magic")


def test_r_pmf_exact_matches_urn_enumeration():
    # the urn oracle evolves subinterval categories directly; no factor of
    # the closed form appears in it
    for r in range(1, 8):
        for a in range(r + 1, 10):
            law = urn_oracle_r(RAState(r, a))
            assert sum(law, Fraction(0)) == 1
            for x, want in enumerate(law, start=1):
                assert r_pmf_exact(RAState(r, a), x) == want
    with pytest.raises(ValueError):
        urn_oracle_r(RAState(1, 40))


def test_r_pmf_forms_agree():
    for st in [RAState(1, 5), RAState(3, 17), RAState(10, 200)]:
        for x in range(1, st.a - st.r + 1):
            p = r_pmf(st, x, form="product")
            b = r_pmf(st, x, form="binomial")
            assert b == pytest.approx(p, rel=1e-12)
    # past the exact-binomial range the falling-factorial branch takes over
    st = RAState(3, 10**5)
    for x in (1, 2, 7, 40):
        assert r_pmf(st, x, form="binomial") == pytest.approx(
            r_pmf(st, x, form="product"), rel=1e-12)


def test_r_tail_values_and_edges():
    st = RAState(2, 7)
    assert r_tail(st, 1) == 1.0
    assert r_tail(st, 0) == 1.0
    assert r_tail(st, 6) == 0.0
    assert r_tail_exact(st, 5) == Fraction(1, 715)
    assert Fraction(1, math.comb(13, 4)) == Fraction(1, 715)


def test_r_tail_binomial_ratio_identity():
    # tail(x) = C(2a-1, a-r-x) / C(2a-1, a-r-1), checked in exact arithmetic
    for r, a in [(1, 2), (1, 9), (3, 11), (7, 30), (12, 25)]:
        st = RAState(r, a)
        for x in range(1, a - r + 1):
            want = Fraction(math.comb(2 * a - 1, a - r - x),
                            math.comb(2 * a - 1, a - r - 1))
            assert r_tail_exact(st, x) == want


def test_r_vector_forms_match_scalars():
    r, a = 3, 40
    pmf = r_pmf_vector(r, a)
    tails = r_tail_vector(r, a)
    assert pmf.shape == (a - r,)
    assert tails.shape == (a - r + 1,)
    assert tails[0] == 1.0
    assert tails[-1] == 0.0
    st = RAState(r, a)
    for x in range(1, a - r + 1):
        assert pmf[x - 1] == pytest.approx(r_pmf(st, x), rel=1e-13)
        assert tails[x - 1] == pytest.approx(r_tail(st, x), rel=1e-13)
    assert math.fsum(pmf.tolist()) == pytest.approx(1.0, abs=1e-12)
    # truncation keeps the leading entries unchanged
    head = r_pmf_vector(r, a, max_x=5)
    assert head.shape == (5,)
    assert np.array_equal(head, pmf[:5])
    assert r_tail_vector(r, a, max_x=5).shape == (6,)


def test_vector_kernels_take_whole_sizes_only():
    kernels = (lambda m: r_pmf_vector(1, 5, max_x=m),
               lambda m: r_tail_vector(1, 5, max_x=m),
               lambda m: a_pmf_vector(1, 5, 2, m))
    for kernel in kernels:
        for bad in (2.5, -1, math.nan, math.inf):
            with pytest.raises(ValueError, match="whole number >= 0"):
                kernel(bad)
        assert kernel(3.0).tolist() == kernel(3).tolist()
    # a size of 0 leaves no pmf entries, and the tail at x = 1 alone
    assert r_pmf_vector(1, 5, max_x=0).size == 0
    assert r_tail_vector(1, 5, max_x=0).tolist() == [1.0]
    assert a_pmf_vector(1, 5, 2, 0).size == 0
    # the rank tabulation refuses a support it would not fit in memory
    with pytest.raises(ValueError, match="too wide to tabulate"):
        sample_r_next_batch(1, 10**7 + 2, stream(29, 3), 1)


def test_log_tail_matches_exact_recursion():
    r, a, x = 123, 10**7, 500
    want = r_tail_exact(RAState(r, a), x)
    got = ra_chain._log_r_tail(float(r), float(a), float(x))
    ref = math.log(want.numerator) - math.log(want.denominator)
    assert got == pytest.approx(ref, rel=1e-12)


def _loop_product(start, r, a, x):
    """The rank-law product as a plain loop, one ratio at a time."""
    acc = start
    for k in range(1, x):
        acc *= (a - r - k) / (a + r + k)
    return acc


def _assert_products_match_loop(r, a, xs):
    st = RAState(r, a)
    r, a = st.r, st.a  # the state's own coordinates, Python ints
    for x in xs:
        assert r_tail(st, x) == _loop_product(1.0, r, a, x)
        pmf_start = (2.0 * r + 2.0 * x) / (a + r + x)
        assert r_pmf(st, x) == _loop_product(pmf_start, r, a, x)


@pytest.mark.parametrize("cutoff", [0, ra_chain._CUMPROD_MIN, 10**9],
                         ids=["numpy", "default", "loop"])
def test_rank_products_match_the_loop_bit_for_bit(monkeypatch, cutoff):
    # r_tail and the product-form r_pmf are the plain loop's exact bits,
    # whichever path the cutoff sends a product down
    m = ra_chain._CUMPROD_MIN
    monkeypatch.setattr(ra_chain, "_CUMPROD_MIN", cutoff)
    rng = stream(28, 0)
    for _ in range(400):
        a = int(10.0 ** rng.uniform(0.5, 9.0)) + 2
        r = int(rng.integers(1, a))
        x = int(rng.integers(1, min(a - r, 3000) + 1))
        _assert_products_match_loop(r, a, [x])
    # both sides of the default cutoff, the smallest product and the
    # support edge, where the tail is 0 and the pmf its last term
    for r, a in [(1, 10**5), (7, 2000), (999, 1000 + m + 2)]:
        _assert_products_match_loop(r, a, [2, m, m + 1, m + 2, a - r])
    # a product that spans several np.cumprod blocks
    _assert_products_match_loop(300, 10**9, [2 * ra_chain._CUMPROD_BLOCK + 5])
    # integers past 2^53, exact only in integer arithmetic, and states given
    # as floats past 2^53 and below it, which multiply exact integer ratios
    _assert_products_match_loop(5, 2**60, [2, 100, 3000])
    _assert_products_match_loop(2**53 - 200, 2**53 - 3, [2, 150, 197])
    _assert_products_match_loop(1e9, 1e20, [2, 100, 3000])
    _assert_products_match_loop(3.0, 5000.0, [2, 100, 3000, 4997])


def test_tail_criteria_details_pinned():
    # c02 and c04 evaluate r_pmf and r_tail at x up to 2000 and read no seed
    c02 = verify.run_criterion(2, 0).details
    c04 = verify.run_criterion(4, 0).details
    assert c02 == {"exact_states": 66, "grid_points": 193,
                   "max_form_rel_diff": 6.13601e-15}
    assert c04 == {"max_sum_defect": 1.9984e-15, "max_tail_minus_pmf": 1.11022e-16}


def test_limit_criteria_details_pinned():
    # c08 and c09 draw from their seed's streams; any change to a draw, to
    # the rescaling or to the limit step moves these digits
    c08 = verify.run_criterion(8, 0)
    assert c08.passed
    assert c08.details == {
        "moment_1_z": 1.01853, "moment_2_z": 1.71995,
        "moment_3_z": 1.54742, "moment_4_z": 1.00632, "ks_p": 0.24003,
        "drift_x0_z": 1.22778, "drift_x1_z": -0.384936,
        "drift_x2_z": 0.280042}
    c09 = verify.run_criterion(9, 0)
    assert c09.passed
    assert c09.details == {"ks_xi": 0.00274693, "ks_eta": 0.00181467,
                           "corr_chain": 0.5039, "corr_limit": 0.499204,
                           "corr_sigma": 0.00247591}
    # seed 2 fails the correlation gate (ROADMAP item 10)
    c09 = verify.run_criterion(9, 2)
    assert not c09.passed
    assert c09.details == {"ks_xi": 0.00273658, "ks_eta": 0.00234845,
                           "corr_chain": 0.491425, "corr_limit": 0.501602,
                           "corr_sigma": 0.00251264}


def test_field_criterion_details_pinned():
    # c06's stick fields share their chunk's stream, so any change to a
    # position draw, to the read order or to identify_ra moves these digits;
    # seed 2 gives the lowest p of seeds 0-2
    c06 = verify.run_criterion(6, 2)
    assert c06.passed
    assert c06.details == {"p_two_sample": 0.0774204, "kept_chain": 79793,
                           "kept_field": 79971, "support_states": 430}


# --- samplers ---------------------------------------------------------------


def test_sample_r_next_boundary_resolution():
    # from (1,3): tail(2) = 1/5; u equal to a tail value takes the smaller x
    assert sample_r_next(RAState(1, 3), ScriptedRNG([0.2])) == 2
    assert sample_r_next(RAState(1, 3), ScriptedRNG([0.19])) == 3
    assert sample_r_next(RAState(1, 3), ScriptedRNG([0.21])) == 2
    # forced transition when only one rank is reachable
    assert sample_r_next(RAState(1, 2), ScriptedRNG([0.77])) == 2


def _reference_inversion(r, a, log_u):
    """Plain lockstep bisection over the whole support [1, a - r]: the
    smallest x with log tail(x+1) <= log u, every lane every iteration.
    Past 2^53 the support is the floats in that range and x+1 is the next
    float above x, so every step still shrinks the interval."""
    lo = np.ones_like(r)
    hi = a - r
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        # mid lies in [lo, hi) also where lo + hi rounds up to hi
        mid = np.minimum(np.floor((lo + hi) / 2.0), np.nextafter(hi, 0.0))
        succ = np.maximum(mid + 1.0, np.nextafter(mid, np.inf))
        cond = ra_chain._log_r_tail(r, a, succ) <= log_u
        hi = np.where(open_ & cond, mid, hi)
        lo = np.where(open_ & ~cond, succ, lo)


def test_reference_inversion_returns_past_two_to_the_53():
    # at a = 1e40 the floats near the rank are spaced far apart, and a
    # step of mid + 1.0 would round back to mid; the kernel is not
    # compared with it there (it is checked against mpmath up to 1e28)
    a = np.array([1e40, 1e40, 1e40])
    r = np.array([1.0, 1e20, 1e30])
    log_u = np.log(np.array([0.3, 0.5, 0.9]))
    x = _reference_inversion(r, a, log_u)
    assert np.all((x >= 1.0) & (x <= a - r))
    # smallest float support point whose successor's tail is <= log u
    succ = np.maximum(x + 1.0, np.nextafter(x, np.inf))
    assert np.all(ra_chain._log_r_tail(r, a, succ) <= log_u)
    assert np.all((x == 1.0) | (ra_chain._log_r_tail(r, a, x) > log_u))


def test_guided_inversion_matches_reference_bisection():
    rng = stream(27, 0)
    n = 12_000
    a = np.floor(10.0 ** rng.uniform(np.log10(2.0), 12.0, n))
    # ranks log-uniform on [1, a - 1], plus the two ends of that range
    r = np.clip(np.floor(a ** rng.uniform(0.0, 1.0, n)), 1.0, a - 1.0)
    r[:400] = a[:400] - 1.0  # a - r = 1: forced, never evaluated
    r[400:800] = 1.0
    log_u = np.log(rng.random(n))
    got = ra_chain._invert_rank(r, a, log_u)
    want = _reference_inversion(r, a, log_u)
    assert np.array_equal(got, want)
    assert np.all(got[:400] == 1.0)


def _counted_inversion(monkeypatch, r, a, log_u):
    """_invert_rank's answers and the lane count of each log_gamma_diff
    call it made."""
    calls = []

    def counted(z, gap, m):
        calls.append(np.size(z))
        return log_gamma_diff(z, gap, m)

    monkeypatch.setattr(ra_chain, "log_gamma_diff", counted)
    got = ra_chain._invert_rank(r, a, log_u)
    monkeypatch.undo()
    return got, calls


def test_guided_inversion_evaluates_few_points(monkeypatch):
    rng = stream(27, 1)
    n = 2000
    a = np.floor(10.0 ** rng.uniform(9.0, 12.0, n))
    r = np.floor(np.sqrt(a * rng.exponential(1.0, n))) + 1.0
    u = rng.random(n)
    got, calls = _counted_inversion(monkeypatch, r, a, np.log(u))
    assert np.array_equal(got, _reference_inversion(r, a, np.log(u)))
    # one tail evaluation per lane: the guess and the one-step ratio settle
    # every lane here, where a bisection over the support would take about
    # 40 evaluations of every lane
    assert calls == [n]


def _chain_band(rng, lo, hi, n):
    """n lanes with a log-uniform on [10^lo, 10^hi) and ranks near
    sqrt(a Exp(1)), the chain's own, and their ln u."""
    a = np.floor(10.0 ** rng.uniform(lo, hi, n))
    r = np.minimum(np.floor(np.sqrt(a * rng.exponential(1.0, n))) + 1.0,
                   a - 1.0)
    return r, a, np.log(rng.random(n))


def test_guided_inversion_settles_by_the_first_point(monkeypatch):
    # the first point settles every lane of these bands with one tail
    # evaluation: its answer is t or t + 1 (_settle), or below 2^53 the
    # t - 1 that one more one-step ratio reaches; past 2^53 that step is
    # not taken, and up to 1e20 no lane here needs it
    rng = stream(27, 4)
    n = 20_000
    for lo, hi in ((1.0, 3.0), (3.0, 5.0), (5.0, 9.0), (9.0, 15.0),
                   (15.0, 20.0)):
        r, a, log_u = _chain_band(rng, lo, hi, n)
        got, calls = _counted_inversion(monkeypatch, r, a, log_u)
        assert np.array_equal(got, _reference_inversion(r, a, log_u))
        assert calls == [n], (lo, calls)


def test_guided_inversion_settles_by_the_second_point(monkeypatch):
    # past 2^53 a lane that the first point leaves open takes a Newton step
    # on the log tail; one evaluation there, on those lanes only, settles
    # every lane of this band.  Past about 1e22 a u can lie within the
    # tail's rounding of a tail value, where the kernel and the reference
    # bisection may part by one rank (ROADMAP item 9); this band has none
    rng = stream(27, 4)
    n = 20_000
    r, a, log_u = _chain_band(rng, 20.0, 26.0, n)
    got, calls = _counted_inversion(monkeypatch, r, a, log_u)
    assert np.array_equal(got, _reference_inversion(r, a, log_u))
    assert len(calls) == 2 and calls[0] == n and 1 <= calls[1] < 20, calls


def test_guided_inversion_forced_lanes_leave_the_open_ones_alone(monkeypatch):
    # lanes with a - r = 1 take x = 1 and never reach the kernel, so the
    # open lanes among them draw what they draw alone, to the bit, from
    # log_gamma_diff calls on the same lanes in the same order; past about
    # a = 1e28 one rank step is within the tail's rounding and some lanes
    # gallop on from the second point, so every stage of the search runs
    rng = stream(27, 5)
    n = 3000
    a = np.floor(10.0 ** rng.uniform(1.0, 40.0, n))
    r = np.minimum(np.floor(np.sqrt(a * rng.exponential(1.0, n))) + 1.0,
                   a - 2.0)
    log_u = np.log(rng.random(n))
    # forced lanes below 2^53, where a - 1 is exact
    forced = (rng.random(n) < 0.3) & (a < 2.0**53)
    mixed_r = np.where(forced, a - 1.0, r)

    def run(r, a, log_u):
        calls = []

        def counted(z, gap, m):
            calls.append(np.concatenate((z, gap, m)))
            return log_gamma_diff(z, gap, m)

        monkeypatch.setattr(ra_chain, "log_gamma_diff", counted)
        x = ra_chain._invert_rank(r, a, log_u)
        monkeypatch.undo()
        return x, calls

    mixed, mixed_calls = run(mixed_r, a, log_u)
    open_ = ~forced
    alone, alone_calls = run(r[open_], a[open_], log_u[open_])
    assert np.all(mixed[forced] == 1.0)
    assert mixed[open_].tobytes() == alone.tobytes()
    assert len(mixed_calls) == len(alone_calls) >= 3
    for got, want in zip(mixed_calls, alone_calls):
        assert got.tobytes() == want.tobytes()


def _second_point_cases(mp, sizes=(10**16, 10**18, 10**20, 10**22),
                        below=(2, 3, 4, 5)):
    """(r, a, x, ln u), one per a in sizes, r in (a/2, a/4) and k in below,
    whose answer x lies k ranks below the first point t, so that for
    k >= 2 the first point misses: ln u is the middle of the log gap
    between the exact L(x + 1) and L(x).  At r = a/2 and a/4 the
    leading-order guess overshoots by about 10% and 2% of x."""
    cases = []
    for a in sizes:
        for r in (a // 2, a // 4):
            wanted = set(below)
            x, ell = 1, mp.mpf(0)  # ell = L(x)
            while wanted:
                nxt = ell + mp.log(mp.mpf(a - r - x) / (a + r + x))
                log_u = float((ell + nxt) / 2)
                # the first point, as _invert_open takes it
                b, ae = 2.0 * r + 1.0, -a * log_u
                t = math.floor(1.0 + 2.0 * ae
                               / (b + math.sqrt(b * b + 4.0 * ae)))
                if t - x in wanted:
                    wanted.discard(t - x)
                    cases.append((r, a, x, log_u))
                x, ell = x + 1, nxt
    return cases


def test_second_point_settles_lanes_past_2_53(monkeypatch):
    # past 2^53 a lane that the first point leaves open takes the second
    # point as any other: one more log_gamma_diff call, on those lanes only,
    # settles them all, and the draw is exact
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        cases = _second_point_cases(mpmath.mp)
    assert len(cases) == 32
    r, a, x, log_u = (np.array(col, dtype=float) for col in zip(*cases))
    got, calls = _counted_inversion(monkeypatch, r, a, log_u)
    assert np.array_equal(got, x)
    assert calls == [32, 32]


def test_first_point_reaches_t_minus_1_below_2_53_only(monkeypatch):
    # an answer one rank below the first point takes no second evaluation
    # below 2^53, where L(t - 1) comes from one more one-step ratio; past
    # it, where not every rank is an exact double, that step is not taken
    # and such a lane takes the second point; both draws are exact
    mpmath = pytest.importorskip("mpmath")
    for sizes, want in (((10**12, 10**15), 1), ((10**16, 10**20), 2)):
        with mpmath.workdps(60):
            cases = _second_point_cases(mpmath.mp, sizes, below=(1,))
        assert len(cases) == 4
        r, a, x, log_u = (np.array(col, dtype=float) for col in zip(*cases))
        got, calls = _counted_inversion(monkeypatch, r, a, log_u)
        assert np.array_equal(got, x)
        assert calls == [4] * want, (sizes, calls)


def _boundary_cases(mp):
    """(r, a, x, u) with u just above the exact tail(x+1), so the draw is
    r + x, and (r, a, x + 1, u) with u just below it, so the draw is
    r + x + 1.  The margin is half the log gap to the neighbouring tail."""

    def log_tail(r, a, k):
        return (mp.loggamma(a - r) - mp.loggamma(a - r - k + 1)
                - mp.loggamma(a + r + k) + mp.loggamma(a + r + 1))

    cases = []
    for a in (10**7, 10**10, 10**12, 10**14, 10**20, 10**28):
        for r in (1, math.isqrt(a)):
            for target in (0.9, 0.5, 0.05):
                e = -a * math.log(target)
                x = int((1 - 2 * r + math.sqrt((2 * r + 1) ** 2 + 4 * e)) / 2)
                ell = [log_tail(r, a, k) for k in (x, x + 1, x + 2)]
                delta = min(ell[0] - ell[1], ell[1] - ell[2]) / 2
                cases.append((r, a, x, float(mp.exp(ell[1] + delta))))
                cases.append((r, a, x + 1, float(mp.exp(ell[1] - delta))))
    return cases


def test_boundary_draws_against_mpmath_tails():
    mpmath = pytest.importorskip("mpmath")
    # the log-gamma values reach 7e29 at a = 1e28; 40 digits past them
    with mpmath.workdps(80):
        cases = _boundary_cases(mpmath.mp)
    for r, a, x, u in cases:
        assert sample_r_next(RAState(r, a), ScriptedRNG([u])) == r + x
    r, a, x, u = (np.array(col, dtype=float) for col in zip(*cases))
    assert np.array_equal(ra_chain._invert_rank(r, a, np.log(u)), x)


def _array_draws(kind, r, a, rng, size) -> list:
    """The array form of a scalar sampler, on one uniform array."""
    if kind == "rank":
        return sample_r_next_batch(r, a, rng, size).tolist()
    if kind == "guided":
        x = ra_chain._invert_rank(np.full(size, float(r)), np.full(size, float(a)),
                                  np.log(nonzero_uniform(rng, size)))
        return [r + int(v) for v in x]
    # position: offsets y from a, with c = a + r_next
    y = ra_chain._position_offsets(np.full(size, float(a + r)), rng)
    return [int(v) for v in y]


def _scalar_draw(kind, r, a, rng):
    if kind == "position":
        return sample_a_next(RAState(1, a), r, rng) - a
    return sample_r_next(RAState(r, a), rng)


# Verify criterion 5 checks the frequencies of the array samplers only; the
# scalar samplers are pinned to them here, draw for draw on shared streams.
# Both invert each uniform exactly, so they must agree in every draw, not
# only in law.  "rank" is the scalar scan against the batch tabulation at
# the criterion's states, and (2, 9); "guided" sample_r_next past
# a = 1e6 against the lockstep kernel; "position" sample_a_next against
# _position_offsets at the criterion's c = a + r_next = 4, 20 and 100.
@pytest.mark.parametrize("kind,r,a,draws", [
    pytest.param("rank", 1, 3, 10_000, id="rank-1-3"),
    pytest.param("rank", 2, 7, 10_000, id="rank-2-7"),
    pytest.param("rank", 5, 40, 10_000, id="rank-5-40"),
    pytest.param("rank", 2, 9, 10_000, id="rank-2-9"),
    pytest.param("guided", 10**3, 10**7, 300, id="guided-1e3-1e7"),
    pytest.param("guided", 10**6, 10**12, 300, id="guided-1e6-1e12"),
    pytest.param("position", 2, 2, 10_000, id="position-c4"),
    pytest.param("position", 10, 10, 10_000, id="position-c20"),
    pytest.param("position", 50, 50, 10_000, id="position-c100"),
])
def test_sample_r_next_batch_matches_scalar_stream(kind, r, a, draws):
    array = _array_draws(kind, r, a, stream(21, r, a), draws)
    rng = stream(21, r, a)
    assert [_scalar_draw(kind, r, a, rng) for _ in range(draws)] == array


def test_sampler_criterion_details_pinned():
    # criterion 5's details at seed 0; the scalar samplers give the same counts
    assert verify.run_criterion(5, 0).details == {
        "draws_per_state": 1000000,
        "p_position_c100": 0.847479, "p_position_c20": 0.940383,
        "p_position_c4": 0.647423,
        "p_rank_1_3": 0.128511, "p_rank_2_7": 0.223841,
        "p_rank_5_40": 0.576519}


def test_sample_r_next_frequencies():
    draws = sample_r_next_batch(1, 5, stream(21, 1), 20_000)
    counts = np.bincount(draws, minlength=6)[2:6]
    probs = r_pmf_vector(1, 5)
    rep = chi2_gof(counts, probs)
    assert rep.passed, rep


def test_sample_a_next_inversion():
    prior = RAState(1, 3)
    # c = 5; u = 0.5 -> offset floor(5) + 1
    assert sample_a_next(prior, 2, ScriptedRNG([0.5])) == 9
    # u near 1 -> smallest possible position a + 1
    assert sample_a_next(prior, 2, ScriptedRNG([0.999999])) == 4
    assert sample_a_next(prior, 2, ScriptedRNG([0.0, 0.5])) == 9
    with pytest.raises(ValueError):
        sample_a_next(prior, 1, ScriptedRNG([0.5]))
    with pytest.raises(ValueError):
        sample_a_next(prior, 4, ScriptedRNG([0.5]))


def test_sample_a_next_tail_frequencies():
    prior = RAState(1, 3)
    rng = stream(22, 0)
    draws = np.array([sample_a_next(prior, 2, rng) for _ in range(20_000)])
    assert draws.min() >= 4
    counts = np.zeros(30, dtype=np.int64)
    for v in draws:
        counts[min(int(v) - 4, 29)] += 1
    probs = [float(a_pmf_exact(prior, 2, y)) for y in range(1, 30)]
    probs.append(float(a_tail_exact(prior, 2, 30)))
    rep = chi2_gof(counts, probs)
    assert rep.passed, rep


# --- position transition ----------------------------------------------------


def test_a_pmf_frozen_values_and_forms():
    prior = RAState(1, 2)
    assert a_pmf(prior, 2, 1) == pytest.approx(0.2)
    assert a_pmf_exact(prior, 2, 1) == Fraction(1, 5)
    assert a_tail_exact(prior, 2, 2) == Fraction(4, 5)
    assert a_pmf(prior, 2, 0) == 0.0
    assert a_tail(prior, 2, 1) == 1.0
    for y in (1, 2, 3, 10, 57):
        closed = a_pmf(prior, 2, y, form="closed")
        product = a_pmf(prior, 2, y, form="product")
        assert product == pytest.approx(closed, rel=1e-13)
    with pytest.raises(ValueError):
        a_pmf(prior, 2, 1, form="magic")


@pytest.mark.parametrize("c", [4, 20, 10**6, 2**53 + 1, 2**60])
def test_a_pmf_vector_matches_the_closed_form_bit_for_bit(c):
    # past 2^53 the scalar form rounds the exact integer c + y once; at
    # c = 2^53 + 1, float(c) + y would round twice and differ
    r_next = c // 2
    prior = RAState(1, c - r_next)
    want = [a_pmf(prior, r_next, y, form="closed") for y in range(1, 2001)]
    assert a_pmf_vector(1, c - r_next, r_next, 2000).tolist() == want
    # the raw kernel on a float position rounds c + y as the float sum
    cf = float(c) + 2.0
    want = [cf / ((cf + y - 1.0) * (cf + y)) for y in range(1, 2001)]
    assert a_pmf_vector(1.0, float(c), 2, 2000).tolist() == want


def test_a_pmf_vector_validates_the_step():
    for r, a, r_next in ((1, 5, 1), (1, 5, 6), (0, 5, 2), (5, 5, 5)):
        with pytest.raises(ValueError):
            a_pmf_vector(r, a, r_next, 10)


def test_a_pmf_exact_matches_urn_enumeration():
    prior = RAState(1, 2)
    probs, tail = urn_oracle_a(prior, 2, 5)
    assert probs == [Fraction(1, 5), Fraction(2, 15), Fraction(2, 21),
                     Fraction(1, 14), Fraction(1, 18)]
    assert tail == Fraction(4, 9)
    assert tail == a_tail_exact(prior, 2, 6)
    for y, p in enumerate(probs, start=1):
        assert p == a_pmf_exact(prior, 2, y)
    # a second state, deeper in the chain
    prior = RAState(4, 11)
    probs, tail = urn_oracle_a(prior, 7, 40)
    assert sum(probs, Fraction(0)) + tail == 1
    for y, p in enumerate(probs, start=1):
        assert p == a_pmf_exact(prior, 7, y)
    with pytest.raises(ValueError):
        urn_oracle_a(RAState(1, 2000), 2, 5)
    with pytest.raises(ValueError):
        urn_oracle_a(RAState(1, 2), 2, 0)


# --- whole-chain stepping ---------------------------------------------------


def test_step_scripted():
    # one transition, rank first and then position, stays in Python ints
    st = RAState(1, 3)
    r_next = sample_r_next(st, ScriptedRNG([0.5]))
    a_next = sample_a_next(st, r_next, ScriptedRNG([0.5]))
    assert (r_next, a_next) == (2, 9)
    assert type(r_next) is int and type(a_next) is int


def test_step_keeps_big_integers_exact():
    # integer states past 2^53 stay Python ints through both scalar draws
    st = RAState(1, 10**20)
    rng = stream(23, 0)
    r_next = sample_r_next(st, rng)
    a_next = sample_a_next(st, r_next, rng)
    assert type(r_next) is int and type(a_next) is int
    assert a_next > st.a
    assert a_next - r_next >= 1


def test_sample_path_default_start():
    # a path from the first record starts at rank 1 and the position
    # floor(2/u) of sample_a1, drawn from the path's own stream
    rng = ScriptedRNG([0.4])
    R, A = sample_paths_batch(1, 0, rng, start=(1, sample_a1(rng)))
    assert (R.tolist(), A.tolist()) == ([[1.0]], [[5.0]])


def test_sample_paths_batch_matches_scalar_path():
    # the lockstep sampler against a hand loop of sample_r_next then
    # sample_a_next on the same stream, while every state is an exact
    # double.  The scalar rank draw scans the support up to a = 1e6 and
    # runs the guided inversion past it, so the pin crosses that switch;
    # it is the one pin of _invert_rank against the scan at a <= 1e6
    checked, top = 0, 0
    for seed in range(50):
        R, A = sample_paths_batch(1, 40, stream(seed, 0))
        rng = stream(seed, 0)
        st = RAState(1, 2)
        for r, a in zip(R[1:, 0], A[1:, 0]):
            r_next = sample_r_next(st, rng)
            st = RAState(r_next, sample_a_next(st, r_next, rng))
            if st.a > 2**53:
                break
            assert (r, a) == (st.r, st.a), (seed, checked)
            checked, top = checked + 1, max(top, st.a)
    assert checked > 1500 and top > 1e15


def test_sample_paths_batch_draws_pinned():
    # sha256 of R and A at the lockstep widths of verify's chunks (1563
    # paths of c10's 29 steps) and of the CLI (100 paths, 30 steps): any
    # change to a rank or position draw, or to the order of the draws,
    # moves it.  The same hash with numpy's AVX-512 loops turned off
    # (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    h = hashlib.sha256()
    for paths, steps in ((1563, 29), (100, 30)):
        for seed in range(3):
            R, A = sample_paths_batch(paths, steps, stream(seed, paths),
                                      start=(1, 2))
            h.update(R.tobytes())
            h.update(A.tobytes())
    assert h.hexdigest() == (
        "5e3e36add428896ab8afea8bc1b1688c75dbe4ea1fbd9e2269a1a40d502cfee0")


def test_sample_paths_batch_shapes_and_invariants():
    R, A = sample_paths_batch(64, 10, stream(25, 1), start=(1, 2))
    assert R.shape == A.shape == (11, 64)
    assert np.all(np.diff(R, axis=0) > 0)
    assert np.all(np.diff(A, axis=0) > 0)
    assert np.all(A - R >= 1)
    # a start off the lattice of states: a - r < 1, r < 1, a fractional or
    # NaN coordinate
    for start in ((2, 2), (0, 2), (-5, 2), (1, 2.5), (1.5, 3), (math.nan, 2),
                  (1, math.nan)):
        with pytest.raises(ValueError):
            sample_paths_batch(4, 3, stream(25, 2), start=start)
    with pytest.raises(ValueError):
        sample_paths_batch(4, -1, stream(25, 2))


def test_sample_paths_batch_redraws_like_scalar_samplers():
    # u == 0 is redrawn for ranks and positions alike, lane by lane
    R, A = sample_paths_batch(2, 1, ScriptedRNG([0.5, 0.0, 0.5, 0.5, 0.0, 0.5]),
                              start=(1, 3))
    assert R[1].tolist() == [2.0, 2.0]
    assert A[1].tolist() == [9.0, 9.0]
    # a position uniform whose offset c(1-u)/u overflows (here a subnormal
    # u) is redrawn, as in sample_a_next, rather than clamped
    assert sample_a_next(RAState(1, 3), 2, ScriptedRNG([5e-324, 0.5])) == 9
    R, A = sample_paths_batch(2, 1, ScriptedRNG([0.5, 0.5, 5e-324, 0.5, 0.5]),
                              start=(1, 3))
    assert A[1].tolist() == [9.0, 9.0]


def test_guided_inversion_terminates_past_two_to_the_53():
    # answers beyond 2^53, where x + 1 can round back to x
    rng = stream(27, 2)
    a = 10.0 ** rng.uniform(33.0, 40.0, 200)
    r = np.floor(np.sqrt(a) * rng.uniform(0.0, 2.0, 200)) + 1.0
    x = ra_chain._invert_rank(r, a, np.log(rng.random(200)))
    assert np.all((x >= 1.0) & (x <= a - r))
    assert np.median(x) > 2.0**53


def test_float_continuation_stops_at_its_limit(monkeypatch):
    # up to a = 1e300 the kernel finishes, also from the smallest u and with
    # ranks so large that (2r + 1)^2 overflows and the guess falls back to 1
    a = np.full(3, 1e300)
    r = np.array([1.0, 1e200, 5e299])
    x = ra_chain._invert_rank(r, a, np.full(3, math.log(2.0**-53)))
    assert np.all((x >= 1.0) & (x <= a - r))
    # past it -a ln u or the position offset would overflow, and inf or NaN
    # would keep the search open forever; every sampler raises instead
    tiny = [2.0**-53]
    # an infinite or NaN position is no state; 1e307 is one, and the
    # scalar samplers' own checks stop it
    for big in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RAState(1.0, big)
    with pytest.raises(OverflowError):
        sample_r_next(RAState(1.0, 1e307), ScriptedRNG(tiny))
    with pytest.raises(OverflowError):
        sample_a_next(RAState(1.0, 1e307), 2.0, ScriptedRNG(tiny))
    # past the float range both scalar samplers raise the same error, before
    # converting the position to a float
    with pytest.raises(OverflowError, match="position above"):
        sample_r_next(RAState(1, 10**309), ScriptedRNG(tiny))
    with pytest.raises(OverflowError, match="position above"):
        sample_a_next(RAState(1, 10**309), 2, ScriptedRNG(tiny))
    with pytest.raises(OverflowError):
        sample_paths_batch(4, 3, stream(27, 3), start=(1, 1e307))
    # from 1e290 the chain runs until a passes 1e300, with no stalled rank
    with pytest.raises(OverflowError, match="passed 1e\\+300 at step 21:"):
        sample_paths_batch(4, 200, stream(27, 3), start=(1, 1e290))
    # the check after each step, with a low limit; ln A grows by about 1
    # per step
    monkeypatch.setattr(ra_chain, "_FLOAT_LIMIT", 1e20)
    with pytest.raises(OverflowError, match="passed 1e\\+20 at step"):
        sample_paths_batch(4, 200, stream(27, 3))


def test_stalled_rank_raises():
    # past 2^53 an x below ulp(r) gives r + x == r in floats; the lockstep
    # chain stops there instead of repeating R.  From r = 1e20 (ulp 16384)
    # and a = 1e22 the rank moves by about 50 |ln u|, so every lane stalls
    # at once
    start = (1e20, 1e22)
    with pytest.raises(OverflowError, match="rank stalled at step 1:"):
        sample_paths_batch(20, 200, stream(3, 0), start=start)
    # the scalar sampler holds the state as ints, so r + x is exact and the
    # rank moves by at least 1
    for st, rng in ((RAState(*start), stream(3, 0)),
                    (RAState(1e40, 1e42), ScriptedRNG([0.5]))):
        r_next = sample_r_next(st, rng)
        assert type(r_next) is int and r_next >= st.r + 1
    # from (1, 2) an x below ulp(r) has probability about 2^-51 per
    # lane-step, so 200 steps raise every rank
    R, A = sample_paths_batch(20, 200, stream(3, 0))
    assert np.all(np.diff(R, axis=0) > 0.0)
    assert R.max() > 2.0**53 and A.max() > 1e80


def test_rescaled_rank_keeps_its_limit_law_past_1e28():
    # R^2/A tends to Exp(1), whose median is ln 2.  Every lane passes
    # a = 1e36 by step 120, so each four-decade band below it holds about
    # nine states per lane, with no selection by how fast a lane grew
    R, A = sample_paths_batch(1000, 120, stream(28, 0))
    xi, decade = R**2 / A, np.log10(A)
    assert decade[-1].min() > 36.0
    for lo in range(8, 36, 4):
        band = xi[(decade >= lo) & (decade < lo + 4)]
        assert band.size > 5000
        assert abs(np.median(band) - math.log(2.0)) < 0.1, lo
    # the last state of every lane, one independent draw each, past 1e36
    rep = ks_one_sample(xi[-1], "exp1")
    assert rep.passed, rep
