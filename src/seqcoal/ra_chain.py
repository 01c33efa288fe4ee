"""The record chain of lineage lengths: exact transition laws and samplers.

State (r, a): the current record holder is individual a and its length has
rank r among all lengths seen so far.  Both coordinates strictly increase and
a - r >= 1 always.  Closed-form pmfs and tails are available in two algebraic
forms, with independent urn-process oracles in exact rational arithmetic for
cross-checking, and exact inverse-CDF samplers.

Every count, index and step argument, and each state coordinate, takes the
package's one whole-number rule (streams._whole): r >= 1 and a >= r + 1.
Scalar law evaluation takes an RAState, which stores Python ints, so it
computes on exact integers and returns Python floats or Fractions; the bulk
kernels (the _vector and _batch functions) take raw (r, a) coordinates and
compute on them as given, whole floats included, so callers can tabulate
without building state objects in a loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import log_gamma_diff
from .streams import _whole, nonzero_uniform

__all__ = [
    "RAState",
    "sample_a1",
    "r_pmf",
    "r_tail",
    "r_pmf_vector",
    "r_tail_vector",
    "r_pmf_exact",
    "r_tail_exact",
    "a_pmf",
    "a_pmf_vector",
    "a_tail",
    "a_pmf_exact",
    "a_tail_exact",
    "sample_r_next",
    "sample_r_next_batch",
    "sample_a_next",
    "sample_paths_batch",
    "urn_oracle_r",
    "urn_oracle_a",
]

# Largest position index for which the scalar sampler scans the support with
# the sequential tail recursion; past it, it runs the guided inversion.
_SCAN_LIMIT = 10**6

# Largest position the floating-point continuation carries.  Below it the
# guided inversion's start -a ln u (at most about 37a) and its brackets, and
# the position offset a + r, stay finite; past it the samplers raise
# OverflowError rather than compute with inf or NaN.
_FLOAT_LIMIT = 1e300

# Every integer below this is an exact double.
_EXACT_DOUBLE = 2**53

# Rank-law products of this many ratios or more are multiplied by
# np.cumprod, shorter ones by the Python loop, which costs less to set up.
# On a 2-vCPU Xeon VM (Python 3.11, numpy 2.4), r_tail at (300, 1e9) took
# 1.2 us in the loop against 7.8 us in numpy at x = 8, 8.2 against 11.5 us
# at x = 64, 10.3 against 8.4 us at x = 128 and 97 against 17 us at
# x = 1000.  Verify criterion 4 (x up to 2000) took 20.8 ms per call with
# the loop alone, 15.9 ms with numpy for every product and 11.1 ms with
# this cutoff.
_CUMPROD_MIN = 64

# Ratios per np.cumprod call, so that a long product never holds more than
# this many terms (512 KB) in memory at once.
_CUMPROD_BLOCK = 2**16


@dataclass
class RAState:
    """One record: rank r of the record length, position a of its holder,
    stored as Python ints.  ValueError unless it is a state of the chain
    (see _check_state)."""

    r: int
    a: int

    def __post_init__(self):
        self.r, self.a = _check_state(self.r, self.a)


def _check_state(r, a) -> tuple:
    """(r, a) as Python ints; ValueError unless it is a state of the chain:
    whole numbers (_whole) with r >= 1 and a >= r + 1."""
    r = _whole("r", r, 1)
    return r, _whole("a", a, r + 1)


def sample_a1(rng: np.random.Generator, size: int | None = None):
    """Position of the first record, pmf 2/(n(n+1)) on n >= 2.

    Inverse CDF on the tail P(A_1 >= n) = 2/n: a = floor(2/u).  u = 0 is
    redrawn; float uniforms are >= 2^-53 so the result fits in an int64.
    """
    u = nonzero_uniform(rng, None if size is None else _whole("size", size, 0))
    if size is None:
        return int(2.0 / u)
    return np.floor(2.0 / u).astype(np.int64)


# ---------------------------------------------------------------------------
# rank transition (the next record's rank, given state (r, a))


def r_pmf(state: RAState, x, form: str = "product") -> float:
    """P(next rank = r + x) from the given state, for x in 1..a-r (else 0).

    Two algebraic forms of the same law are kept deliberately:
    "product" multiplies the absorption factor (2r+2x)/(a+r+x) into the
    survival product, while "binomial" evaluates the equivalent
    binomial-coefficient ratio C(2a, a-r-x)/C(2a, a-r-1) scaled by
    (2r+2x)/(a+r+1), exactly for a <= 1e4 and as a falling-factorial ratio
    beyond.  Their agreement is itself a verified invariant.  x must be a
    whole number (ValueError otherwise), and the value is a Python float.

    The product form multiplies the survival ratios onto the absorption
    factor one at a time, in the order of k (see _ratio_product).  With
    a + r + x < 2^53 every term is an exact double, so each ratio and each
    product is rounded once, and the value is the same bits whether the
    product runs in numpy or in the loop.
    """
    x = _whole("x", x)
    r, a = state.r, state.a
    if x < 1 or x > a - r:
        return 0.0
    if form == "product":
        return _ratio_product((2.0 * r + 2.0 * x) / (a + r + x), r, a, x)
    if form == "binomial":
        if a <= 10**4:
            ratio = Fraction(math.comb(2 * a, a - r - x), math.comb(2 * a, a - r - 1))
            return float(Fraction(2 * r + 2 * x, a + r + 1) * ratio)
        acc = (2.0 * r + 2.0 * x) / (a + r + 1)
        for k in range(1, x):
            acc *= (a - r - k) / (a + r + k + 1)
        return acc
    raise ValueError(f"unknown form {form!r}")


def r_tail(state: RAState, x) -> float:
    """P(next rank >= r + x); equals 1 for x <= 1, 0 past the support.

    The product of the ratios (a-r-k)/(a+r+k), k = 1..x-1, taken in the
    order of k (see _ratio_product).  With a + r + x < 2^53 every term is
    an exact double, so each ratio and each product is rounded once, and
    the value is the same bits whether the product runs in numpy or in the
    loop.  x must be a whole number (ValueError otherwise).
    """
    x = _whole("x", x)
    r, a = state.r, state.a
    if x <= 1:
        return 1.0
    if x > a - r:
        return 0.0
    return _ratio_product(1.0, r, a, x)


def _rank_terms(start, r, a, k0, k1) -> np.ndarray:
    """[start, q_k0, ..., q_{k1-1}] with q_k = (a-r-k)/(a+r+k), in float64:
    its cumulative product multiplies the rank law's survival ratios onto
    start in the order of k."""
    k = np.arange(k0, k1, dtype=float)
    return np.concatenate(([start], (a - r - k) / (a + r + k)))


def _ratio_product(start, r, a, x):
    """start * prod_{k=1}^{x-1} (a-r-k)/(a+r+k), multiplied in the order of k.

    With _CUMPROD_MIN ratios or more and a + r + x < 2^53, the terms go
    into arrays of up to _CUMPROD_BLOCK ratios, each headed by the product
    so far, and np.cumprod multiplies them.  There every a-r-k and a+r+k is
    an exact double, and numpy rounds the same divisions and the same
    multiplies, in the same order, as the loop, so the value is the loop's
    to the bit.  Elsewhere the loop runs, with a - r and a + r hoisted:
    short products, and integers past 2^53, where only integer a-r-k is exact.
    """
    if x > _CUMPROD_MIN and a + r + x < _EXACT_DOUBLE:
        acc = start
        for k0 in range(1, x, _CUMPROD_BLOCK):
            terms = _rank_terms(acc, r, a, k0, min(k0 + _CUMPROD_BLOCK, x))
            acc = float(np.cumprod(terms)[-1])
        return acc
    lo, hi = a - r, a + r
    acc = start
    for k in range(1, x):
        acc *= (lo - k) / (hi + k)
    return acc


def _rank_pmf(r, a, width) -> np.ndarray:
    """pmf over x = 1..width, via one cumulative product, with no check of
    (r, a): at r = 0, width = a = n it is the record-value law P(W_n = x)
    of limit_chain, the rank step from the empty state."""
    survival = np.cumprod(_rank_terms(1.0, r, a, 1, width))
    x = np.arange(1, width + 1, dtype=float)
    return survival * (2.0 * r + 2.0 * x) / (a + r + x)


def r_pmf_vector(r, a, max_x: int | None = None) -> np.ndarray:
    """pmf over x = 1..min(a-r, max_x), via one cumulative product."""
    _check_state(r, a)
    width = a - r if max_x is None else min(a - r, _whole("max_x", max_x, 0))
    return _rank_pmf(r, a, width)


def r_tail_vector(r, a, max_x: int | None = None) -> np.ndarray:
    """Tails for x = 1..min(a-r, max_x)+1, by the cumulative product of
    r_tail; over the full support the final entry is exactly 0."""
    _check_state(r, a)
    width = a - r if max_x is None else min(a - r, _whole("max_x", max_x, 0))
    return np.cumprod(_rank_terms(1.0, r, a, 1, width + 1))


def r_pmf_exact(state: RAState, x) -> Fraction:
    """Product-form pmf as an exact rational: the absorption factor
    (2r+2x)/(a+r+x) times r_tail_exact.  x must be a whole number."""
    x = _whole("x", x)
    r, a = state.r, state.a
    if x < 1 or x > a - r:
        return Fraction(0)
    return Fraction(2 * r + 2 * x, a + r + x) * r_tail_exact(state, x)


def r_tail_exact(state: RAState, x) -> Fraction:
    """r_tail as an exact rational; x must be a whole number."""
    x = _whole("x", x)
    r, a = state.r, state.a
    if x <= 1:
        return Fraction(1)
    if x > a - r:
        return Fraction(0)
    acc = Fraction(1)
    for k in range(1, x):
        acc *= Fraction(a - r - k, a + r + k)
    return acc


def _log_r_tail(r, a, x):
    """log of the rank-transition tail, stable for astronomically large a;
    at r = 0 it is the log tail of the record-value law."""
    return _log_tail(a - r, 2.0 * r, x)


def _log_tail(span, r2, x):
    """_log_r_tail from span = a - r and r2 = 2r, to the bit: the rank
    kernel computes both once per call."""
    return log_gamma_diff(span, r2 + x, x - 1.0)


def _settle(r2, ar, log_u, t, v):
    """Settle the lanes whose answer is t or t + 1, given v = L(t + 1),
    r2 = 2r and ar = a + r.

    The one-step ratio tail(y + 1) = tail(y) (a - r - y)/(a + r + y) gives
    q = ln[1 - (2r + 2t + 2s)/(a + r + t + s)], with s = 0 where v <= ln u
    (down: the answer is t or below; q = L(t + 1) - L(t)) and s = 1 where
    not (up: q = L(t + 2) - L(t + 1)), so one log1p per lane yields L(t) or
    L(t + 2).  Returns (hit, answer, down, q): hit marks the lanes whose u
    falls between L(t + 2) and L(t), and answer = t + s is theirs.  Runs
    under _invert_rank's np.errstate: log1p(-1) = -inf where t + 1 = a - r.
    """
    down = v <= log_u
    s = (~down).astype(float)
    q = np.log1p(-(r2 + 2.0 * t + 2.0 * s) / (ar + t + s))
    hit = np.where(down, v - q > log_u, v + q <= log_u)
    return hit, t + s, down, q


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _invert_rank(r, a, log_u):
    """Smallest x in [1, a - r] with _log_r_tail(r, a, x + 1) <= log_u, per
    lane, for 1-D float arrays r, a and log_u of one length.

    x = a - r needs no evaluation (its tail is 0), so lanes with a - r = 1
    take x = 1 and the others go to _invert_open, gathered only when some
    lane is forced.  The tail is good to a few ulps of its value for every
    a up to _FLOAT_LIMIT, so the draw is the exact inverse whenever u is
    further than that from a tail value.  Every a must be at most
    _FLOAT_LIMIT: both callers check it before the call.
    """
    max_x = a - r
    open_ = max_x > 1.0
    count = np.count_nonzero(open_)
    if not count:
        return np.ones_like(max_x)
    if count == max_x.size:
        return _invert_open(r, a, log_u, max_x)
    x = np.ones_like(max_x)
    lanes = open_.nonzero()[0]
    x[lanes] = _invert_open(r[lanes], a[lanes], log_u[lanes], max_x[lanes])
    return x


def _invert_open(r, a, log_u, max_x):
    """_invert_rank on lanes with max_x = a - r >= 2; runs under its
    np.errstate.

    Guided inversion (Devroye 1986, ch. 2-3).  Each lane starts at the
    closed-form guess t solving (x - 1)(2r + x) = -a ln u, the point where
    the tail's leading-order approximation exp(-(x - 1)(2r + x)/a) equals u,
    clipped to [1, a - r - 1].  One tail evaluation v = L(t + 1) there, with
    the one-step ratio tail(y + 1) = tail(y) (a - r - y)/(a + r + y), gives
    L(t) or L(t + 2) as well (_settle); a lane whose u falls between
    L(t + 2) and L(t) returns t or t + 1 with no further evaluation.  The
    guess leaves out the log tail's higher-order terms, which are all
    negative, so a lane it misses usually has the answer t - 1.  Below
    2^53, where every rank is an exact double, a lane left open on the
    down side with t >= 2 takes one more one-step ratio, L(t - 1) =
    L(t) - ln[1 - (2r + 2t - 2)/(a + r + t - 1)], and returns t - 1 when
    that exceeds ln u.  Past 2^53, where not every rank is an exact
    double, that step would move draws, so it is not taken there.  On
    20 x 1563 paths of 29 steps and 20 x 100 paths of 30 steps from
    (1, 2), the first point settled all 925 410 lane-steps that reached
    it, with one evaluation each; without the t - 1 step, 4841 of them
    took a second.  A lane still open takes a second point: one Newton
    step on the log tail from the first, t + floor((ln u - v)/q) with the
    log ratio q as its slope, which moves at least one step the way the
    first point pointed; one more evaluation there settles it the same
    way.  On the lanes still open, steps doubling away from the last
    point find a bracket, and bisection closes it.  Every later
    evaluation runs on the lanes still open, gathered by index.
    """
    r2 = 2.0 * r
    ar = a + r
    b = r2 + 1.0
    ae = -a * log_u
    # b * b = inf (r > 6e153) gives g = 1
    g = np.floor(1.0 + 2.0 * ae / (b + np.sqrt(b * b + 4.0 * ae)))
    t = np.minimum(np.maximum(g, 1.0), max_x - 1.0)  # the first point
    v = _log_tail(max_x, r2, t + 1.0)
    # x takes the answers of the hit lanes; the others are set below
    hit, x, down, q = _settle(r2, ar, log_u, t, v)
    open_ = ~hit
    if not np.count_nonzero(open_):
        return x
    idx = open_.nonzero()[0]
    r2, ar, a, log_u, max_x, t, v, q, down = (
        w[idx] for w in (r2, ar, a, log_u, max_x, t, v, q, down))
    # t - 1 from the first point: L(t - 1) = L(t) - q', with L(t) = v - q
    # as _settle compared it
    below = t - 1.0
    q1 = np.log1p(-(r2 + 2.0 * below) / (ar + below))
    hit = down & (t >= 2.0) & (a < _EXACT_DOUBLE) & ((v - q) - q1 > log_u)
    if np.count_nonzero(hit):
        x[idx[hit]] = below[hit]
        keep = (~hit).nonzero()[0]
        if not keep.size:
            return x
        idx, r2, ar, log_u, max_x, t, v, q = (
            w[keep] for w in (idx, r2, ar, log_u, max_x, t, v, q))
    # the second point; a lane whose Newton step is not finite (q rounded
    # to 0) stays at t, where v is known
    newton = np.floor((log_u - v) / q)
    moved = np.isfinite(newton)
    if np.count_nonzero(moved):
        t = np.where(moved, np.minimum(np.maximum(t + newton, 1.0),
                                       max_x - 1.0), t)
        v[moved] = _log_tail(max_x[moved], r2[moved], t[moved] + 1.0)
    hit, answer, down, _ = _settle(r2, ar, log_u, t, v)
    x[idx[hit]] = answer[hit]
    open_ = ~hit
    if not np.count_nonzero(open_):
        return x
    keep = open_.nonzero()[0]
    idx, r2, max_x, log_u, t, down = (
        w[keep] for w in (idx, r2, max_x, log_u, t, down))
    # the lanes left have L(t) <= ln u (down) or L(t + 2) > ln u (up): the
    # gallop's first move, to t - 1 or t + 1, is already evaluated
    t = np.where(down, t - 1.0, t + 1.0)
    lo, hi = np.ones_like(t), max_x  # the answer lies in [lo, hi]
    cond = down
    # gallop step, doubled per move and 0 once bisecting; past 2^53 it
    # starts at the float spacing of t, so that the first move moves
    step = np.maximum(2.0, np.spacing(t))
    while True:
        hi = np.where(cond, t, hi)
        # past 2^53, t + 1 can round back to t; nextafter still moves on
        lo = np.where(cond, lo, np.maximum(t + 1.0, np.nextafter(t, np.inf)))
        step[cond != down] = 0.0  # the gallop crossed the boundary
        t = np.where(down, t - step, t + step)
        step *= 2.0
        # a lane bisects once its gallop crossed or left the bracket
        bisect = (step == 0.0) | (t < lo) | (t >= hi)
        step[bisect] = 0.0
        mid = np.floor((lo + hi) / 2.0)
        # adjacent floats past 2^53 can round the midpoint up to hi
        t = np.where(bisect, np.where(mid >= hi, lo, mid), t)
        done = lo >= hi
        if np.count_nonzero(done):
            x[idx[done]] = lo[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return x
            idx, r2, max_x, log_u = idx[keep], r2[keep], max_x[keep], log_u[keep]
            t, lo, hi, step, down = (t[keep], lo[keep], hi[keep], step[keep],
                                     down[keep])
        cond = _log_tail(max_x, r2, t + 1.0) <= log_u


def sample_r_next(state: RAState, rng: np.random.Generator) -> int:
    """Exact draw of the next rank: r + x for the smallest x with
    tail(x+1) <= u, so a u exactly equal to a tail value resolves to the
    smaller x.  u == 0 is redrawn.

    For a <= 1e6 the support is scanned with the sequential ratio recursion
    tail(x+1) = tail(x) (a-r-x)/(a+r+x).  Beyond, the guided inversion of
    _invert_rank runs on one lane, with one log tail evaluation whenever
    the answer lies within one rank of its closed-form guess (one rank
    below only up to 2^53), which covers nearly every draw; the log tail
    is good to a few ulps up to a = 1e300, so the draw is exact
    unless u lies within that rounding of a tail value.  Past 2^53 it
    searches over float-representable x only, and r + x is the exact
    integer sum.  A position above 1e300 raises OverflowError.
    """
    r, a = state.r, state.a
    u = nonzero_uniform(rng)
    max_x = a - r
    if a <= _SCAN_LIMIT:
        tail = 1.0
        x = 1
        while x <= max_x:
            tail *= (a - r - x) / (a + r + x)  # tail(x+1)
            if tail <= u:
                break
            x += 1
        return r + x
    if not a <= _FLOAT_LIMIT:
        raise OverflowError(f"position above {_FLOAT_LIMIT:g}")
    x = _invert_rank(np.array([float(r)]), np.array([float(a)]),
                     np.array([math.log(u)]))
    # past 2^53, float(a) - float(r) can round above the exact a - r
    return r + min(int(x[0]), max_x)


def sample_r_next_batch(r, a, rng: np.random.Generator, size: int) -> np.ndarray:
    """Many exact draws of the next rank from one state (r, a).

    Precomputes the full tail vector with the same sequential recursion the
    scalar sampler scans for a <= 1e6, then inverts every uniform with one
    searchsorted.  Ties resolve to the smaller x, matching sample_r_next.
    """
    size = _whole("size", size, 0)
    if a - r > 10**7:
        raise ValueError("support too wide to tabulate; draw scalars instead")
    tails = r_tail_vector(r, a)  # tails[i] = tail(i+1), decreasing, ends at 0
    u = nonzero_uniform(rng, size)
    x = np.searchsorted(-tails, -u, side="left")
    return r + x.astype(np.int64)


# ---------------------------------------------------------------------------
# position transition (the next record's position, given a and the new rank)


def _rank_step(state, r_next) -> int:
    """r_next as a Python int; ValueError unless it is a whole number in
    (r, a]."""
    r_next = _whole("r_next", r_next)
    if not state.r < r_next <= state.a:
        raise ValueError("next rank must lie in (r, a]")
    return r_next


def a_pmf(state: RAState, r_next, y, form: str = "closed") -> float:
    """P(next position = a + y), with c = a + r_next.

    "closed" evaluates c / ((c+y-1)(c+y)); "product" multiplies the
    success factor 1/(c+y) into the sequential survival product
    prod_{k<y} (c+k-1)/(c+k), which telescopes to the same value.  r_next
    and y must be whole numbers (ValueError otherwise), and the value is a
    Python float.
    """
    c = state.a + _rank_step(state, r_next)
    y = _whole("y", y)
    if y < 1:
        return 0.0
    if form == "closed":
        return c / ((c + y - 1.0) * (c + y))
    if form == "product":
        acc = 1.0 / (c + y)
        for k in range(1, y):
            acc *= (c + k - 1.0) / (c + k)
        return acc
    raise ValueError(f"unknown form {form!r}")


def a_pmf_vector(r, a, r_next, max_y: int) -> np.ndarray:
    """pmf over y = 1..max_y of the next position a + y from state (r, a)
    after the rank step to r_next: a_pmf(..., form="closed") to the bit.

    c / ((c + y - 1) (c + y)) with c = a + r_next, rounded as the scalar
    form rounds it: c + y is the exact sum rounded once to a double, then
    1 is subtracted from it.  For an integer c that is a double, or a float
    c, float(c) + y is that sum; past 2^53 an integer c that is not a
    double takes it from the exact integers c + y.
    """
    r_next = _rank_step(RAState(r, a), r_next)
    max_y = _whole("max_y", max_y, 0)
    c = a + r_next
    if isinstance(c, (int, np.integer)) and float(c) != c:
        cy = (np.arange(1, max_y + 1, dtype=object) + int(c)).astype(float)
    else:
        cy = float(c) + np.arange(1, max_y + 1, dtype=float)
    return float(c) / ((cy - 1.0) * cy)


def a_tail(state: RAState, r_next, y) -> float:
    """P(next position >= a + y) = c/(c+y-1) for y >= 1; r_next and y
    must be whole numbers."""
    c = state.a + _rank_step(state, r_next)
    y = _whole("y", y)
    if y <= 1:
        return 1.0
    return c / (c + y - 1.0)


def a_pmf_exact(state: RAState, r_next, y) -> Fraction:
    """a_pmf as an exact rational; r_next and y must be whole numbers."""
    c = state.a + _rank_step(state, r_next)
    y = _whole("y", y)
    if y < 1:
        return Fraction(0)
    return Fraction(c, (c + y - 1) * (c + y))


def a_tail_exact(state: RAState, r_next, y) -> Fraction:
    """a_tail as an exact rational; r_next and y must be whole numbers."""
    c = state.a + _rank_step(state, r_next)
    y = _whole("y", y)
    if y <= 1:
        return Fraction(1)
    return Fraction(c, c + y - 1)


def sample_a_next(state: RAState, r_next, rng: np.random.Generator):
    """Exact draw of the next position, an int: a + floor(c(1-u)/u) + 1.

    The closed form inverts the tail c/(c+y-1); a draw whose intermediate
    overflows floating point (u below roughly c/1e308) is redrawn.  A
    position above 1e300 raises OverflowError.  r_next must be a whole
    number.
    """
    r_next = _rank_step(state, r_next)
    a = state.a
    if not a <= _FLOAT_LIMIT:
        raise OverflowError(f"position above {_FLOAT_LIMIT:g}")
    c = a + r_next
    while True:
        u = nonzero_uniform(rng)
        z = float(c) * (1.0 - u) / u
        if math.isfinite(z):
            break
    return a + int(z) + 1


@np.errstate(over="ignore")
def _position_offsets(c, rng: np.random.Generator) -> np.ndarray:
    """Offsets y = floor(c(1-u)/u) + 1 of the next positions, one per entry
    of the float array c = a + r_next: the array form of sample_a_next.

    Every array position draw in the package goes through this helper:
    sample_paths_batch, and verify criteria 5 and 6.  Criterion 5 checks
    its frequencies against the exact law, and the unit tests pin
    sample_a_next to it draw for draw on a shared stream.  One uniform
    array is drawn; u == 0 is redrawn, and so is every u whose c(1-u)/u
    overflows, lane by lane, as in sample_a_next.
    """
    u = nonzero_uniform(rng, c.size)
    z = c * (1.0 - u) / u
    finite = np.isfinite(z)
    count = z.size - np.count_nonzero(finite)
    while count:
        bad = ~finite
        u = nonzero_uniform(rng, count)
        z[bad] = c[bad] * (1.0 - u) / u
        finite = np.isfinite(z)
        count = z.size - np.count_nonzero(finite)
    return np.floor(z) + 1.0


def sample_paths_batch(num_paths: int, steps: int, rng: np.random.Generator,
                       start=(1, 2)):
    """Advance many record paths in lockstep; returns (R, A) float arrays of
    shape (steps+1, num_paths).

    Intended for statistical verification at scale, it is the chain's one
    floating-point continuation: state values are floats (exact as integers
    up to 2^53, double precision beyond), and the rank step is the guided
    inversion on log-gamma tails for every a, with no sequential scan; it
    follows the chain's law up to a = 1e300.  Per step it draws one uniform
    array for ranks, then one for positions (_position_offsets).  Uniforms
    equal to 0 are redrawn, and so is every position uniform whose offset
    c(1-u)/u overflows, as in sample_a_next.  A position above 1e300, at
    the start or after some step, raises OverflowError; ln A grows by about
    1 per step, so from a small start that takes about 690 steps.  So does
    a step at which some lane's rank stalls, r + x rounding back to r: that
    needs x below the spacing of floats at r, which from a small start has
    probability about 2^-51 per lane-step, but is certain from, say,
    (1e20, 1e22).  The start must be a state of the chain: ValueError
    unless both coordinates are whole numbers, r >= 1 and a - r >= 1.
    """
    num_paths = _whole("num_paths", num_paths, 0)
    steps = _whole("steps", steps, 0)
    r0, a0 = start
    _check_state(r0, a0)
    if not a0 <= _FLOAT_LIMIT:
        raise OverflowError(f"start position above {_FLOAT_LIMIT:g}")
    r = np.full(num_paths, float(r0))
    a = np.full(num_paths, float(a0))
    R = np.empty((steps + 1, num_paths))
    A = np.empty((steps + 1, num_paths))
    R[0], A[0] = r, a
    with np.errstate(over="ignore"):  # a + y = inf fails the check below
        for i in range(1, steps + 1):
            r_next = r + _invert_rank(r, a,
                                      np.log(nonzero_uniform(rng, num_paths)))
            if np.count_nonzero(r_next == r):
                raise OverflowError(
                    f"a rank stalled at step {i}: r + x rounds back to r in "
                    "the floating-point continuation of the record chain")
            r = r_next
            a = a + _position_offsets(a + r, rng)
            if np.count_nonzero(a <= _FLOAT_LIMIT) < num_paths:
                raise OverflowError(
                    f"a position passed {_FLOAT_LIMIT:g} at step {i}: past "
                    "the floating-point continuation of the record chain")
            R[i], A[i] = r, a
    return R, A


# ---------------------------------------------------------------------------
# urn oracles: the planting process reduced to category counts, in exact
# rational arithmetic, independent of the closed forms above

# Largest a that urn_oracle_r enumerates, and largest c = a + r_next that
# urn_oracle_a does: the sizes verify criteria 2 and 3 reach.
_URN_MAX_A = 12
_URN_MAX_C = 1000


def urn_oracle_r(state: RAState) -> list:
    """Exact rank-transition law by enumerating the stick-planting urn.

    Subintervals fall into three categories: 2r flanking an existing relevant
    stick, 2 touching the boundary, and a - r - 1 bounded by individuals on
    both sides.  A stick landing in the last kind converts that subinterval
    into a flanking pair and raises the total by one; landing anywhere else
    absorbs.  Returns P(x) for x = 1..a-r as Fractions.
    """
    r, a = state.r, state.a
    if a > _URN_MAX_A:
        raise ValueError(f"urn enumeration capped at a = {_URN_MAX_A}")
    flank = 2 * r
    boundary = 2
    inner = a - r - 1
    total = a + r + 1
    surviving = Fraction(1)
    probs = []
    for _ in range(1, a - r + 1):
        probs.append(surviving * Fraction(flank + boundary, total))
        surviving *= Fraction(inner, total)
        inner -= 1
        flank += 2
        total += 1
    return probs


def urn_oracle_a(state: RAState, r_next, y_cutoff: int) -> tuple:
    """Exact position-transition law by enumerating the individual-planting
    urn: one target gap among c + y subintervals at attempt y, each failure
    adding a subinterval.  Returns (probs for y = 1..y_cutoff, exact tail
    P(y > y_cutoff)); r_next must be a whole number, y_cutoff one >= 1."""
    c = state.a + _rank_step(state, r_next)
    if c > _URN_MAX_C:
        raise ValueError(f"urn enumeration capped at a + r_next = {_URN_MAX_C}")
    y_cutoff = _whole("y_cutoff", y_cutoff, 1)
    surviving = Fraction(1)
    probs = []
    for y in range(1, y_cutoff + 1):
        total = c + y
        probs.append(surviving * Fraction(1, total))
        surviving *= Fraction(total - 1, total)
    return probs, surviving
