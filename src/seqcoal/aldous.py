"""Stick construction of the coalescent on the unit interval.

Sticks U_1, U_2, ... and individuals V_1, V_2, ... are iid uniform positions.
Stick j carries a height equal to the coalescent time at which the population
drops below j blocks, so two individuals belong to the same block at time t
exactly when every stick strictly between them is shorter than t.  Replaying
the positions in planting order also identifies the record chain of ranks and
positions without ever looking at heights.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict

import numpy as np

from .ra_chain import RAState
from .streams import exp_inverse

__all__ = [
    "StickField",
    "partition_at",
    "identify_ra",
    "batch_first_record",
]

# positions drawn per generator call; even, so a value's index in its block
# has the parity of its stream position
_BLOCK = 64

# uniforms per generator call in batch_first_record, so that its memory
# does not grow with the number of replicates
_FIRST_RECORD_BLOCK = 2**15


def _height_count(tol: float) -> int:
    """Number of stick heights to materialize so that truncating the
    infinite sum leaves a zero-mean remainder with standard deviation
    at most tol."""
    return max(64, math.ceil((2.0 / (math.sqrt(3.0) * tol)) ** (2.0 / 3.0)))


class StickField:
    """Lazily grown field of stick and individual positions with heights.

    The field draws its positions from the generator handed in, in blocks
    of uniforms; its stream is the sequence of those blocks.  Even stream
    positions are sticks and odd ones are individuals: on a collision-free
    stream, stick j is value 2(j-1) and individual i is value 2i-1.  A
    value equal to 0.0 or to any earlier value of the stream, which would
    make interval adjacency ambiguous, is skipped, and later values keep
    their parity.  Whether a value is kept depends only on the values
    before it in the stream, so the positions do not depend on the order
    in which sticks and individuals are requested.  Fields that share one
    generator take their blocks from it in the order they are read, so a
    field's positions depend on the fields read before it; a field read
    to its end before the next one is made has one contiguous run of
    blocks.  Heights come from one child of the generator, spawned when
    they are first needed.
    """

    def __init__(self, rng: np.random.Generator, *, height_tol: float = 1e-9):
        if not 0.0 < height_tol <= 1e-2:
            raise ValueError("height_tol out of range")
        self._rng = rng
        self.height_tol = float(height_tol)
        # every kept value of each kind, in stream order
        self._sticks: list = []
        self._individuals: list = []
        # 0.0 and every value drawn so far; a skipped value repeats one
        self._taken: set = {0.0}
        self._heights: np.ndarray | None = None

    def _draw_block(self):
        vals = self._rng.random(_BLOCK).tolist()
        taken = self._taken
        size = len(taken)
        taken.update(vals)
        if len(taken) - size == _BLOCK:
            self._sticks += vals[0::2]
            self._individuals += vals[1::2]
            return
        # A zero or a repeat.  The update has already added the block, so
        # rebuild the set from the values kept before it and replay the
        # block one value at a time.
        taken.clear()
        taken.add(0.0)
        taken.update(self._sticks, self._individuals)
        for k, x in enumerate(vals):
            if x not in taken:
                taken.add(x)
                kept = self._individuals if k % 2 else self._sticks
                kept.append(x)

    def ensure_sticks(self, m: int):
        """Draw blocks until the field holds at least m sticks."""
        while len(self._sticks) < m:
            self._draw_block()

    def ensure_individuals(self, n: int):
        """Draw blocks until the field holds at least n individuals."""
        while len(self._individuals) < n:
            self._draw_block()

    def ensure_heights(self):
        """Materialize stick heights once.

        Height j is the coalescent time of the drop from j+1 to j blocks:
        a sum of Exp(k(k-1)/2) holding times for k > j.  The sum is cut at
        K terms chosen from height_tol, and the cut tail is replaced by its
        exact mean 2/K so the error is centered.
        """
        if self._heights is not None:
            return
        K = _height_count(self.height_tol)
        k = np.arange(2, K + 1, dtype=float)
        (height_rng,) = self._rng.spawn(1)
        holds = exp_inverse(height_rng, K - 1) / (k * (k - 1.0) / 2.0)
        self._heights = np.cumsum(holds[::-1])[::-1] + 2.0 / K

    def stick_height(self, j: int) -> float:
        self.ensure_heights()
        if j < 1 or j > self._heights.shape[0]:
            raise ValueError("height index out of the materialized range")
        return float(self._heights[j - 1])

    def count_at_least(self, t: float) -> int:
        """How many sticks stand at height >= t.  Heights decrease with the
        index, so these are exactly sticks 1..m."""
        self.ensure_heights()
        if t <= self._heights[-1]:
            raise ValueError(
                "time below the resolved height floor; lower height_tol")
        return int(np.searchsorted(-self._heights, -t, side="right"))


def partition_at(field: StickField, t: float, n: int) -> list:
    """Block structure of the first n individuals at coalescent time t: a
    list of frozensets sorted by their minima."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("need a finite time >= 0")
    if n < 1:
        raise ValueError("need n >= 1")
    if t == 0.0:
        # Every stick separates at time zero.
        return [frozenset({i}) for i in range(1, n + 1)]
    m = field.count_at_least(t)
    field.ensure_sticks(m)
    field.ensure_individuals(n)
    separators = sorted(field._sticks[:m])
    regions = defaultdict(set)
    for i in range(1, n + 1):
        loc = field._individuals[i - 1]
        regions[bisect_right(separators, loc)].add(i)
    return sorted((frozenset(b) for b in regions.values()), key=min)


def _state(r: int, a: int) -> RAState:
    """An RAState read off a field, valid by construction: every planted
    stick has individuals on both sides when a record is certified, so
    a >= r + 1.  Skips the check that construction runs."""
    st = object.__new__(RAState)
    st.r, st.a = r, a
    return st


def identify_ra(field: StickField, max_pairs: int, *,
                max_individuals: int | None = None,
                max_sticks: int | None = None) -> list:
    """Read the record chain off the planting order of the field.

    A newly planted stick starts a record hunt when it is not already
    walled in by individuals; the hunt ends once individuals close in on
    both sides, and the closing individual's index is the record position.
    A hunt scans the individuals in planting order against the anchor and
    its two neighbouring sticks.  The planted individuals are sorted only
    between hunts, where the next stick's crowding test reads the two of
    them next to it.  Sticks are asked of the field one at a time and
    individuals half a block at a time, and a hunt reads individuals only
    up to the last request, so the blocks a field draws depend on its hunts
    alone, also after a skipped value.  Returns up to max_pairs states;
    hitting either cap returns the pairs certified so far (a censored
    prefix).
    """
    if max_pairs < 1:
        raise ValueError("need max_pairs >= 1")
    for cap in (max_individuals, max_sticks):
        if cap is not None and cap < 1:
            raise ValueError("need max_individuals and max_sticks >= 1")
    indiv_cap = math.inf if max_individuals is None else max_individuals
    stick_cap = math.inf if max_sticks is None else max_sticks
    sticks: list = []  # planted stick locations, sorted
    individuals: list = []  # individuals planted before this hunt, sorted
    planted = hunted = 0  # sticks and individuals planted so far
    drawn = field._individuals
    requested = 0  # individuals asked of the field so far
    pairs: list = []
    while len(pairs) < max_pairs:
        while True:
            if planted >= stick_cap:
                return pairs
            if planted == len(field._sticks):
                field.ensure_sticks(planted + 1)
            anchor = field._sticks[planted]
            i = bisect_right(sticks, anchor)
            lo = sticks[i - 1] if i else 0.0
            hi = sticks[i] if i < planted else 1.0
            sticks.insert(i, anchor)
            planted += 1
            j = bisect_left(individuals, anchor)
            left = j > 0 and individuals[j - 1] > lo
            right = j < hunted and individuals[j] < hi
            if not (left and right):
                break
        # no stick is planted during the hunt, so lo and hi stay the
        # anchor's neighbours
        start = hunted
        while not (left and right):
            if hunted >= indiv_cap:
                return pairs
            if hunted == requested:
                requested = min(hunted + _BLOCK // 2, indiv_cap)
                field.ensure_individuals(requested)
            stop = requested
            for loc in drawn[hunted:stop]:
                if lo < loc < hi:
                    if loc < anchor:
                        left = True
                    else:
                        right = True
                    if left and right:
                        # loc set the last open side, so no equal value
                        # came before it in this scan (that one would
                        # have set the side already): index finds loc
                        stop = drawn.index(loc, hunted) + 1
                        break
            hunted = stop
        individuals += drawn[start:hunted]
        individuals.sort()
        pairs.append(_state(planted, hunted))
    return pairs


def batch_first_record(replicates: int, rng: np.random.Generator,
                       cap: int) -> np.ndarray:
    """First-record positions for many independent fields at once.

    Only the first stick and individuals up to `cap` matter: the first
    record closes at the first individual landing on the opposite side of
    stick 1 from individual 1.  Entries are 0 where all `cap` individuals
    fell on one side (the position exceeds cap).  The stick positions come
    first, then the (replicates, cap) individual positions in blocks of
    rows of about _FIRST_RECORD_BLOCK values: the same values in the same
    order as one draw, so memory does not grow with `replicates`.
    """
    if cap < 2:
        raise ValueError("need cap >= 2")
    u = rng.random(replicates)
    first = np.empty(replicates, dtype=np.int64)
    rows = max(1, _FIRST_RECORD_BLOCK // cap)
    for lo in range(0, replicates, rows):
        hi = min(lo + rows, replicates)
        sides = rng.random((hi - lo, cap)) < u[lo:hi, None]
        # column 0 never flips, so argmax is 0 exactly where no column does
        idx = (sides != sides[:, :1]).argmax(axis=1)
        first[lo:hi] = np.where(idx > 0, idx + 1, 0)
    return first
