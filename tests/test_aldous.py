"""Stick construction: partitions, lineage ranks, and the planted record chain."""

import hashlib
import math
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

import numpy as np
import pytest

from seqcoal import aldous
from seqcoal.aldous import (StickField, batch_first_record, identify_ra,
                            partition_at)
from seqcoal.stats import chi2_gof, extract_records
from seqcoal.streams import stream


def _inject(field: StickField, sticks, individuals, heights=None):
    """Force known positions into a field; no stream draws may follow."""
    field._sticks = list(sticks)
    field._individuals = list(individuals)
    if heights is not None:
        field._heights = np.asarray(heights, dtype=float)
    return field


def _figure_field():
    # seven individuals, six sticks; heights make sticks 1..3 stand at t = 1
    return _inject(StickField(stream(0, 0)),
                   sticks=[0.40, 0.30, 0.20, 0.07, 0.48, 0.60],
                   individuals=[0.35, 0.05, 0.45, 0.10, 0.25, 0.15, 0.50],
                   heights=[3.0, 2.5, 2.0, 0.8, 0.5, 0.3])


# --- field construction -----------------------------------------------------


def test_stick_field_counts_and_lazy_extension():
    field = StickField(stream(1, 0))
    field.ensure_sticks(5)
    field.ensure_individuals(8)
    assert len(field._sticks) == 5
    assert len(field._individuals) == 8
    assert all(0.0 < x < 1.0 for x in field._sticks + field._individuals)
    locs = field._sticks + field._individuals
    assert len(set(locs)) == len(locs)
    # extension past the initial counts keeps the prefix
    before = list(field._sticks)
    field.ensure_sticks(7)
    assert len(field._sticks) == 7
    assert field._sticks[:5] == before
    field.ensure_individuals(9)
    assert field._individuals[8] > 0.0


_EDGE_COUNTS = (1, 31, 32, 33, 200)


def test_positions_follow_the_stream_layout_in_any_order():
    # stick j is stream value 2(j-1) and individual i is value 2i-1, both
    # sides of the 64-value block edge, whichever kind is asked for first
    for ns in _EDGE_COUNTS:
        for ni in _EDGE_COUNTS:
            path = (20, ns, ni)
            twin = stream(*path).random(2 * max(ns, ni)).tolist()
            assert 0.0 not in twin and len(set(twin)) == len(twin)
            want = (twin[0::2][:ns], twin[1::2][:ni])

            sticks_first = StickField(stream(*path))
            sticks_first.ensure_sticks(ns)
            sticks_first.ensure_individuals(ni)
            indivs_first = StickField(stream(*path))
            indivs_first.ensure_individuals(ni)
            indivs_first.ensure_sticks(ns)
            for field in (sticks_first, indivs_first):
                assert (field._sticks, field._individuals) == want


class _ScriptedBlocks:
    """Generator stand-in whose random(size) returns the scripted blocks."""

    def __init__(self, blocks):
        self.blocks = [np.asarray(b, dtype=float) for b in blocks]

    def random(self, size=None):
        block = self.blocks.pop(0)
        assert block.shape == (size,)
        return block


def test_zero_and_repeated_positions_are_skipped_in_stream_order():
    stream_vals = [(k + 1) / 256.0 for k in range(128)]
    # even slots are sticks, odd slots individuals
    stream_vals[4] = 0.0                # zero
    stream_vals[9] = 0.0
    stream_vals[10] = stream_vals[3]    # repeat inside the block
    stream_vals[15] = stream_vals[6]
    stream_vals[66] = stream_vals[1]    # repeat of the first block
    stream_vals[71] = stream_vals[20]
    stream_vals[73] = stream_vals[10]   # repeat of a skipped repeat
    skipped = {4, 9, 10, 15, 66, 71, 73}
    blocks = [stream_vals[:64], stream_vals[64:]]
    kept = [k for k in range(128) if k not in skipped]
    want_sticks = [stream_vals[k] for k in kept if k % 2 == 0]
    want_indivs = [stream_vals[k] for k in kept if k % 2 == 1]
    assert (len(want_sticks), len(want_indivs)) == (61, 60)

    def read(first):
        field = StickField(_ScriptedBlocks(blocks))
        if first == "sticks":
            field.ensure_sticks(61)
            field.ensure_individuals(60)
        else:
            field.ensure_individuals(60)
            field.ensure_sticks(61)
        return field

    for first in ("sticks", "individuals"):
        field = read(first)
        assert field._sticks == want_sticks
        assert field._individuals == want_indivs
        locs = field._sticks + field._individuals
        assert 0.0 not in locs and len(set(locs)) == len(locs)
    # the first block keeps 30 of each kind; stick 31 needs the second
    field = StickField(_ScriptedBlocks(blocks))
    field.ensure_sticks(30)
    field.ensure_individuals(29)
    assert field._sticks[29] == want_sticks[29]
    assert field._individuals[28] == want_indivs[28]
    assert len(field._rng.blocks) == 1
    field.ensure_sticks(31)
    assert field._sticks[30] == want_sticks[30]
    assert not field._rng.blocks


def test_height_tol_validation():
    with pytest.raises(ValueError):
        StickField(stream(2, 0), height_tol=0.0)
    with pytest.raises(ValueError):
        StickField(stream(2, 0), height_tol=0.5)
    StickField(stream(2, 0), height_tol=1e-2)


def test_heights_strictly_decreasing_and_positive():
    field = StickField(stream(3, 0), height_tol=1e-3)
    field.ensure_heights()
    h = field._heights
    assert h.shape[0] >= 64
    assert np.all(h > 0.0)
    assert np.all(np.diff(h) < 0.0)
    assert field.stick_height(1) == float(h[0])
    with pytest.raises(ValueError):
        field.stick_height(h.shape[0] + 1)
    with pytest.raises(ValueError):
        field.count_at_least(h[-1] / 2)


def test_height_means_match_two_over_j():
    # E[tau_j] = sum_{k>j} 2/(k(k-1)) telescopes to 2/j
    t1 = np.empty(100_000)
    t4 = np.empty(100_000)
    for i in range(t1.shape[0]):
        field = StickField(stream(4, i), height_tol=1e-3)
        field.ensure_heights()
        t1[i] = field._heights[0]
        t4[i] = field._heights[3]
    # 3 standard errors: sd(tau_1) about 1.08, sd(tau_4) about 0.23
    assert abs(t1.mean() - 2.0) < 0.0103
    assert abs(t4.mean() - 0.5) < 0.0022


# --- partitions -------------------------------------------------------------


def _restrict(blocks: list, n: int) -> set:
    keep = set(range(1, n + 1))
    return {frozenset(b & keep) for b in blocks if b & keep}


def test_partition_at_time_zero_is_singletons():
    field = _figure_field()
    p = partition_at(field, 0.0, 7)
    assert p == [frozenset({i}) for i in range(1, 8)]


def test_partition_at_figure_configuration():
    p = partition_at(_figure_field(), 1.0, 7)
    # sorted by block minimum
    assert p == [frozenset({1}), frozenset({2, 4, 6}), frozenset({3, 7}),
                 frozenset({5})]


def test_partition_restriction_consistency():
    field = _figure_field()
    p7 = partition_at(field, 1.0, 7)
    p6 = partition_at(field, 1.0, 6)
    assert set(p6) == _restrict(p7, 6)
    assert set(p6) == {frozenset({2, 4, 6}), frozenset({5}),
                       frozenset({1}), frozenset({3})}


def test_partition_restriction_on_sampled_fields():
    for i in range(5):
        field = StickField(stream(5, i), height_tol=1e-3)
        field.ensure_heights()
        for t in (0.3, 1.1):
            p_hi = partition_at(field, t, 9)
            p_lo = partition_at(field, t, 8)
            assert set(p_lo) == _restrict(p_hi, 8)


def test_partition_above_tallest_stick_is_one_block():
    field = StickField(stream(6, 0), height_tol=1e-3)
    field.ensure_heights()
    p = partition_at(field, float(field._heights[0]) + 0.5, 6)
    assert len(p) == 1
    with pytest.raises(ValueError):
        partition_at(field, -1.0, 3)
    with pytest.raises(ValueError):
        partition_at(field, math.inf, 3)


def test_partition_merges_coarsen_with_time():
    field = StickField(stream(7, 0), height_tol=1e-3)
    field.ensure_heights()
    sizes = [len(partition_at(field, t, 8)) for t in (0.0, 0.2, 0.8, 2.0, 9.0)]
    assert sizes[0] == 8
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


# --- lineage ranks ----------------------------------------------------------
#
# identify_lineage_rank and match_rank_to_individual read one lineage's rank
# and its inverse off a field, one stick or individual at a time; they are
# the references that identify_ra and the separation oracles are checked
# against.


def _interval_bounds(separators: list, loc: float) -> tuple:
    """Ends of the interval of the sorted separators that holds loc; the
    ends of the unit interval stand in where loc has no separator."""
    i = bisect_right(separators, loc)
    lo = separators[i - 1] if i > 0 else 0.0
    hi = separators[i] if i < len(separators) else 1.0
    return lo, hi


def _crowded(sorted_locs: list, lo: float, hi: float) -> bool:
    """Some location lies strictly between lo and hi."""
    return bisect_left(sorted_locs, hi) > bisect_right(sorted_locs, lo)


def identify_lineage_rank(field: StickField, n: int, *,
                          max_rank: int | None = None) -> int:
    """Rank of individual n's lineage when it arrives: the smallest k such
    that after planting sticks 1..k, individual n sits alone among the first
    n individuals in its stick interval."""
    if n < 2:
        raise ValueError("need n >= 2; the first lineage has no finite rank")
    field.ensure_individuals(n)
    target = field._individuals[n - 1]
    others = sorted(field._individuals[i] for i in range(n - 1))
    sticks: list = []
    k = 0
    while True:
        k += 1
        if max_rank is not None and k > max_rank:
            raise RuntimeError(f"not resolved within {max_rank} sticks")
        field.ensure_sticks(k)
        insort(sticks, field._sticks[k - 1])
        if not _crowded(others, *_interval_bounds(sticks, target)):
            return k


def match_rank_to_individual(field: StickField, rank: int, *,
                             max_individuals: int | None = None) -> int:
    """The individual whose lineage carries the given rank.

    With sticks 1..rank planted, individuals are planted one at a time
    until the first one that lands alone in its stick interval while the
    interval it would occupy among sticks 1..rank-1 already holds an
    earlier individual.  That arrival is separated by stick `rank` and by
    no shorter prefix of sticks, so its length is the rank-th tallest.
    Inverse of identify_lineage_rank in every realization.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    field.ensure_sticks(rank)
    sticks_full = sorted(field._sticks[:rank])
    sticks_prev = sorted(field._sticks[:rank - 1])
    earlier: list = []
    m = 0
    while True:
        m += 1
        if max_individuals is not None and m > max_individuals:
            raise RuntimeError(f"no match within {max_individuals} individuals")
        field.ensure_individuals(m)
        loc = field._individuals[m - 1]
        alone = not _crowded(earlier, *_interval_bounds(sticks_full, loc))
        was_joined = _crowded(earlier, *_interval_bounds(sticks_prev, loc))
        if alone and was_joined:
            return m
        insort(earlier, loc)


def test_identify_lineage_rank_hand_cases():
    # one stick between the two individuals: the second lineage has rank 1
    field = _inject(StickField(stream(8, 0)), [0.5], [0.3, 0.7])
    assert identify_lineage_rank(field, 2) == 1
    # stick 1 does not separate, stick 2 does: rank 2
    field = _inject(StickField(stream(8, 1)), [0.5, 0.2], [0.3, 0.1])
    assert identify_lineage_rank(field, 2) == 2
    with pytest.raises(ValueError):
        identify_lineage_rank(field, 1)


def test_identify_lineage_rank_max_rank_guard():
    field = _inject(StickField(stream(8, 2)), [0.9, 0.8, 0.7], [0.3, 0.31])
    with pytest.raises(RuntimeError):
        identify_lineage_rank(field, 2, max_rank=3)


def _separation_oracle(field: StickField, n: int) -> float:
    """Separation time of individual n from 1..n-1, straight from the arrays:
    the tallest stick strictly between V_n and V_i is the smallest-index one,
    minimized over i."""
    v = field._individuals
    best = math.inf
    for i in range(n - 1):
        lo, hi = sorted((v[n - 1], v[i]))
        between = [j for j, s in enumerate(field._sticks, start=1)
                   if lo < s < hi]
        best = min(best, field.stick_height(min(between)))
    return best


def _separation_by_bisection(field: StickField, n: int) -> float:
    """The same separation time found by bisecting partition_at on whether
    individual n still sits alone among the first n."""
    lo = 0.0
    hi = field.stick_height(1) + 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if frozenset({n}) in partition_at(field, mid, n):
            lo = mid
        else:
            hi = mid
    return hi


def test_lineage_rank_against_separation_oracles():
    # tight height_tol materializes enough heights to cover every rank below
    field = StickField(stream(9, 0), height_tol=1e-9)
    field.ensure_heights()
    ranks = {}
    for n in range(2, 9):
        k = identify_lineage_rank(field, n)
        ranks[n] = k
        assert field.stick_height(k) == _separation_oracle(field, n)
        assert _separation_by_bisection(field, n) == pytest.approx(
            field.stick_height(k), rel=1e-9)
    # one stick per lineage: all ranks distinct
    assert len(set(ranks.values())) == len(ranks)
    # taller separation stick = earlier rank, so sorting separation times
    # descending must list the individuals in increasing-rank order
    by_sep = sorted(ranks, key=lambda n: -field.stick_height(ranks[n]))
    by_rank = sorted(ranks, key=lambda n: ranks[n])
    assert by_sep == by_rank


# --- the planted record chain ----------------------------------------------


def test_identify_ra_first_rank_is_one_and_chain_is_monotone():
    for i in range(30):
        field = StickField(stream(10, i))
        pairs = identify_ra(field, 4, max_individuals=2000, max_sticks=2000)
        assert pairs, "censored before the first record"
        assert pairs[0].r == 1
        for st in pairs:
            assert st.a - st.r >= 1
        for s0, s1 in zip(pairs, pairs[1:]):
            assert s1.r > s0.r and s1.a > s0.a


def test_identify_ra_invariant_under_order_remap():
    field = StickField(stream(11, 0))
    pairs = identify_ra(field, 4, max_individuals=3000, max_sticks=3000)
    assert len(pairs) >= 2
    # squaring is strictly increasing on (0,1): same interleaving order
    twin = _inject(StickField(stream(999, 1)),
                   [x * x for x in field._sticks],
                   [x * x for x in field._individuals])
    assert identify_ra(twin, 4, max_individuals=3000, max_sticks=3000) == pairs


def _planted_pairs(sticks, individuals, max_pairs):
    """The record chain from its definition, with no incremental state: after
    every planting, sort all planted (location, kind) items and ask whether
    the newest stick has an individual as both immediate neighbours.  Plants
    only the given positions and returns the pairs found before running out
    (the caps of identify_ra)."""
    ns, ni = 1, 0

    def flanked():
        items = sorted([(x, "stick") for x in sticks[:ns]]
                       + [(x, "individual") for x in individuals[:ni]])
        j = items.index((sticks[ns - 1], "stick"))
        return (0 < j < len(items) - 1 and items[j - 1][1] == "individual"
                and items[j + 1][1] == "individual")

    pairs = []
    while True:
        while not flanked():
            if ni == len(individuals):
                return pairs
            ni += 1
        pairs.append((ns, ni))
        if len(pairs) == max_pairs:
            return pairs
        while flanked():
            if ns == len(sticks):
                return pairs
            ns += 1


def test_identify_ra_hand_field():
    # stick 1 at 0.5 is closed on the left by individual 1 and on the right
    # by individual 3: (1, 3).  Stick 2 at 0.25 is flanked by individuals 2
    # (0.2) and 1 (0.3), so stick 3 at 0.6 anchors the next hunt; its right
    # side already holds individual 3 (0.7), and individual 6 (0.55) closes
    # its left: (3, 6).  Stick 4 at 0.95 has individuals 3 and 4 on its
    # left, and individual 8 (0.97) closes its right: (4, 8).  Stick 5 at
    # 0.15 is flanked by individuals 5 (0.1) and 2 (0.2), and no sixth
    # stick is given.
    sticks = [0.5, 0.25, 0.6, 0.95, 0.15]
    individuals = [0.3, 0.2, 0.7, 0.9, 0.1, 0.55, 0.4, 0.97]
    want = [(1, 3), (3, 6), (4, 8)]

    def read(max_pairs, max_individuals=8):
        field = _inject(StickField(stream(19, 0)), sticks, individuals)
        pairs = identify_ra(field, max_pairs, max_individuals=max_individuals,
                            max_sticks=5)
        return [(st.r, st.a) for st in pairs]

    assert read(10) == want
    assert read(2) == want[:2]
    assert read(10, max_individuals=7) == want[:2]
    assert read(10, max_individuals=2) == []
    assert _planted_pairs(sticks, individuals, 10) == want
    assert _planted_pairs(sticks, individuals[:7], 10) == want[:2]


def test_identify_ra_against_sorted_board():
    cap = 64
    for i in range(300):
        field = StickField(stream(19, i + 1))
        field.ensure_sticks(cap)
        field.ensure_individuals(cap)
        max_pairs = 1 + i % 5
        want = _planted_pairs(field._sticks, field._individuals, max_pairs)
        got = identify_ra(field, max_pairs, max_individuals=cap,
                          max_sticks=cap)
        assert [(st.r, st.a) for st in got] == want


@pytest.mark.parametrize("cap", [5, 33, 65])
def test_identify_ra_against_sorted_board_off_block_caps(cap):
    # caps that are not multiples of the 32 positions of each kind in a
    # block; the field is read lazily, and the positions do not depend on
    # how many are drawn at a time, so the board is filled in afterwards
    for i in range(200):
        field = StickField(stream(19, cap, i))
        max_pairs = 1 + i % 4
        got = identify_ra(field, max_pairs, max_individuals=cap,
                          max_sticks=cap)
        field.ensure_sticks(cap)
        field.ensure_individuals(cap)
        want = _planted_pairs(field._sticks[:cap], field._individuals[:cap],
                              max_pairs)
        assert [(st.r, st.a) for st in got] == want


def test_identify_ra_against_sorted_board_with_long_prefixes():
    # the field already holds more sticks and individuals than the chain
    # plants, so identify_ra must read only the prefix it has planted
    for i in range(100):
        field = StickField(stream(19, 7, i))
        field.ensure_sticks(200)
        field.ensure_individuals(400)
        want = _planted_pairs(field._sticks, field._individuals, 3)
        got = identify_ra(field, 3, max_individuals=400, max_sticks=200)
        assert [(st.r, st.a) for st in got] == want
        assert len(field._sticks) == 200 and len(field._individuals) == 400


def test_identify_ra_shared_stream_chunk_pinned():
    # c06's field route: fields share one generator, each read to its end
    # before the next is made, so the blocks one field draws decide where
    # the next one's positions start.  Any change to the pairs or to the
    # number of blocks drawn moves the digest or the next uniform.
    rng = stream(6, 1, 0)
    h = hashlib.sha256()
    for _ in range(2000):
        pairs = identify_ra(StickField(rng), 2, max_individuals=64,
                            max_sticks=64)
        h.update(repr([(st.r, st.a) for st in pairs]).encode())
    assert h.hexdigest() == (
        "a11ecefe7a367b777a7d8db113c0187268fd660ced3cf406a82d4b4f540098eb")
    assert rng.random() == 0.35759182933944456


def test_identify_ra_rejects_caps_below_one():
    for caps in ({"max_sticks": 0}, {"max_sticks": -3},
                 {"max_individuals": 0}, {"max_individuals": -3}):
        with pytest.raises(ValueError):
            identify_ra(StickField(stream(1, 0)), 2, **caps)
    pairs = identify_ra(StickField(stream(1, 0)), 2, max_sticks=1)
    assert all(st.r <= 1 for st in pairs)


def test_identify_ra_first_position_law():
    reps = 20_000
    counts = np.zeros(20, dtype=np.int64)  # positions 2..20 plus tail
    for i in range(reps):
        field = StickField(stream(12, i))
        pairs = identify_ra(field, 1, max_individuals=5000)
        a1 = pairs[0].a if pairs else None
        if a1 is not None and a1 <= 20:
            counts[a1 - 2] += 1
        else:
            counts[-1] += 1
    probs = [2.0 / (n * (n + 1.0)) for n in range(2, 21)]
    probs.append(1.0 - math.fsum(probs))  # exact tail 2/21
    rep = chi2_gof(counts, probs)
    assert rep.passed, rep


def test_batch_first_record_scripted():
    class Scripted:
        def __init__(self, arrays):
            self.arrays = [np.asarray(a, dtype=float) for a in arrays]

        def random(self, shape=None):
            return self.arrays.pop(0)

    # stick at 0.5; first replicate flips at the third individual, the
    # second never flips within the cap and is censored to 0
    rng = Scripted([[0.5, 0.5],
                    [[0.4, 0.45, 0.6, 0.1], [0.4, 0.3, 0.2, 0.1]]])
    out = batch_first_record(2, rng, cap=4)
    assert out.tolist() == [3, 0]
    with pytest.raises(ValueError):
        batch_first_record(2, stream(13, 0), cap=1)


def _first_record_in_one_draw(replicates, rng, cap):
    """batch_first_record from one (replicates, cap) uniform draw."""
    u = rng.random(replicates)
    sides = rng.random((replicates, cap)) < u[:, None]
    flipped = sides != sides[:, :1]
    return np.where(flipped.any(axis=1), flipped.argmax(axis=1) + 1, 0)


@pytest.mark.parametrize("block", [128, None])
def test_batch_first_record_reads_blocks_as_one_draw(monkeypatch, block):
    # the individual positions come in blocks of rows: the same values in
    # the same order as one draw, and the same generator state after it,
    # also where one row is wider than a block
    if block is not None:
        monkeypatch.setattr(aldous, "_FIRST_RECORD_BLOCK", block)
    for replicates, cap in ((1, 2), (7, 51), (1000, 51), (30, 300),
                            (15625, 51)):
        rng, ref = stream(13, 2, cap), stream(13, 2, cap)
        got = batch_first_record(replicates, rng, cap)
        assert got.dtype == np.int64
        assert got.tolist() == _first_record_in_one_draw(replicates, ref,
                                                         cap).tolist()
        assert rng.random() == ref.random()


def test_batch_first_record_law():
    vals = batch_first_record(30_000, stream(13, 1), cap=64)
    counts = np.zeros(20, dtype=np.int64)
    for v in vals:
        if 2 <= v <= 20:
            counts[v - 2] += 1
        else:
            counts[-1] += 1  # censored entries have position > 64 > 20
    probs = [2.0 / (n * (n + 1.0)) for n in range(2, 21)]
    probs.append(1.0 - math.fsum(probs))
    rep = chi2_gof(counts, probs)
    assert rep.passed, rep


# --- rank-to-individual matching -------------------------------------------


def test_match_rank_hand_case():
    field = _inject(StickField(stream(14, 0)), [0.5], [0.3, 0.7])
    assert match_rank_to_individual(field, 1) == 2
    with pytest.raises(ValueError):
        match_rank_to_individual(field, 0)


def test_match_inverts_identify_lineage_rank():
    field = StickField(stream(15, 0))
    for n in range(2, 9):
        k = identify_lineage_rank(field, n)
        assert match_rank_to_individual(field, k) == n


def _first_qualifying_individual(sticks, k, indivs):
    """Independent restatement of the matching criterion: the first individual
    alone in its cell among sticks 1..k whose cell among sticks 1..k-1 already
    holds an earlier individual.  None when no prefix individual qualifies."""
    full = sorted(sticks[:k])
    prev = sorted(sticks[:k - 1])

    def crowded(seps, v, earlier):
        i = bisect_right(seps, v)
        lo = seps[i - 1] if i > 0 else 0.0
        hi = seps[i] if i < len(seps) else 1.0
        return any(lo < w < hi for w in earlier)

    for n in range(1, len(indivs) + 1):
        v = indivs[n - 1]
        earlier = indivs[:n - 1]
        if not crowded(full, v, earlier) and crowded(prev, v, earlier):
            return n
    return None


def test_match_agrees_with_brute_force_and_screens():
    m = 60
    for i in range(12):
        field = StickField(stream(16, i))
        field.ensure_sticks(5)
        field.ensure_individuals(m)
        for k in range(1, 6):
            want = _first_qualifying_individual(field._sticks, k,
                                                field._individuals[:m])
            if want is None:
                # no qualifier in the prefix: the match must lie beyond it
                with pytest.raises(RuntimeError):
                    match_rank_to_individual(field, k, max_individuals=m)
            else:
                assert match_rank_to_individual(field, k) == want


def test_match_bounded_when_all_sticks_are_flanked():
    # once every one of the first t sticks has individuals as both neighbors
    # among the first s individuals, each of those ranks matches within s
    t, s = 4, 200
    found = 0
    for i in range(40):
        field = StickField(stream(17, i))
        field.ensure_sticks(t)
        field.ensure_individuals(s)
        items = sorted([(x, "s") for x in field._sticks[:t]]
                       + [(x, "v") for x in field._individuals[:s]])
        flanked = all(
            0 < j < len(items) - 1
            and items[j - 1][1] == "v" and items[j + 1][1] == "v"
            for j, (_, kind) in enumerate(items) if kind == "s")
        if not flanked:
            continue
        found += 1
        for k in range(1, t + 1):
            assert match_rank_to_individual(field, k) <= s
    assert found >= 20  # the premise should hold for most seeds at s = 200


# --- cross-module: record extraction from observed lengths ------------------


def test_extract_records_matches_planted_chain():
    n_window = 60
    field = StickField(stream(18, 0), height_tol=1e-9)
    field.ensure_heights()
    ranks = [identify_lineage_rank(field, n) for n in range(2, n_window + 1)]
    lengths = [field.stick_height(k) for k in ranks]
    ext = extract_records(lengths, first_index=2, ranks=ranks)
    chain = identify_ra(field, 20, max_individuals=n_window)
    truth = [(st.r, st.a) for st in chain]
    assert ext.valid >= 2
    assert ext.pairs[:ext.valid] == truth[:ext.valid]
