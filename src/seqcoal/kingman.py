"""Pairwise-merge coalescent trajectories and their sequential construction.

A trajectory for n individuals is the full merge history: n - 1 events, each
merging two blocks at an exponential holding time.  Individuals can be added
one at a time: the waiting length of the next individual has hazard equal to
the current block count, so its cumulative hazard is piecewise linear and is
inverted exactly.  The per-individual lengths collected along the way form a
length sequence from which the whole trajectory can be rebuilt.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .streams import nonzero_uniform

__all__ = [
    "Partition",
    "TrajectoryEvent",
    "Trajectory",
    "PeblsSequence",
    "simulate_kingman",
    "extend_recursive",
    "build_pebls",
    "reconstruct_from_pebls",
    "time_to_mrca",
    "cumulative_hazard",
    "invert_cumulative_hazard",
]


@dataclass
class Partition:
    """Partition of {1..n} into disjoint non-empty blocks, sorted by minimum."""

    n: int
    blocks: list[frozenset]

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("blocks overlap")
            seen |= b
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks do not cover 1..{self.n}")
        self.blocks = sorted((frozenset(b) for b in self.blocks), key=min)

    def __len__(self):
        return len(self.blocks)

    def block_of(self, i: int) -> frozenset:
        for b in self.blocks:
            if i in b:
                return b
        raise ValueError(f"{i} not in ground set")


@dataclass(frozen=True)
class TrajectoryEvent:
    """One merge: the blocks labelled by their minimum elements a < b join."""

    time: float
    block_a: int
    block_b: int


@dataclass(init=False)
class Trajectory:
    """Merge history over individuals 1..n; complete once n - 1 events exist.

    Blocks are labelled by their minima, so a merge (a, b) with a < b leaves
    label a alive and retires label b.  The history is stored as three
    parallel lists sorted by event time: `times`, `block_a` (the surviving
    labels) and `block_b` (the retired labels).  `events` is a read-only
    view: a fresh list of TrajectoryEvent, made only when it is read.
    Equality compares n and the three lists.

    `Trajectory(n, events)` validates the events it is given; the builders
    of this module fill the lists directly and skip that, since their output
    is valid by construction.
    """

    n: int
    times: list
    block_a: list
    block_b: list

    def __init__(self, n: int, events=()):
        events = list(events)
        self.n = n
        self.times = [ev.time for ev in events]
        self.block_a = [ev.block_a for ev in events]
        self.block_b = [ev.block_b for ev in events]
        self.validate()

    def validate(self):
        if self.n < 1:
            raise ValueError("need at least one individual")
        if not len(self.times) == len(self.block_a) == len(self.block_b):
            raise ValueError("event times and labels differ in length")
        if len(self.times) > self.n - 1:
            raise ValueError("more events than a coalescent of this size allows")
        last = 0.0
        live = set(range(1, self.n + 1))
        for t, a, b in zip(self.times, self.block_a, self.block_b):
            if not (t > last):
                raise ValueError("event times must be strictly increasing")
            if not math.isfinite(t):
                raise ValueError("non-finite event time")
            last = t
            if not a < b:
                raise ValueError("event labels must satisfy block_a < block_b")
            if a not in live or b not in live:
                raise ValueError("event labels are not current block minima")
            live.remove(b)

    @property
    def events(self) -> list:
        return list(map(TrajectoryEvent, self.times, self.block_a, self.block_b))

    @property
    def is_complete(self) -> bool:
        return len(self.times) == self.n - 1

    def event_times(self) -> list:
        return list(self.times)

    def block_count_at(self, t: float) -> int:
        """Number of blocks at time t (right-continuous in t)."""
        return self.n - bisect_right(self.times, t)

    def partition_at(self, t: float) -> Partition:
        """Partition at time t; a merge at exactly t has already happened."""
        members = {i: [i] for i in range(1, self.n + 1)}
        for time, a, b in zip(self.times, self.block_a, self.block_b):
            if time > t:
                break
            members[a] += members.pop(b)
        return Partition(self.n, [frozenset(g) for g in members.values()])


def _trusted(cls, **fields):
    """A Trajectory or PeblsSequence from this module's builders, valid by
    construction; skips the checks that construction runs."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass
class PeblsSequence:
    """Per-individual waiting lengths, entry i holding the length of
    individual i + 2.  The first individual's length is infinite by
    convention and is not stored."""

    n_max: int
    lengths: list

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if len(self.lengths) != self.n_max - 1:
            raise ValueError("expected one length per individual 2..n_max")
        for v in self.lengths:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError("lengths must be finite and positive")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("duplicate length values")

    def length_of(self, individual: int) -> float:
        if individual == 1:
            return math.inf
        if not 2 <= individual <= self.n_max:
            raise ValueError("individual outside 1..n_max")
        return self.lengths[individual - 2]


def simulate_kingman(n: int, rng: np.random.Generator) -> Trajectory:
    """Simulate the n-individual coalescent directly.

    With b blocks the holding time is exponential with rate b(b-1)/2 and the
    merging pair is uniform among blocks.  One block of n - 1 rows of
    uniforms (u_hold, u_i, u_j) is drawn up front: the holding time is
    -ln(u_hold)/rate, and the pair is i = floor(u_i b) and j = floor(u_j (b-1))
    stepped past i.  An exact floating tie with the previous event time
    (possible only by underflow) is redrawn from the generator after the
    block.
    """
    if n < 1:
        raise ValueError("need at least one individual")
    roots = list(range(1, n + 1))  # live block labels, ascending
    t = 0.0
    times, block_a, block_b = [], [], []
    rows = nonzero_uniform(rng, (n - 1, 3)).tolist()
    for b, (u_hold, u_i, u_j) in zip(range(n, 1, -1), rows):
        rate = b * (b - 1) / 2.0
        t_next = t - math.log(u_hold) / rate
        while t_next == t:
            t_next = t - math.log(nonzero_uniform(rng)) / rate
        t = t_next
        i = int(u_i * b)
        j = int(u_j * (b - 1))
        if j >= i:
            j += 1
        if j < i:
            i, j = j, i
        times.append(t)
        block_a.append(roots[i])
        block_b.append(roots.pop(j))
    return _trusted(Trajectory, n=n, times=times, block_a=block_a,
                    block_b=block_b)


def _hazard_scan(times: list, n: int, target: float) -> tuple:
    """(hazard, time, slope) at the start of the first linear segment of the
    cumulative hazard, for n individuals and sorted event times, whose end
    reaches target; past the last event the slope is 1."""
    total, prev, count = 0.0, 0.0, n
    for t in times:
        seg = count * (t - prev)
        if total + seg >= target:
            break
        total += seg
        prev = t
        count -= 1
    return total, prev, count


def _invert_hazard(times: list, n: int, target: float) -> float:
    """Time at which the cumulative hazard reaches target > 0."""
    total, prev, count = _hazard_scan(times, n, target)
    return prev + (target - total) / count


def cumulative_hazard(traj: Trajectory, t: float) -> float:
    """Integral of the block count over [0, t] for a complete trajectory."""
    if not traj.is_complete:
        raise ValueError("trajectory is not complete")
    if not t >= 0.0:
        raise ValueError("time must be non-negative")
    times = traj.times[:bisect_left(traj.times, t)]
    total, prev, count = _hazard_scan(times, traj.n, math.inf)
    return total + count * (t - prev)


def invert_cumulative_hazard(traj: Trajectory, target: float) -> float:
    """Unique t with cumulative_hazard(traj, t) == target.

    The hazard is piecewise linear with slope equal to the block count, which
    ends at 1, so every positive target is attained and the segment-local
    inversion is exact to rounding.
    """
    if not traj.is_complete:
        raise ValueError("trajectory is not complete")
    if not (target > 0.0 and math.isfinite(target)):
        raise ValueError("target must be positive and finite")
    return _invert_hazard(traj.times, traj.n, target)


def _draw_length(times: list, n: int, u: float,
                 rng: np.random.Generator) -> float:
    """Length of individual n + 1 at the hazard -ln(u); a length that ties
    an event time is redrawn with a fresh uniform from rng."""
    while True:
        length = _invert_hazard(times, n, -math.log(u))
        pos = bisect_left(times, length)
        if pos == len(times) or times[pos] != length:
            return length
        u = nonzero_uniform(rng)


def _merge(times: list, block_a: list, block_b: list, n: int, length: float,
           u: float):
    """Merge individual n + 1 at L, in place, into a uniform block just before
    L: with m = n - pos live labels there, the k-th one for k = floor(u m),
    which is k + 1 stepped past the labels retired by then.  For u in
    [0, 1) and m < 2^53, u m rounds below m, so k < m."""
    pos = bisect_left(times, length)
    label = int(u * (n - pos)) + 1
    for b in sorted(block_b[:pos]):
        if b > label:
            break
        label += 1
    times.insert(pos, length)
    block_a.insert(pos, label)
    block_b.insert(pos, n + 1)


def extend_recursive(traj: Trajectory, rng: np.random.Generator) -> tuple:
    """Add one individual to a complete trajectory.

    Draws one row of two uniforms (u_length, u_partner).  Inverts the
    cumulative hazard at the exponential -ln(u_length) to get the new
    individual's length L, and merges it into a uniformly chosen block of
    the partition just before L, picked by u_partner.  A draw whose L
    exactly equals an existing event time is rejected and redrawn.
    Returns (L, extended trajectory).
    """
    if not traj.is_complete:
        raise ValueError("trajectory is not complete")
    times = list(traj.times)
    block_a, block_b = list(traj.block_a), list(traj.block_b)
    u_length, u_partner = nonzero_uniform(rng, 2).tolist()
    length = _draw_length(times, traj.n, u_length, rng)
    _merge(times, block_a, block_b, traj.n, length, u_partner)
    return length, _trusted(Trajectory, n=traj.n + 1, times=times,
                            block_a=block_a, block_b=block_b)


def build_pebls(n_max: int, rng: np.random.Generator) -> tuple:
    """Grow a trajectory from a single individual up to n_max, collecting the
    length of each added individual.  Returns (length sequence, trajectory).
    Runs the two parts of extend_recursive on the lists it hands over, with
    row k of one (n_max - 1, 2) block of uniforms for the k-th individual
    added; so on one stream it draws what n_max - 1 calls of
    extend_recursive draw."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    times, block_a, block_b, lengths = [], [], [], []
    rows = nonzero_uniform(rng, (n_max - 1, 2)).tolist()
    for n, (u_length, u_partner) in enumerate(rows, start=1):
        lengths.append(_draw_length(times, n, u_length, rng))
        _merge(times, block_a, block_b, n, lengths[-1], u_partner)
    return (_trusted(PeblsSequence, n_max=n_max, lengths=lengths),
            _trusted(Trajectory, n=n_max, times=times, block_a=block_a,
                     block_b=block_b))


def reconstruct_from_pebls(pebls: PeblsSequence,
                           rng: np.random.Generator) -> Trajectory:
    """Rebuild a trajectory from per-individual lengths alone.

    Individual n merges at its length L_n into the cluster of a partner
    drawn uniformly from 1 and every j < n with L_j > L_n: the live labels
    just before L_n, from which the merge step of build_pebls draws when run
    on the given lengths in order.  The partner uniforms are one block of
    n_max - 1 draws, one per individual.  The result is a valid trajectory:
    just before L_n both n and its partner still head distinct clusters,
    because each individual heads its cluster until its own length and the
    partner's length exceeds L_n.  So the event is (L_n, partner, n).
    """
    times, block_a, block_b = [], [], []
    us = rng.random(pebls.n_max - 1).tolist()
    for n, (length, u) in enumerate(zip(pebls.lengths, us), start=1):
        _merge(times, block_a, block_b, n, length, u)
    return _trusted(Trajectory, n=pebls.n_max, times=times, block_a=block_a,
                    block_b=block_b)


def time_to_mrca(traj: Trajectory) -> float:
    """Time of the final merge of a complete trajectory."""
    if not traj.is_complete:
        raise ValueError("trajectory is not complete")
    if traj.n == 1:
        return 0.0
    return traj.times[-1]
