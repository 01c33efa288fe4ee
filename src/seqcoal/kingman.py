"""Pairwise-merge coalescent trajectories and their sequential construction.

A trajectory for n individuals is the full merge history: n - 1 events, each
merging two blocks at an exponential holding time.  Individuals can be added
one at a time, and one loop adds them for every sequential builder: the
waiting length of the next individual has hazard equal to the current block
count, so its cumulative hazard is piecewise linear and is inverted exactly,
and the individual merges at that length into a uniform block of the
partition just before it.  The per-individual lengths collected along the
way form a length sequence from which the whole trajectory can be rebuilt
by the same loop's merge alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .streams import _nonzero_list, _whole, nonzero_uniform

__all__ = [
    "TrajectoryEvent",
    "Trajectory",
    "PeblsSequence",
    "simulate_kingman",
    "extend_recursive",
    "build_pebls",
    "reconstruct_from_pebls",
    "time_to_mrca",
]


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

    `Trajectory(n, events)` takes a whole n >= 1 and validates its events;
    the builders of this module fill the lists directly and skip that,
    since their output is valid by construction.
    """

    n: int
    times: list
    block_a: list
    block_b: list

    def __init__(self, n: int, events=()):
        events = list(events)
        self.n = _whole("n", n, 1)
        self.times = [ev.time for ev in events]
        self.block_a = [ev.block_a for ev in events]
        self.block_b = [ev.block_b for ev in events]
        self.validate()

    def validate(self):
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
        self.n_max = _whole("n_max", self.n_max, 1)
        if len(self.lengths) != self.n_max - 1:
            raise ValueError("expected one length per individual 2..n_max")
        for v in self.lengths:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError("lengths must be finite and positive")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("duplicate length values")


def simulate_kingman(n: int, rng: np.random.Generator) -> Trajectory:
    """Simulate the n-individual coalescent directly.

    With b blocks the holding time is exponential with rate b(b-1)/2 and the
    merging pair is uniform among blocks.  One flat block of 3(n - 1)
    uniforms on (0, 1) is drawn up front and read three at a time
    (u_hold, u_i, u_j): the holding time is -ln(u_hold)/rate, and the pair
    is i = floor(u_i b) and j = floor(u_j (b-1)) stepped past i.  An exact
    floating tie with the previous event time (possible only by underflow)
    is redrawn from the generator after the block.
    """
    n = _whole("n", n, 1)
    roots = list(range(1, n + 1))  # live block labels, ascending
    t = 0.0
    times, block_a, block_b = [], [], []
    block = iter(_nonzero_list(rng, 3 * (n - 1)))
    for b, u_hold, u_i, u_j in zip(range(n, 1, -1), block, block, block):
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


def _add_individuals(times: list, block_a: list, block_b: list, n: int,
                     us: list, lengths: list, rng=None):
    """Add individuals n + 1, n + 2, ... to the sorted event lists, in place.

    With rng, `us` holds (u_length, u_partner) for each individual, flat,
    and each length is drawn and appended to `lengths`.  The cumulative
    hazard is piecewise linear with slope equal to the block count, which
    ends at 1; the scan inverts it at -ln(u_length) on the first segment
    whose end reaches that target.  A length that ties an event time is
    redrawn with a fresh uniform from rng.  Without rng, `us` holds one
    u_partner per individual and `lengths` gives their lengths in order.

    The merge at length L goes into a uniform block just before L: with
    pos events before L there are m = n - pos live labels, and the k-th
    one for k = floor(u_partner m) is k + 1 stepped past the labels retired
    by then.  For u in [0, 1) and m < 2^53, u m rounds below m, so k < m.
    """
    if rng is None:
        rows = zip(lengths, us)
    else:
        flat = iter(us)
        rows = zip(flat, flat)
    for first, u in rows:
        if rng is None:
            length = first
            pos = bisect_left(times, length)
        else:
            u_length = first
            while True:
                target = -math.log(u_length)
                total, prev, count = 0.0, 0.0, n
                for t in times:
                    seg = count * (t - prev)
                    end = total + seg
                    if end >= target:
                        break
                    total = end
                    prev = t
                    count -= 1
                length = prev + (target - total) / count
                pos = bisect_left(times, length)
                if pos == len(times) or times[pos] != length:
                    break
                u_length = nonzero_uniform(rng)
            lengths.append(length)
        label = int(u * (n - pos)) + 1
        for b in sorted(block_b[:pos]):
            if b > label:
                break
            label += 1
        n += 1
        times.insert(pos, length)
        block_a.insert(pos, label)
        block_b.insert(pos, n)


def extend_recursive(traj: Trajectory, rng: np.random.Generator) -> tuple:
    """Add one individual to a complete trajectory.

    Draws two uniforms (u_length, u_partner) on (0, 1).  Inverts the
    cumulative hazard at the exponential -ln(u_length) to get the new
    individual's length L, and merges it into a uniformly chosen block of
    the partition just before L, picked by u_partner.  A draw whose L
    exactly equals an existing event time is rejected and redrawn.  Runs
    the add-individual loop of build_pebls once, on copies of the
    trajectory's lists.  Returns (L, extended trajectory).
    """
    if not traj.is_complete:
        raise ValueError("trajectory is not complete")
    times = list(traj.times)
    block_a, block_b = list(traj.block_a), list(traj.block_b)
    lengths = []
    _add_individuals(times, block_a, block_b, traj.n, _nonzero_list(rng, 2),
                     lengths, rng)
    return lengths[0], _trusted(Trajectory, n=traj.n + 1, times=times,
                                block_a=block_a, block_b=block_b)


def build_pebls(n_max: int, rng: np.random.Generator) -> tuple:
    """Grow a trajectory from a single individual up to n_max, collecting the
    length of each added individual.  Returns (length sequence, trajectory).
    One loop adds the individuals to the lists it hands over: each reads
    the next pair (u_length, u_partner) of one flat block of 2(n_max - 1)
    uniforms on (0, 1), and runs the hazard scan, the tie redraw and the
    merge of extend_recursive.  So on one stream it draws what n_max - 1
    calls of extend_recursive draw."""
    n_max = _whole("n_max", n_max, 1)
    times, block_a, block_b, lengths = [], [], [], []
    _add_individuals(times, block_a, block_b, 1,
                     _nonzero_list(rng, 2 * (n_max - 1)), lengths, rng)
    return (_trusted(PeblsSequence, n_max=n_max, lengths=lengths),
            _trusted(Trajectory, n=n_max, times=times, block_a=block_a,
                     block_b=block_b))


def reconstruct_from_pebls(pebls: PeblsSequence,
                           rng: np.random.Generator) -> Trajectory:
    """Rebuild a trajectory from per-individual lengths alone.

    Individual n merges at its length L_n into the cluster of a partner
    drawn uniformly from 1 and every j < n with L_j > L_n: the live labels
    just before L_n, from which the add-individual loop of build_pebls
    draws when it runs only its merge, on the given lengths in order.  The
    partner uniforms are one block of n_max - 1 draws, one per individual.
    The result is a valid trajectory: just before L_n both n and its
    partner still head distinct clusters, because each individual heads its
    cluster until its own length and the partner's length exceeds L_n.  So
    the event is (L_n, partner, n).
    """
    times, block_a, block_b = [], [], []
    _add_individuals(times, block_a, block_b, 1,
                     rng.random(pebls.n_max - 1).tolist(), pebls.lengths)
    return _trusted(Trajectory, n=pebls.n_max, times=times, block_a=block_a,
                    block_b=block_b)


def time_to_mrca(traj: Trajectory) -> float:
    """Time of the final merge of a complete trajectory."""
    if not traj.is_complete:
        raise ValueError("trajectory is not complete")
    if traj.n == 1:
        return 0.0
    return traj.times[-1]
