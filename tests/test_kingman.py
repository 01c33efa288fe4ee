"""Coalescent trajectories, hazard inversion, and the sequential construction."""

import functools
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from seqcoal.kingman import (PeblsSequence, Trajectory, TrajectoryEvent,
                             _invert_hazard, _merge, build_pebls,
                             extend_recursive, reconstruct_from_pebls,
                             simulate_kingman, time_to_mrca)
from seqcoal.stats import chi2_gof, chi2_two_sample, ks_one_sample
from seqcoal.streams import stream
from test_ra_chain import ScriptedRNG


def _partition_at(traj: Trajectory, t: float) -> list:
    """Blocks of the trajectory at time t, as frozensets sorted by their
    minima; a merge at exactly t has already happened."""
    members = {i: [i] for i in range(1, traj.n + 1)}
    for time, a, b in zip(traj.times, traj.block_a, traj.block_b):
        if time > t:
            break
        members[a] += members.pop(b)
    return sorted((frozenset(g) for g in members.values()), key=min)


def _cumulative_hazard(traj: Trajectory, t: float) -> float:
    """Integral of the block count over [0, t] in closed form: the count
    starts at n and loses one at each event, so each event t_i < t takes
    t - t_i off n t."""
    return traj.n * t - sum(t - s for s in traj.times if s < t)


def test_simulate_structure():
    traj = simulate_kingman(8, stream(1, 0))
    assert traj.n == 8
    assert traj.is_complete
    times = traj.times
    assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))
    assert len(_partition_at(traj, 0.0)) == 8
    assert len(_partition_at(traj, times[-1])) == 1
    # one block disappears per event
    for i, t in enumerate(times):
        assert len(_partition_at(traj, t)) == 8 - i - 1


def test_trajectory_rejects_stale_labels():
    # after 1+2 merge, label 2 no longer names a block
    evs = [TrajectoryEvent(0.5, 1, 2), TrajectoryEvent(1.0, 2, 3)]
    with pytest.raises(ValueError):
        Trajectory(3, evs)


def test_mrca_trivial_and_pair_law():
    assert time_to_mrca(Trajectory(1, [])) == 0.0
    # two individuals: the merge time is Exp(1)
    times = [time_to_mrca(simulate_kingman(2, stream(2, i)))
             for i in range(4000)]
    assert ks_one_sample(times, "exp1").passed


def test_mrca_mean_ten_individuals():
    # E[T_10] = 2(1 - 1/10) = 1.8, sd about 1.07
    vals = [time_to_mrca(simulate_kingman(10, stream(3, i)))
            for i in range(4000)]
    assert np.mean(vals) == pytest.approx(1.8, abs=0.06)


def test_cumulative_hazard_round_trip():
    traj = simulate_kingman(9, stream(4, 0))
    for target in [0.05, 0.8, 3.0, 11.0]:
        t = _invert_hazard(traj.times, traj.n, target)
        assert _cumulative_hazard(traj, t) == pytest.approx(target, abs=1e-12)
    # piecewise slopes equal the block count
    t0 = traj.times[0]
    assert _invert_hazard(traj.times, traj.n, 9 * t0 / 2) == pytest.approx(
        t0 / 2)


def test_inversion_at_an_event_returns_its_time():
    # with dyadic times the arithmetic is exact: hazard 1.5 at t = 0.5 and
    # 3.5 at t = 1.5; a target equal to the hazard at an event is inverted
    # on the segment that ends there (the scan stops at total + seg >= target)
    traj = Trajectory(3, [TrajectoryEvent(0.5, 1, 2), TrajectoryEvent(1.5, 1, 3)])
    assert _cumulative_hazard(traj, 0.5) == 1.5
    assert _cumulative_hazard(traj, 1.5) == 3.5
    for t in traj.times:
        target = _cumulative_hazard(traj, t)
        assert _invert_hazard(traj.times, 3, target) == t
        assert _invert_hazard(traj.times, 3, math.nextafter(target, 0.0)) < t
        assert _invert_hazard(traj.times, 3, math.nextafter(target, 9.0)) > t


def test_extend_recursive_grows_by_one():
    traj = simulate_kingman(5, stream(5, 0))
    length, bigger = extend_recursive(traj, stream(5, 1))
    assert bigger.n == 6
    assert bigger.is_complete
    assert length in {ev.time for ev in bigger.events}
    # old events survive with their labels
    old = {(ev.time, ev.block_a, ev.block_b) for ev in traj.events}
    new = {(ev.time, ev.block_a, ev.block_b) for ev in bigger.events}
    assert old <= new
    (added,) = new - old
    assert added[2] == 6  # newcomer merges under its own label
    # adding an individual can only push the MRCA later
    assert time_to_mrca(bigger) >= time_to_mrca(traj)


def test_extend_from_singleton_gives_exp1_lengths():
    # from one individual the hazard is t, so L_2 ~ Exp(1)
    lengths = []
    for i in range(4000):
        length, _ = extend_recursive(Trajectory(1, []), stream(6, i))
        lengths.append(length)
    assert ks_one_sample(lengths, "exp1").passed


def test_build_pebls_shape_and_conventions():
    pebls, traj = build_pebls(12, stream(7, 0))
    assert isinstance(pebls, PeblsSequence)
    assert isinstance(traj, Trajectory)
    assert traj.n == 12 and traj.is_complete
    assert pebls.n_max == 12
    vals = pebls.lengths
    assert len(vals) == 11
    assert all(v > 0 and math.isfinite(v) for v in vals)
    assert len(set(vals)) == 11


def test_build_pebls_mrca_is_largest_length():
    # the last merge is the moment the last outstanding lineage joins, and
    # each individual n >= 2 merges exactly at its own length
    pebls, traj = build_pebls(10, stream(8, 0))
    assert time_to_mrca(traj) == max(pebls.lengths)
    assert {ev.time for ev in traj.events} == set(pebls.lengths)


def test_reconstruction_repeats_the_recursive_mrca():
    # for the same lengths both trees have their events at the lengths, so
    # both T_MRCA values are max(lengths), whatever partners the
    # reconstruction draws: c11's reconstructed route samples the
    # recursive route's T_MRCA again on another stream
    for seed in range(2000):
        pebls, built = build_pebls(10, stream(39, seed, 0))
        rebuilt = reconstruct_from_pebls(pebls, stream(39, seed, 1))
        assert built.times == rebuilt.times == sorted(pebls.lengths)
        assert time_to_mrca(built) == time_to_mrca(rebuilt)


@pytest.mark.parametrize("n", [2, 10, 160])
def test_build_pebls_is_repeated_extension(n):
    # build_pebls runs the step of extend_recursive on its own lists: on the
    # same stream, n - 1 extensions from one individual give the same draws
    pebls, built = build_pebls(n, stream(32, n))
    rng = stream(32, n)
    traj = Trajectory(1, [])
    lengths = []
    for _ in range(n - 1):
        length, traj = extend_recursive(traj, rng)
        lengths.append(length)
    assert pebls.lengths == lengths
    assert built.n == traj.n == n
    assert built.events == traj.events


@pytest.mark.parametrize("n", [2, 10, 160])
def test_simulate_reads_one_block_of_rows(n):
    # event k reads row k of one (n - 1, 3) block: hold -ln(u_hold)/rate,
    # then label floor(u_i b) of the b live ones and label floor(u_j (b - 1))
    # of the others
    rows = stream(37, n).random((n - 1, 3)).tolist()
    live = list(range(1, n + 1))
    t, events = 0.0, []
    for b, (u_hold, u_i, u_j) in zip(range(n, 1, -1), rows):
        t += -math.log(u_hold) / (b * (b - 1) / 2)
        first = live[int(u_i * b)]
        others = [label for label in live if label != first]
        second = others[int(u_j * (b - 1))]
        events.append(TrajectoryEvent(t, min(first, second), max(first, second)))
        live.remove(max(first, second))
    assert simulate_kingman(n, stream(37, n)).events == events


@pytest.mark.parametrize("n", [2, 10, 160])
def test_build_pebls_reads_one_block_of_rows(n):
    # individual m + 1 reads row m of one (n - 1, 2) block: its length
    # inverts the hazard at -ln(u_length), and its partner is entry
    # floor(u_partner len) of the eligible list 1, then every j <= m with
    # L_j > L
    rows = stream(38, n).random((n - 1, 2)).tolist()
    traj, lengths = Trajectory(1, []), []
    for m, (u_length, u_partner) in enumerate(rows, start=1):
        length = _invert_hazard(traj.times, traj.n, -math.log(u_length))
        eligible = [1] + [j for j in range(2, m + 1) if lengths[j - 2] > length]
        partner = eligible[int(u_partner * len(eligible))]
        lengths.append(length)
        traj = Trajectory(m + 1, sorted(
            traj.events + [TrajectoryEvent(length, partner, m + 1)],
            key=lambda ev: ev.time))
    pebls, built = build_pebls(n, stream(38, n))
    assert pebls.lengths == lengths
    assert built == traj


@pytest.mark.parametrize("n", [1, 2, 3, 10, 2**20, 2**53 - 1])
def test_merge_end_uniforms_pick_end_labels(n):
    # floor(u m) over m live labels: u = 0 picks the first and the largest
    # double below 1 the last, so the index never reaches m.  Below every
    # event all n labels are live; in the n = 3 history below, label 2 is
    # retired at 0.5, so just before 1.0 the live labels are 1 and 3
    for u, label in ((0.0, 1), (1.0 - 2.0**-53, n)):
        times, block_a, block_b = [], [], []
        _merge(times, block_a, block_b, n, 0.25, u)
        assert (times, block_a, block_b) == ([0.25], [label], [n + 1])
    for u, label in ((0.0, 1), (1.0 - 2.0**-53, 3)):
        times, block_a, block_b = [0.5, 1.5], [1, 1], [2, 3]
        _merge(times, block_a, block_b, 3, 1.0, u)
        assert block_a[1] == label and block_b[1] == 4


def test_reconstruct_two_individuals_is_forced():
    pebls = PeblsSequence(2, [0.7])
    traj = reconstruct_from_pebls(pebls, stream(9, 0))
    assert traj.n == 2
    assert traj.events == [TrajectoryEvent(0.7, 1, 2)]


def test_reconstruct_preserves_lengths_and_mrca():
    pebls, built = build_pebls(9, stream(10, 0))
    rebuilt = reconstruct_from_pebls(pebls, stream(10, 1))
    assert rebuilt.n == 9 and rebuilt.is_complete
    assert {ev.time for ev in rebuilt.events} == set(pebls.lengths)
    assert time_to_mrca(rebuilt) == time_to_mrca(built)


def _reconstruct_by_eligible_lists(pebls, rng):
    """The partner rule written out: individual n's partner is entry
    floor(u len) of the list of 1 and every j < n with L_j > L_n, with u
    read from one block of uniforms, and the events are laid out by sorting
    the lengths."""
    lengths = pebls.lengths
    partners = []
    us = rng.random(pebls.n_max - 1).tolist()
    for n, u in zip(range(2, pebls.n_max + 1), us):
        ln = lengths[n - 2]
        eligible = [1] + [i for i, v in zip(range(2, n), lengths) if v > ln]
        partners.append(eligible[int(u * len(eligible))])
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    return Trajectory(pebls.n_max, [TrajectoryEvent(lengths[k], partners[k], k + 2)
                                    for k in order])


@pytest.mark.parametrize("n,seeds", [(1, 20), (2, 300), (3, 300), (10, 300),
                                     (160, 30)])
def test_reconstruct_matches_eligible_lists(n, seeds):
    # the merge step draws the k-th live label just before L_n; the eligible
    # list draws its k-th entry: on the same stream both give each partner,
    # for the lengths of build_pebls and for the same lengths reversed
    for seed in range(seeds):
        pebls, _ = build_pebls(n, stream(36, n, seed, 0))
        for lengths in (pebls.lengths, pebls.lengths[::-1]):
            given = PeblsSequence(n, list(lengths))
            assert (reconstruct_from_pebls(given, stream(36, n, seed, 1))
                    == _reconstruct_by_eligible_lists(given,
                                                      stream(36, n, seed, 1)))


def test_trajectory_rejects_bad_labels():
    # label 0 lies outside 1..n: with it the one event would leave 2 blocks
    with pytest.raises(ValueError):
        Trajectory(2, [TrajectoryEvent(1.0, 0, 1)])
    # label n + 1 lies outside 1..n
    with pytest.raises(ValueError):
        Trajectory(2, [TrajectoryEvent(1.0, 1, 3)])
    # block_a must be the smaller label
    with pytest.raises(ValueError):
        Trajectory(2, [TrajectoryEvent(1.0, 2, 1)])
    # a block cannot merge with itself
    with pytest.raises(ValueError):
        Trajectory(2, [TrajectoryEvent(1.0, 1, 1)])
    traj = Trajectory(3, [TrajectoryEvent(0.5, 2, 3), TrajectoryEvent(1.0, 1, 2)])
    assert traj.is_complete
    assert _partition_at(traj, 0.7) == [frozenset({1}), frozenset({2, 3})]
    assert len(_partition_at(traj, 1.0)) == 1


def test_trajectory_and_pebls_reject_malformed_input():
    ev = TrajectoryEvent
    with pytest.raises(ValueError, match="at least one individual"):
        Trajectory(0)
    with pytest.raises(ValueError, match="more events"):
        Trajectory(2, [ev(0.5, 1, 2), ev(1.0, 1, 2)])
    # a NaN time fails the order check; an infinite one the finiteness check
    for times, message in (((1.0, 1.0), "strictly increasing"),
                           ((0.5, math.nan), "strictly increasing"),
                           ((0.5, math.inf), "non-finite")):
        with pytest.raises(ValueError, match=message):
            Trajectory(3, [ev(times[0], 1, 2), ev(times[1], 1, 3)])
    traj = Trajectory(3, [ev(0.5, 1, 2), ev(1.0, 1, 3)])
    traj.block_b.pop()
    with pytest.raises(ValueError, match="differ in length"):
        traj.validate()
    for n_max, lengths, message in ((0, [], "n_max"), (3, [0.5], "one length"),
                                    (2, [math.inf], "finite and positive"),
                                    (2, [0.0], "finite and positive"),
                                    (3, [0.5, 0.5], "duplicate")):
        with pytest.raises(ValueError, match=message):
            PeblsSequence(n_max, lengths)


def test_builders_reject_empty_and_incomplete_trajectories():
    for build in (simulate_kingman, build_pebls):
        with pytest.raises(ValueError, match=">= 1|at least one"):
            build(0, stream(37, 0))
    partial = Trajectory(3, [TrajectoryEvent(0.5, 1, 2)])
    for use in (lambda t: extend_recursive(t, stream(37, 1)), time_to_mrca):
        with pytest.raises(ValueError, match="not complete"):
            use(partial)


def test_simulate_redraws_a_tied_event_time():
    # the first holding time -ln(0.001)/3 = 2.30 puts t where floats are
    # 4.4e-16 apart; a u_hold of 1 - 2^-53 then adds 1.1e-16 / 1, which
    # rounds back to t, so the second time is redrawn from u = 0.5
    u_top = 1.0 - 2.0**-53
    rng = ScriptedRNG([0.001, 0.1, 0.2, u_top, 0.3, 0.4, 0.5])
    traj = simulate_kingman(3, rng)
    t1 = -math.log(0.001) / 3.0
    assert t1 - math.log(u_top) == t1
    assert traj.times == [t1, t1 - math.log(0.5)]
    assert rng.values == []


def test_build_pebls_redraws_a_tied_length():
    # individual 2 gets length ln 2; at the hazard -ln 0.25 = 2 ln 2, two
    # blocks up to ln 2 bring individual 3 to exactly ln 2, a tie, so its
    # length is redrawn from u = 0.75: hazard 0.288 at slope 2
    rng = ScriptedRNG([0.5, 0.3, 0.25, 0.6, 0.75])
    pebls, traj = build_pebls(3, rng)
    assert -math.log(0.25) == 2.0 * -math.log(0.5)
    assert pebls.lengths == [-math.log(0.5), -math.log(0.75) / 2.0]
    assert rng.values == []
    traj.validate()


def _builder_outputs(n, seed):
    direct = simulate_kingman(n, stream(31, n, seed, 0))
    pebls, built = build_pebls(n, stream(31, n, seed, 1))
    rebuilt = reconstruct_from_pebls(pebls, stream(31, n, seed, 2))
    _, extended = extend_recursive(direct, stream(31, n, seed, 3))
    return direct, built, rebuilt, extended


@pytest.mark.parametrize("n,seeds", [(1, 50), (2, 300), (3, 300), (10, 300),
                                     (160, 10)])
def test_builder_outputs_validate(n, seeds):
    # the builders skip validate() and the length checks; their outputs must
    # pass them all the same
    for seed in range(seeds):
        for traj in _builder_outputs(n, seed):
            traj.validate()
            assert traj.is_complete
            end = traj.events[-1].time if traj.events else 0.0
            assert len(_partition_at(traj, end)) == 1
        pebls, _ = build_pebls(n, stream(31, n, seed, 1))
        PeblsSequence(pebls.n_max, list(pebls.lengths))


def test_builder_events_pinned():
    # sha256 of every event of the four builders at fixed seeds: any change
    # to a draw, a time or a label breaks it
    h = hashlib.sha256()
    for n in (1, 2, 3, 10, 160):
        for seed in range(3):
            for traj in _builder_outputs(n, seed):
                for ev in traj.events:
                    h.update(f"{ev.time.hex()},{ev.block_a},{ev.block_b};".encode())
    assert h.hexdigest() == (
        "0ac2a392c71eecb0b4baa24ab309f5c92ba8b0634279cf2fa8aeb03835d9447f")


@pytest.mark.parametrize("n", [1, 2, 10, 160])
def test_builders_make_no_events(n, monkeypatch):
    # the builders fill three parallel lists and time_to_mrca reads the
    # last time; a TrajectoryEvent is made only when `events` is read
    made = []
    init = TrajectoryEvent.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryEvent, "__init__", counting_init)
    trajs = _builder_outputs(n, 0)
    for traj in trajs:
        time_to_mrca(traj)
    assert made == []
    assert len(trajs[0].events) == n - 1
    assert len(made) == n - 1


@pytest.mark.parametrize("n", [1, 2, 10])
def test_events_view_round_trips_and_is_a_copy(n):
    for traj in _builder_outputs(n, 1):
        assert Trajectory(traj.n, traj.events) == traj
        before = (list(traj.times), list(traj.block_a), list(traj.block_b))
        view = traj.events
        view.reverse()
        view.append(TrajectoryEvent(math.inf, 1, 2))
        assert (traj.times, traj.block_a, traj.block_b) == before
        assert traj.events != view
        with pytest.raises(AttributeError):
            traj.events = []


def test_trajectory_equality_reads_labels():
    one = Trajectory(3, [TrajectoryEvent(0.5, 1, 2), TrajectoryEvent(1.0, 1, 3)])
    assert one == Trajectory(3, one.events)
    assert one != Trajectory(3, [TrajectoryEvent(0.5, 2, 3),
                                 TrajectoryEvent(1.0, 1, 2)])
    assert one != Trajectory(4, one.events)


# Window laws of the length sequence (Saunders, Tavare and Watterson 1984):
# over L_2..L_N the largest length sits at A_1 >= j with probability
# 2(N + 1 - j)/((N - 1) j); its limit in N is the chain's first record law.
WINDOW_N = 12
WINDOW_SAMPLES = 10000


def _a1_pmf(N):
    tail = [2 * (N + 1 - j) / ((N - 1) * j) for j in range(2, N + 2)]
    return [tail[k] - tail[k + 1] for k in range(N - 1)]


def _a1_counts(windows):
    counts = np.zeros(WINDOW_N - 1)
    for lengths in windows:
        counts[lengths.index(max(lengths))] += 1
    return counts


@functools.cache
def _pebls_windows():
    rng = stream(34, 0)
    return [build_pebls(WINDOW_N, rng)[0].lengths
            for _ in range(WINDOW_SAMPLES)]


@functools.cache
def _direct_windows():
    # with blocks labelled by their minima, L_n is the time of the merge
    # that retires label n
    rng = stream(34, 1)
    windows = []
    for _ in range(WINDOW_SAMPLES):
        traj = simulate_kingman(WINDOW_N, rng)
        windows.append([traj.times[traj.block_b.index(m)]
                        for m in range(2, WINDOW_N + 1)])
    return windows


def test_window_law_on_build_pebls():
    assert chi2_gof(_a1_counts(_pebls_windows()), _a1_pmf(WINDOW_N)).passed


def test_window_law_on_the_direct_route():
    assert chi2_gof(_a1_counts(_direct_windows()), _a1_pmf(WINDOW_N)).passed


def _window_cell(lengths):
    """(A_1, A_2, window rank of L_{A_2}) with 0-based positions and rank 1
    for the largest length; A_2 is the position of the largest length after
    A_1, and (A_1, -1, 0) stands for a window with nothing after A_1."""
    a1 = lengths.index(max(lengths))
    rest = lengths[a1 + 1:]
    if not rest:
        return a1, -1, 0
    a2 = a1 + 1 + rest.index(max(rest))
    return a1, a2, 1 + sum(v > lengths[a2] for v in lengths)


def test_window_statistic_agrees_between_routes():
    # 221 cells at N = 12; the lengths of build_pebls check the hazard
    # inversion, those of the direct route also check the choice of pair
    built = Counter(map(_window_cell, _pebls_windows()))
    direct = Counter(map(_window_cell, _direct_windows()))
    cells = sorted(built.keys() | direct.keys())
    assert chi2_two_sample([built[c] for c in cells],
                           [direct[c] for c in cells]).passed


# Root split: just before the last merge, individual 1's block holds K
# individuals with P(K = k) = 2k/(n(n - 1)), k = 1..n - 1.  Unlike T_MRCA,
# K reads the labels.
SPLIT_N = 10
SPLIT_SAMPLES = 10000


def _root_split(traj):
    size = dict.fromkeys(range(1, traj.n + 1), 1)
    for a, b in zip(traj.block_a[:-1], traj.block_b[:-1]):
        size[a] += size.pop(b)
    return size[1]


def _direct(rng):
    return simulate_kingman(SPLIT_N, rng)


def _recursive(rng):
    return build_pebls(SPLIT_N, rng)[1]


def _reconstructed(rng):
    return reconstruct_from_pebls(build_pebls(SPLIT_N, rng)[0], rng)


ROUTES = {"direct": _direct, "recursive": _recursive,
          "reconstructed": _reconstructed}


@functools.cache
def _split_counts(name, *path):
    rng = stream(35, SPLIT_N, *path)
    counts = np.zeros(SPLIT_N - 1)
    for _ in range(SPLIT_SAMPLES):
        counts[_root_split(ROUTES[name](rng)) - 1] += 1
    return counts


@pytest.mark.parametrize("name", ROUTES)
def test_root_split_law(name):
    probs = [2 * k / (SPLIT_N * (SPLIT_N - 1)) for k in range(1, SPLIT_N)]
    assert chi2_gof(_split_counts(name), probs).passed


@pytest.mark.parametrize("one,other", [("direct", "recursive"),
                                       ("direct", "reconstructed"),
                                       ("recursive", "reconstructed")])
def test_root_split_agrees_between_routes(one, other):
    # two independent samples: each route on a stream of its own, where the
    # one-sample tests run the three routes on one stream
    index = list(ROUTES).index
    assert chi2_two_sample(_split_counts(one, 1, index(one)),
                           _split_counts(other, 1, index(other))).passed
