"""The workloads, each a fixed sequence of same-shaped chunks.

Chunk c of a workload draws everything from `stream(seed, NS, c, part)`, so
the same seed gives the same inputs and outputs in any run.  A workload
object has three methods:

- `run(c, tr)` makes the calls into seqcoal that the benchmark times and
  returns what they produced;
- `check(out)` raises `CheckFailed` if that output breaks a law it must obey;
- `encode(out)` gives the bytes hashed into the determinism digest.

`tr` is the tracer (or its no-op stand-in); `tr.region(name)` groups the
calls of one phase so per-layer metrics can be read per phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from seqcoal import (aldous, cli, kingman, limit_chain, ra_chain, stats, streams,
                     verify)
from seqcoal.streams import stream


class CheckFailed(Exception):
    """A chunk's output broke one of its checks."""


def _require(ok, what: str):
    if not ok:
        raise CheckFailed(what)


def _cli(tr, scratch: str, argv: list) -> bytes:
    """Run one CLI subcommand with --out in the scratch directory and return
    the bytes it wrote; its stderr notes are swallowed."""
    path = os.path.join(scratch, f"{argv[0]}.out")
    with tr.region(f"cli.{argv[0]}"), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", path])
    _require(code == 0, f"cli {argv[0]} returned {code}")
    with open(path, "rb") as fh:
        data = fh.read()
    _require(len(data) > 0, f"cli {argv[0]} wrote nothing")
    return data


def _cli_seed(seed: int, ns: int, c: int) -> int:
    return int(stream(seed, ns, c, 99).integers(2**31))


class Coalescent:
    """c11 traffic: three constructions of one genealogy, plus one large n."""

    NS = 1
    REPLICATES = 100  # c11 replicates per chunk, each running all three routes
    N_SMALL = 10      # c11's sample size
    N_BIG = 160       # exposes build_pebls' O(n^2) growth

    def __init__(self, seed: int, scratch: str):
        self.seed, self.scratch = seed, scratch

    def run(self, c: int, tr):
        rng = [stream(self.seed, self.NS, c, k) for k in range(4)]
        small = []
        with tr.region("c11"):
            for _ in range(self.REPLICATES):
                t1 = kingman.simulate_kingman(self.N_SMALL, rng[0])
                _, t2 = kingman.build_pebls(self.N_SMALL, rng[1])
                pebls, _ = kingman.build_pebls(self.N_SMALL, rng[2])
                t3 = kingman.reconstruct_from_pebls(pebls, rng[2])
                small.append((t1, t2, t3, kingman.time_to_mrca(t1),
                              kingman.time_to_mrca(t2), kingman.time_to_mrca(t3)))
        with tr.region("nbig"):
            b1 = kingman.simulate_kingman(self.N_BIG, rng[3])
            pebls, b2 = kingman.build_pebls(self.N_BIG, rng[3])
            b3 = kingman.reconstruct_from_pebls(pebls, rng[3])
            big = (b1, b2, b3) + tuple(kingman.time_to_mrca(t) for t in (b1, b2, b3))
        cli_seed = str(_cli_seed(self.seed, self.NS, c))
        files = [_cli(tr, self.scratch, [cmd, "--seed", cli_seed])
                 for cmd in ("simulate", "pebls")]
        return small, big, files

    def check(self, out):
        small, big, _ = out
        for row in small + [big]:
            for traj in row[:3]:
                _require(traj.is_complete, "incomplete trajectory")
            for t in row[3:]:
                _require(math.isfinite(t) and t > 0.0, f"bad time to MRCA {t}")

    def encode(self, out) -> bytes:
        small, big, files = out
        times = [ev.time for row in small + [big] for traj in row[:3]
                 for ev in traj.events]
        return np.array(times).tobytes() + b"".join(files)


class RecordChain:
    """c09/c10 lockstep paths, the scalar rank ladder, position draws, the
    limit chain and a KS test; then the exact laws evaluated rather than
    sampled: verify criterion 4, the urn oracles of c02 and c03, the
    record-value law of c07 and far past its exact-weight range."""

    NS = 2
    PATHS = 1563       # one c09/c10 chunk (1e5 / 64)
    STEPS = 29         # c10's steps
    # (tag, r, a): both scalar branches and the c05 states
    LADDER = (("a3", 1, 3), ("a40", 5, 40), ("a1e5", 300, 10**5),
              ("a1e7", 10**3, 10**7), ("a1e12", 10**6, 10**12))
    DRAWS = 8          # scalar draws per ladder state
    LIMIT_STATES = 15625  # one c08/c09 limit chunk (1e6 / 64)
    URN_R_STATES = ((1, 2), (3, 7), (5, 12), (11, 12))  # c02 states, a <= 12
    URN_A_SIZES = (10, 100, 1000)  # c03's c = a + r_next, up to its cap
    URN_Y_CUTOFF = 64              # c03's cutoff
    LOCAL_N = 100                  # CLI wn's default n
    LOCAL_GRID = np.linspace(0.2, 2.0, 181)  # CLI wn's s grid
    WN_EXPONENTS = range(2, 13)  # n = 1e2 .. 1e12, both log_gamma_diff branches
    WN_GRID = np.linspace(0.05, 3.0, 64)  # k = floor(s sqrt(n)), k >= 1 kept
    PMF_ARGS = ["--r", "5", "--a", "40"]  # CLI pmf needs a state; a c05 one

    def __init__(self, seed: int, scratch: str):
        self.seed, self.scratch = seed, scratch

    def run(self, c: int, tr):
        rng = [stream(self.seed, self.NS, c, k) for k in range(3)]
        with tr.region("paths"):
            R, A = ra_chain.sample_paths_batch(self.PATHS, self.STEPS, rng[0],
                                               start=(1, 2))
        ladder = []
        for tag, r, a in self.LADDER:
            state = ra_chain.RAState(r, a)
            with tr.region(f"ladder.{tag}"):
                ranks = [ra_chain.sample_r_next(state, rng[1])
                         for _ in range(self.DRAWS)]
            with tr.region("a_next"):
                ladder.append([(x, ra_chain.sample_a_next(state, x, rng[1]))
                               for x in ranks])
        with tr.region("limit"):
            xi1 = limit_chain.sample_limit_batch(
                streams.exp_inverse(rng[2], self.LIMIT_STATES), rng[2])
        with tr.region("ks"):
            ks = stats.ks_one_sample(R[-1] ** 2 / A[-1], "exp1")
        cli_seed = str(_cli_seed(self.seed, self.NS, c))
        files = [_cli(tr, self.scratch, argv + ["--seed", cli_seed])
                 for argv in (["ra-sample"], ["limit"], ["wn"],
                              ["pmf"] + self.PMF_ARGS)]
        with tr.region("laws"):
            tails = verify.run_criterion(4, self.seed)
            urn_r = [ra_chain.urn_oracle_r(ra_chain.RAState(r, a))
                     for r, a in self.URN_R_STATES]
            urn_a = []
            for size in self.URN_A_SIZES:
                r_next = size // 3 + 1
                urn_a.append(ra_chain.urn_oracle_a(
                    ra_chain.RAState(1, size - r_next), r_next, self.URN_Y_CUTOFF))
            local = limit_chain.wn_local_limit_error(self.LOCAL_N, self.LOCAL_GRID)
            logs = []
            for e in self.WN_EXPONENTS:
                n = 10**e
                k = np.unique(np.floor(self.WN_GRID * math.sqrt(n)))
                logs.append(limit_chain.wn_log_pmf(n, k[k >= 1]))
        return R, A, ladder, xi1, ks, files, (tails, urn_r, urn_a, local, logs)

    def check(self, out):
        R, A, ladder, xi1, ks, _, (tails, urn_r, urn_a, local, logs) = out
        _require(np.all(np.diff(R, axis=0) > 0), "R not strictly increasing")
        _require(np.all(np.diff(A, axis=0) > 0), "A not strictly increasing")
        _require(np.all(A - R >= 1), "a - r < 1 on a path")
        for (_, r, a), draws in zip(self.LADDER, ladder):
            for x, a_next in draws:
                _require(r < x <= a, f"rank {x} outside ({r}, {a}]")
                _require(a_next > a and a_next - x >= 1,
                         f"position {a_next} after ({x}, {a})")
        _require(np.all(np.isfinite(xi1) & (xi1 >= 0.0)), "bad limit state")
        _require(0.0 <= ks.p_value <= 1.0, "KS p-value outside [0, 1]")
        _require(tails.passed, f"criterion 4 failed: {tails.details}")
        for (r, a), probs in zip(self.URN_R_STATES, urn_r):
            _require(len(probs) == a - r and all(p > 0 for p in probs)
                     and sum(probs) == 1, f"urn rank law of ({r}, {a}) not a law")
        for probs, tail in urn_a:
            _require(len(probs) == self.URN_Y_CUTOFF and tail > 0
                     and sum(probs) + tail == 1, "urn position law not a law")
        s_kept, rel = local
        _require(len(s_kept) == len(rel) > 0 and np.all(np.isfinite(rel)),
                 "bad local-limit errors")
        for v in logs:
            _require(np.all(np.isfinite(v) & (v <= 0.0)), "bad log pmf")

    def encode(self, out) -> bytes:
        R, A, ladder, xi1, ks, files, (tails, urn_r, urn_a, local, logs) = out
        exact = [[str(p) for p in probs] for probs in urn_r]
        exact += [[str(p) for p in probs] + [str(tail)] for probs, tail in urn_a]
        return (R.tobytes() + A.tobytes() + xi1.tobytes()
                + json.dumps([ladder, ks.statistic, tails.to_dict(), exact]).encode()
                + b"".join(files) + local[1].tobytes()
                + b"".join(v.tobytes() for v in logs))


class StickFieldWork:
    """c06 field and chain routes and the c01 field route."""

    NS = 3
    FIELDS = 600
    CAP = 64              # max_individuals and max_sticks of identify_ra
    CHAIN_DRAWS = 1563    # one c06 chunk (1e5 / 64)
    CHAIN_TOP = 50        # c06 truncation
    FIRST_RECORDS = 15625  # one c01 chunk (1e6 / 64)
    FIRST_CAP = 51

    def __init__(self, seed: int, scratch: str):
        self.seed, self.scratch = seed, scratch

    def run(self, c: int, tr):
        rng = [stream(self.seed, self.NS, c, k) for k in range(3)]
        with tr.region("fields"):
            pairs = []
            for child in rng[0].spawn(self.FIELDS):
                field = aldous.StickField(child)
                pairs.append(aldous.identify_ra(field, 2, max_individuals=self.CAP,
                                                max_sticks=self.CAP))
        with tr.region("chain"):
            a1 = ra_chain.sample_a1(rng[1], self.CHAIN_DRAWS)
            r2 = np.zeros_like(a1)
            for a in range(2, self.CHAIN_TOP + 1):
                sel = np.flatnonzero(a1 == a)
                if sel.size:
                    r2[sel] = ra_chain.sample_r_next_batch(1, a, rng[1], sel.size)
        with tr.region("first_record"):
            first = aldous.batch_first_record(self.FIRST_RECORDS, rng[2],
                                              self.FIRST_CAP)
        return pairs, a1, r2, first

    def check(self, out):
        pairs, a1, r2, first = out
        for got in pairs:
            _require(len(got) <= 2, "more pairs than asked for")
            last = (0, 0)
            for p in got:
                _require(isinstance(p, ra_chain.RAState), "pair is not an RAState")
                try:
                    ra_chain.RAState(p.r, p.a)
                except ValueError as exc:
                    raise CheckFailed(f"invalid pair ({p.r}, {p.a}): {exc}")
                _require(p.a <= self.CAP and p.r <= self.CAP, "pair past the cap")
                _require(p.r > last[0] and p.a > last[1], "pairs not increasing")
                last = (p.r, p.a)
        _require(np.all(a1 >= 2), "first record position below 2")
        tab = (a1 <= self.CHAIN_TOP)
        _require(np.all((r2[tab] >= 2) & (r2[tab] <= a1[tab])), "rank outside (1, a]")
        _require(np.all((first == 0) | ((first >= 2) & (first <= self.FIRST_CAP))),
                 "first record outside 2..cap")

    @staticmethod
    def censored(out) -> int:
        return sum(len(p) < 2 for p in out[0])

    def encode(self, out) -> bytes:
        pairs, a1, r2, first = out
        flat = [[(p.r, p.a) for p in got] for got in pairs]
        return json.dumps(flat).encode() + a1.tobytes() + r2.tobytes() + first.tobytes()


WORKLOADS = {"coalescent": Coalescent, "record_chain": RecordChain,
             "stick_field": StickFieldWork}
