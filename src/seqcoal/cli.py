"""Command-line front end.

Every subcommand is a pure function of its flags plus the seed: replicate
streams are derived by mixing the master seed with fixed counters, so output
bytes never depend on scheduling.  Timings and diagnostics go to stderr;
artifacts go to stdout or --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import aldous, kingman, limit_chain, ra_chain, verify
from .streams import exp_inverse, stream

# Subcommand namespaces for seed derivation; verify owns 1..11 internally.
_NS_SIMULATE = 21
_NS_PEBLS = 22
_NS_RA_SAMPLE = 23
_NS_RA_EXTRACT = 24
_NS_LIMIT = 25

_FLOAT_EXACT_LIMIT = float(2**53)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write(args, header: str, rows: list, payload) -> int:
    """Write the CSV header and rows, or with --format json the payload as
    canonical JSON, to stdout or --out."""
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join([header] + rows) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    rows = []
    payload = []
    for rep in range(args.replicates):
        traj = kingman.simulate_kingman(args.n, stream(args.seed, _NS_SIMULATE, rep))
        events = []
        merges = zip(traj.times, traj.block_a, traj.block_b)
        for i, (t, a, b) in enumerate(merges, start=1):
            rows.append(f"{rep},{i},{t!r},{a},{b}")
            events.append({"time": t, "block_a": a, "block_b": b})
        payload.append({"replicate": rep, "n": args.n, "events": events})
    return _write(args, "replicate,event_index,time,block_a,block_b", rows, payload)


def _cmd_pebls(args) -> int:
    rows = []
    payload = []
    for rep in range(args.replicates):
        pebls, _ = kingman.build_pebls(args.n, stream(args.seed, _NS_PEBLS, rep))
        for i, v in enumerate(pebls.lengths, start=2):
            rows.append(f"{rep},{i},{v!r}")
        payload.append({"replicate": rep,
                        "lengths": {str(i): v for i, v in
                                    enumerate(pebls.lengths, start=2)}})
    return _write(args, "replicate,individual,length", rows, payload)


def _format_state(v: float) -> str:
    if v <= _FLOAT_EXACT_LIMIT:
        return str(int(v))
    return repr(v)


def _cmd_ra_sample(args) -> int:
    rng = stream(args.seed, _NS_RA_SAMPLE, 0)
    R, A = ra_chain.sample_paths_batch(args.paths, args.steps, rng, start=(1, 2))
    if float(A[-1].max()) > _FLOAT_EXACT_LIMIT:
        sys.stderr.write(
            "note: some positions passed the exact integer range and continue "
            "in double precision (flagged continuation)\n")
    kept = np.arange(args.burn_in, args.steps + 1)
    R, A = R[kept].T.tolist(), A[kept].T.tolist()
    rows = []
    payload = []
    for p in range(args.paths):
        for i, r, a in zip(range(args.burn_in + 1, args.steps + 2), R[p], A[p]):
            rows.append(f"{p},{i},{_format_state(r)},{_format_state(a)}")
        payload.append({"path": p, "first_index": args.burn_in + 1,
                        "states": [[r, a] for r, a in zip(R[p], A[p])]})
    return _write(args, "path,i,R,A", rows, payload)


def _cmd_ra_extract(args) -> int:
    rows = []
    payload = []
    for rep in range(args.replicates):
        field = aldous.StickField(stream(args.seed, _NS_RA_EXTRACT, rep))
        pairs = aldous.identify_ra(field, args.n)
        for i, st in enumerate(pairs, start=1):
            rows.append(f"{rep},{i},{st.r},{st.a}")
        payload.append({"replicate": rep,
                        "pairs": [[st.r, st.a] for st in pairs]})
    return _write(args, "replicate,i,R,A", rows, payload)


def _cmd_limit(args) -> int:
    rng = stream(args.seed, _NS_LIMIT, 0)
    xi = exp_inverse(rng, args.paths)
    history = [xi]
    for _ in range(args.steps):
        xi = limit_chain.sample_limit_batch(history[-1], rng)
        history.append(xi)
    kept = np.stack(history)[np.arange(args.burn_in, args.steps + 1)].T.tolist()
    rows = []
    payload = []
    for p, series in enumerate(kept):
        for off, v in enumerate(series):
            rows.append(f"{p},{args.burn_in + off},{v!r}")
        payload.append({"path": p, "first_index": args.burn_in, "xi": series})
    return _write(args, "path,i,xi", rows, payload)


def _cmd_wn(args) -> int:
    law = limit_chain.wn_pmf(args.n)
    pmf = law.pmf_float()
    s_grid = np.linspace(0.2, 2.0, 181)
    s_kept, rel = limit_chain.wn_local_limit_error(args.n, s_grid)
    payload = {"n": args.n,
               "pmf": [float(p) for p in pmf],
               "local_limit_s": [float(s) for s in s_kept],
               "local_limit_rel_err": [float(e) for e in rel]}
    rows = [f"pmf,{k},{p!r}" for k, p in enumerate(payload["pmf"])]
    rows += [f"local_limit,{s!r},{e!r}" for s, e in
             zip(payload["local_limit_s"], payload["local_limit_rel_err"])]
    return _write(args, "kind,index,value", rows, payload)


def _cmd_pmf(args) -> int:
    if args.kind == "rank":
        probs = ra_chain.r_pmf_vector(args.r, args.a)
        first = 1
    else:
        # Position law after the rank step: --r is the newly attained rank,
        # so the prior state held rank r - 1 at position a.
        if args.r < 2:
            raise ValueError("position law needs --r >= 2 (a freshly "
                             "attained rank is always at least 2)")
        prior = ra_chain.RAState(args.r - 1, args.a)
        probs = np.array([ra_chain.a_pmf(prior, args.r, y)
                          for y in range(1, args.cutoff + 1)])
        first = 1
    payload = {"kind": args.kind, "r": args.r, "a": args.a,
               "first_offset": first,
               "probs": [float(p) for p in probs]}
    rows = [f"{first + i},{p!r}" for i, p in enumerate(payload["probs"])]
    return _write(args, "x,prob", rows, payload)


def _cmd_verify(args) -> int:
    numbers = sorted(verify.CRITERIA)
    if args.criteria:
        numbers = sorted({int(tok) for tok in args.criteria.split(",")})
        unknown = [n for n in numbers if n not in verify.CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria {unknown}")
    results = []
    for n in numbers:
        t0 = time.monotonic()
        res = verify.run_criterion(n, args.seed, args.threads)
        dt = time.monotonic() - t0
        status = "pass" if res.passed else "FAIL"
        sys.stderr.write(f"criterion {n:2d} {res.name:28s} {status}  {dt:7.2f}s\n")
        results.append(res)
    report = verify.json_report(results, args.seed)
    _emit(report + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcoal",
        description="Coalescent record-chain simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, replicates=None, n=None, steps=None, burn_in=None,
               paths=None):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if replicates is not None:
            p.add_argument("--replicates", type=int, default=replicates)
        if n is not None:
            p.add_argument("--n", type=int, default=n)
        if steps is not None:
            p.add_argument("--steps", type=int, default=steps)
        if burn_in is not None:
            p.add_argument("--burn-in", dest="burn_in", type=int, default=burn_in)
        if paths is not None:
            p.add_argument("--paths", type=int, default=paths)

    p = sub.add_parser("simulate", help="Kingman trajectories")
    common(p, replicates=1, n=10)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("pebls", help="sequential-construction length sequences")
    common(p, replicates=1, n=10)
    p.set_defaults(fn=_cmd_pebls)

    p = sub.add_parser("ra-sample", help="record-chain paths (exact chain)")
    common(p, steps=30, burn_in=0, paths=100)
    p.set_defaults(fn=_cmd_ra_sample)

    p = sub.add_parser("ra-extract", help="record pairs read off stick fields")
    common(p, replicates=1, n=3)
    p.set_defaults(fn=_cmd_ra_extract)

    p = sub.add_parser("limit", help="limit-chain paths from stationarity")
    common(p, steps=30, burn_in=0, paths=100)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("wn", help="record-value pmf and local-limit grid")
    common(p, n=100)
    p.set_defaults(fn=_cmd_wn)

    p = sub.add_parser("pmf", help="transition pmf rows for one state")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--kind", choices=("rank", "position"), default="rank")
    p.add_argument("--cutoff", type=int, default=100,
                   help="rows for the position law (its support is infinite)")
    p.set_defaults(fn=_cmd_pmf)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    common(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset, e.g. 1,2,7")
    p.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
