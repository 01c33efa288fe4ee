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


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write_csv(args, header: str, rows) -> int:
    """Write the CSV header and the rows, an iterable of lines, to stdout or
    --out.  Each subcommand builds only the format asked for."""
    _emit("\n".join([header, *rows]) + "\n", args.out)
    return 0


def _write_json(args, payload) -> int:
    """Write the payload as canonical JSON to stdout or --out."""
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _at_least_one(flag: str, count: int):
    """Reject a count below 1, which would write no rows at all."""
    if count < 1:
        raise ValueError(f"--{flag} must be >= 1")


def _cmd_simulate(args) -> int:
    _at_least_one("replicates", args.replicates)
    trajs = [kingman.simulate_kingman(args.n, stream(args.seed, _NS_SIMULATE, rep))
             for rep in range(args.replicates)]
    merges = [list(zip(t.times, t.block_a, t.block_b)) for t in trajs]
    if args.format == "json":
        return _write_json(args, [
            {"replicate": rep, "n": args.n,
             "events": [{"time": t, "block_a": a, "block_b": b} for t, a, b in ev]}
            for rep, ev in enumerate(merges)])
    return _write_csv(args, "replicate,event_index,time,block_a,block_b", (
        f"{rep},{i},{t!r},{a},{b}" for rep, ev in enumerate(merges)
        for i, (t, a, b) in enumerate(ev, start=1)))


def _cmd_pebls(args) -> int:
    _at_least_one("replicates", args.replicates)
    lengths = [kingman.build_pebls(args.n, stream(args.seed, _NS_PEBLS, rep))[0].lengths
               for rep in range(args.replicates)]
    if args.format == "json":
        return _write_json(args, [
            {"replicate": rep,
             "lengths": {str(i): v for i, v in enumerate(seq, start=2)}}
            for rep, seq in enumerate(lengths)])
    return _write_csv(args, "replicate,individual,length", (
        f"{rep},{i},{v!r}" for rep, seq in enumerate(lengths)
        for i, v in enumerate(seq, start=2)))


def _exact_ints(X: np.ndarray) -> list:
    """X as nested lists, its values Python ints up to 2^53, where every
    integer is an exact double, and floats past it, so that str() writes
    `123`, or a float's repr such as `3.3304163501621165e+17`."""
    small = X <= ra_chain._EXACT_DOUBLE
    ints = np.where(small, X, 0.0).astype(np.int64).astype(object)
    return np.where(small, ints, X.astype(object)).tolist()


def _kept_states(args) -> np.ndarray:
    """Indices of the states written out, --burn-in through --steps, for
    --paths paths."""
    _at_least_one("paths", args.paths)
    if args.steps < 0 or args.burn_in < 0:
        raise ValueError("--steps and --burn-in must be >= 0")
    if args.burn_in > args.steps:
        raise ValueError("--burn-in must be <= --steps")
    return np.arange(args.burn_in, args.steps + 1)


def _cmd_ra_sample(args) -> int:
    kept = _kept_states(args)
    rng = stream(args.seed, _NS_RA_SAMPLE, 0)
    R, A = ra_chain.sample_paths_batch(args.paths, args.steps, rng, start=(1, 2))
    if float(A[-1].max()) > ra_chain._EXACT_DOUBLE:
        sys.stderr.write(
            "note: some positions passed the exact integer range and continue "
            "in double precision\n")
    R, A = R[kept].T, A[kept].T
    first = args.burn_in + 1
    if args.format == "json":
        return _write_json(args, [
            {"path": p, "first_index": first, "states": [list(s) for s in zip(rs, as_)]}
            for p, (rs, as_) in enumerate(zip(R.tolist(), A.tolist()))])
    return _write_csv(args, "path,i,R,A", (
        f"{p},{i},{r},{a}"
        for p, (rs, as_) in enumerate(zip(_exact_ints(R), _exact_ints(A)))
        for i, r, a in zip(range(first, args.steps + 2), rs, as_)))


def _cmd_ra_extract(args) -> int:
    _at_least_one("replicates", args.replicates)
    pairs = [aldous.identify_ra(aldous.StickField(stream(args.seed, _NS_RA_EXTRACT, rep)),
                                args.n)
             for rep in range(args.replicates)]
    if args.format == "json":
        return _write_json(args, [
            {"replicate": rep, "pairs": [[st.r, st.a] for st in got]}
            for rep, got in enumerate(pairs)])
    return _write_csv(args, "replicate,i,R,A", (
        f"{rep},{i},{st.r},{st.a}" for rep, got in enumerate(pairs)
        for i, st in enumerate(got, start=1)))


def _cmd_limit(args) -> int:
    kept = _kept_states(args)
    rng = stream(args.seed, _NS_LIMIT, 0)
    xi = exp_inverse(rng, args.paths)
    history = [xi]
    for _ in range(args.steps):
        xi = limit_chain.sample_limit_batch(history[-1], rng)
        history.append(xi)
    kept = np.stack(history)[kept].T.tolist()
    if args.format == "json":
        return _write_json(args, [
            {"path": p, "first_index": args.burn_in, "xi": series}
            for p, series in enumerate(kept)])
    return _write_csv(args, "path,i,xi", (
        f"{p},{i},{v!r}" for p, series in enumerate(kept)
        for i, v in enumerate(series, start=args.burn_in)))


def _cmd_wn(args) -> int:
    pmf = limit_chain.WnLaw.build(args.n).pmf_float().tolist()
    s_grid = np.linspace(0.2, 2.0, 181)
    s_kept, rel = (v.tolist() for v in limit_chain.wn_local_limit_error(args.n, s_grid))
    if args.format == "json":
        return _write_json(args, {"n": args.n, "pmf": pmf, "local_limit_s": s_kept,
                                  "local_limit_rel_err": rel})
    return _write_csv(args, "kind,index,value", [
        *(f"pmf,{k},{p!r}" for k, p in enumerate(pmf)),
        *(f"local_limit,{s!r},{e!r}" for s, e in zip(s_kept, rel))])


def _cmd_pmf(args) -> int:
    _at_least_one("cutoff", args.cutoff)
    if args.kind == "rank":
        probs = ra_chain.r_pmf_vector(args.r, args.a,
                                      max_x=args.cutoff).tolist()
    else:
        # Position law after the rank step: --r is the newly attained rank,
        # so the prior state held rank r - 1 at position a.
        if args.r < 2:
            raise ValueError("position law needs --r >= 2 (a freshly "
                             "attained rank is always at least 2)")
        probs = ra_chain.a_pmf_vector(args.r - 1, args.a, args.r,
                                      args.cutoff).tolist()
    if args.format == "json":
        return _write_json(args, {"kind": args.kind, "r": args.r, "a": args.a,
                                  "first_offset": 1, "probs": probs})
    return _write_csv(args, "x,prob",
                      (f"{x},{p!r}" for x, p in enumerate(probs, start=1)))


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
        res = verify.run_criterion(n, args.seed)
        dt = time.monotonic() - t0
        status = "pass" if res.passed else "FAIL"
        sys.stderr.write(f"criterion {n:2d} {res.name:28s} {status}  {dt:7.2f}s\n")
        results.append(res)
    all_pass = all(r.passed for r in results)
    _write_json(args, {"seed": args.seed, "all_pass": all_pass,
                       "criteria": [r.to_dict() for r in results]})
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcoal",
        description="Coalescent record-chain simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, formats=True, replicates=None, n=None, steps=None,
               burn_in=None, paths=None):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if formats:
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
                   help="most rows to write: the first x = 1..cutoff of "
                        "either law (the position law's support is infinite)")
    p.set_defaults(fn=_cmd_pmf)

    p = sub.add_parser("verify", help="run the cross-validation suite "
                                      "(one JSON report)")
    common(p, formats=False)
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
