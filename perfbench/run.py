"""seqcoal benchmark: one workload, one process, timed or traced.

    python3 perfbench/run.py --workload coalescent --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, never from an installed copy.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer ones
from a traced pass.  The line before it is the environment block.  Both also
go to `.perfbench_out/`, with the raw spans of one traced chunk.  See
perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

import calibrate  # noqa: E402  (numpy import counts toward set-up)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

FIXED_CHUNKS = 4   # chunks 0..3 feed the digest and the exact counters
SETUP_RUNS = 5     # this process plus four probe processes, two run before
                   # the timed loop and two after it, so that set-up is
                   # sampled across the run rather than in one slow phase


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # measure set-up only, then exit
    return p.parse_args(argv)


def load_program():
    """Import seqcoal from this checkout's src/, and the benchmark modules.
    Also returns the seconds spent importing numpy and scipy."""
    if not (SRC / "seqcoal" / "__init__.py").is_file():
        sys.exit(f"error: no seqcoal sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    imports_s = perf_counter() - T_START
    import seqcoal
    if Path(seqcoal.__file__).resolve().parent != (SRC / "seqcoal").resolve():
        sys.exit(f"error: seqcoal imported from {seqcoal.__file__}, not {SRC}")
    import spans as tracing
    import workloads
    return tracing, workloads, imports_s


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint() -> str:
    """Hash of the program and benchmark sources: the 'same commit' key."""
    h = hashlib.sha256()
    for base in (SRC, Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class ChunkRunner:
    """Runs chunks of one workload and tallies latency, failures and the
    digests of the fixed chunks.  A failed chunk is counted, never redrawn."""

    def __init__(self, wl, tr):
        self.wl, self.tr = wl, tr
        self.latencies = []
        self.failed = 0
        self.digests = {}
        self.censored = {}

    def one(self, c: int):
        """Run chunk c; returns (output or None, seconds)."""
        self.tr.chunk = c
        t0 = perf_counter()
        try:
            out = self.wl.run(c, self.tr)
        except Exception:
            out = None
            err = traceback.format_exc()
        t1 = perf_counter()
        if out is not None:
            try:
                self.wl.check(out)
                err = None
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            self.failed += 1
            sys.stderr.write(f"chunk {c} failed:\n{err}")
            out = None
        return out, t1 - t0

    def record(self, c: int, out):
        if c < FIXED_CHUNKS:
            self.digests[c] = "failed" if out is None else sha(self.wl.encode(out))
            if out is not None and hasattr(self.wl, "censored"):
                self.censored[c] = self.wl.censored(out)

    def run(self, *, seconds=None, count=None, after_chunk=None, refs=None):
        """Chunks 0, 1, ... until `count` are done, or until `seconds` have
        passed and at least FIXED_CHUNKS are done.  With a `refs` list, the
        reference kernel is timed before each chunk and after the last."""
        deadline = perf_counter() + (seconds or 0.0)
        c = 0
        while True:
            if refs is not None:
                refs.append(calibrate.reference_seconds())
            if count is not None and c >= count:
                break
            if count is None and c >= FIXED_CHUNKS and perf_counter() >= deadline:
                break
            out, dt = self.one(c)
            self.latencies.append(dt)
            self.record(c, out)
            if after_chunk is not None:
                after_chunk(c)
            c += 1
        return c

    def workload_digest(self) -> str:
        return sha("".join(self.digests[c] for c in range(FIXED_CHUNKS)).encode())


def setup(workloads, tracing, args, scratch, imports_s):
    """Inputs plus one untimed warm-up chunk (chunk 0).  Returns the
    workload, the warm-up chunk's digest ("failed" if it failed; the timed
    chunks then count the failures) and (set-up seconds, seconds of that
    spent importing numpy and scipy).  Set-up counts from interpreter start,
    so it includes the imports."""
    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    warm = ChunkRunner(wl, tracing.NoTracer())
    warm.record(0, warm.one(0)[0])
    return wl, warm.digests[0], (perf_counter() - T_START, imports_s)


def probe_setup(args) -> tuple:
    """Set-up time and warm-up digest of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    res = json.loads(done.stdout.strip().splitlines()[-1])
    return tuple(res["setup"]), res["warm_digest"]


def environment(args, fp: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": 1, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "source_fingerprint": fp}


class StateFile:
    """Digests and exact counters of earlier runs, keyed by source
    fingerprint, workload and seed.  A run that disagrees with an earlier
    run of the same sources and seed is an error."""

    def __init__(self, fp: str, args):
        self.path = OUT / "state.json"
        self.key = f"{fp}|{args.workload}|{args.seed}"
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def agree(self, field: str, value) -> bool:
        entry = self.data.setdefault(self.key, {})
        if field in entry:
            return entry[field] == value
        entry[field] = value
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return True


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(lat: list) -> dict:
    n = len(lat)
    # "inclusive" keeps p90 inside the sample when chunks are few
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if n >= 2 else lat[0]
    return {
        "chunks_per_s": (n / sum(lat), "1/s"),
        "chunk_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "chunk_p90_ms": (p90 * 1e3, "ms"),
    }


def timed(wl, tracing, args, warm_digest):
    """Chunk times are reported rescaled by the reference kernel (see
    calibrate.py); the raw figures go to the environment block."""
    runner = ChunkRunner(wl, tracing.NoTracer())
    refs = []
    runner.run(seconds=args.seconds, refs=refs)
    lat = calibrate.normalize(runner.latencies, refs)
    metrics = latency_metrics(lat)
    p90 = metrics["chunk_p90_ms"][0] / 1e3
    sys.stderr.write(f"{len(lat)} chunks timed, "
                     f"{sum(t > p90 for t in lat)} beyond p90\n")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    raw = {k: v for k, (v, _) in latency_metrics(runner.latencies).items()}
    raw["reference_ms_median"] = statistics.median(refs) * 1e3
    problems = []
    if runner.digests[0] != warm_digest:
        problems.append("chunk 0 output differs between warm-up and timed run")
    return runner, metrics, raw, problems


def traced(wl, tracing, args, warm_digest):
    """An untraced pass over half the time, then the same chunks traced.
    Per-layer metrics come from the traced pass; the ratio of the two
    passes' chunk time is the tracing overhead."""
    import layers

    plain = ChunkRunner(wl, tracing.NoTracer())
    plain_refs, traced_refs = [], []
    n = plain.run(seconds=args.seconds / 2.0, refs=plain_refs)

    tracer = tracing.Tracer()
    names, restore = tracing.instrument(tracer)
    every, fixed, first, warm = (tracing.Aggregate() for _ in range(4))
    kept = []

    def fold(c):
        spans = tracer.take()
        every.add_chunk(spans)
        if c < FIXED_CHUNKS:
            fixed.add_chunk(spans)
        if c == 0:
            first.add_chunk(spans)
            kept.extend(spans)

    try:
        # chunk 0 traced twice: its exact counters must repeat
        warm_runner = ChunkRunner(wl, tracer)
        warm_runner.run(count=1)
        warm.add_chunk(tracer.take())
        runner = ChunkRunner(wl, tracer)
        runner.run(count=n, after_chunk=fold, refs=traced_refs)
    finally:
        restore()

    problems = []
    if not (plain.digests == runner.digests and plain.digests[0] == warm_digest):
        problems.append("traced output differs from untraced output")
    c_first = layers.exact_counters(names, first, runner.censored.get(0, 0))
    c_warm = layers.exact_counters(names, warm, warm_runner.censored.get(0, 0))
    if c_first != c_warm:
        problems.append(f"exact counters of chunk 0 differ: {c_first} {c_warm}")
    overhead = (sum(calibrate.normalize(runner.latencies, traced_refs))
                / sum(calibrate.normalize(plain.latencies, plain_refs)) - 1.0)
    attempted = len(plain.latencies) + len(runner.latencies)
    failed = plain.failed + runner.failed
    values, missing = layers.per_layer(names, every, fixed,
                                       sum(runner.censored.values()),
                                       overhead, failed / attempted)
    counters = {k: values[k][0] for k in layers.EXACT if k in values}
    write_spans(args, kept)
    return runner, values, missing, counters, problems, attempted, failed


def write_spans(args, spans):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for sid, parent, name, t0, t1, chunk in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1, "chunk": chunk}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    tracing, workloads, imports_s = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    try:
        wl, warm_digest, setup_s = setup(workloads, tracing, args, scratch,
                                           imports_s)
        if args.setup_probe:
            print(json.dumps({"setup": setup_s, "warm_digest": warm_digest}))
            return 0
        fp = fingerprint()
        env = environment(args, fp)
        state = StateFile(fp, args)
        if args.trace == 0:
            before = (SETUP_RUNS - 1) // 2
            probes = [probe_setup(args) for _ in range(before)]
            runner, metrics, raw, problems = timed(wl, tracing, args, warm_digest)
            probes += [probe_setup(args) for _ in range(SETUP_RUNS - 1 - before)]
            problems += [f"warm-up digest of a probe process differs: {d}"
                         for _, d in probes if d != warm_digest]
            setups = [setup_s] + [s for s, _ in probes]
            metrics["setup_s"] = (statistics.median(
                t * calibrate.IMPORTS_S / imports for t, imports in setups), "s")
            raw["setup_s"] = statistics.median(t for t, _ in setups)
            attempted, failed, missing = len(runner.latencies), runner.failed, {}
            env["raw"] = raw
        else:
            (runner, metrics, missing, counters, problems, attempted,
             failed) = traced(wl, tracing, args, warm_digest)
            if not state.agree("counters", counters):
                problems.append("exact counters differ from an earlier run "
                                "of the same sources and seed")
        digest = runner.workload_digest()
        if not state.agree("digest", digest):
            problems.append("determinism digest differs from an earlier run "
                            "of the same sources and seed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for p in problems:
        sys.stderr.write(f"error: {p}\n")
    env.update({"digest": digest, "problems": problems, "missing": missing})
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"env": env, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
