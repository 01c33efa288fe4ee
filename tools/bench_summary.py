"""Summarise alternating parent/change benchmark runs into BENCH_<pr>.json.

    python3 tools/bench_summary.py --pr N --parent-commit SHA \\
        parent=P/.perfbench_out/result-coalescent-seed1501-trace0.json \\
        change=C/.perfbench_out/result-coalescent-seed1501-trace0.json ...

Each argument names the side that made a run and the result file that
`perfbench/run.py --trace 0` saved for it, listed in the order the runs were
made.  Runs are paired by the workload and seed in their environment block;
every pair needs one run of each side.  The summary holds, per workload, the
seeds and which side ran first in each pair; per end-to-end metric of
BENCHMARK.json the median, inclusive quartiles and runs of each side and the
change's wins and losses; the failed and attempted chunks, whether every run
was correct, whether the determinism digests agree in every pair, and the
environment block shared by all runs.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Fields of the environment block that belong to one run, not to the machine.
PER_RUN = ("workload", "seed", "digest", "problems", "missing", "raw",
           "source_fingerprint")


def load_runs(specs):
    """[(side, env, result)] from 'side=path' arguments, in the given order."""
    runs = []
    for spec in specs:
        side, sep, path = spec.partition("=")
        if not sep or side not in SIDES:
            raise ValueError(f"expected parent=PATH or change=PATH, got {spec!r}")
        saved = json.loads(Path(path).read_text())
        if saved["env"]["trace"] != 0:
            raise ValueError(f"{path} is a traced run; pass --trace 0 results")
        runs.append((side, saved["env"], saved["result"]))
    return runs


def spread(values):
    """Median and inclusive quartiles, rounded, with the runs themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def summarize_workload(pairs, end_to_end):
    """Summary of one workload's pairs, each (seed, first side, {side:
    (env, result)})."""
    runs = {s: [p[2][s] for p in pairs] for s in SIDES}
    summary = {
        "seeds": [seed for seed, _, _ in pairs],
        "first_side_per_pair": [f"{first}_first" for _, first, _ in pairs],
        "digest_equal_in_every_pair": all(
            p[2]["parent"][0]["digest"] == p[2]["change"][0]["digest"]
            for p in pairs),
    }
    for field, fold in (("failed", sum), ("attempted", sum), ("correct", all)):
        summary[field] = {s: fold(result[field] for _, result in runs[s])
                          for s in SIDES}
    summary["problems"] = {
        s: sorted({p for env, _ in runs[s] for p in env["problems"]})
        for s in SIDES}
    summary["metrics"] = {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {s: [result["metrics"][name]["value"] for _, result in runs[s]]
                  for s in SIDES}
        gains = [sign * (c - p) for p, c in zip(values["parent"],
                                                values["change"])]
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        entry.update({s: spread(values[s]) for s in SIDES})
        before, after = entry["parent"]["median"], entry["change"]["median"]
        entry["change_wins"] = sum(g > 0 for g in gains)
        entry["change_losses"] = sum(g < 0 for g in gains)
        entry["median_rel_change"] = (round((after - before) / before, 4)
                                      if before else None)
        summary["metrics"][name] = entry
    return summary


def summarize(runs, benchmark, pr, parent_commit=None):
    """The BENCH_<pr>.json payload for runs from load_runs."""
    pairs = {}
    for side, env, result in runs:
        key = (env["workload"], env["seed"])
        pair = pairs.setdefault(key, {"first": side, "runs": {}})
        if side in pair["runs"]:
            raise ValueError(f"two {side} runs of {key[0]} at seed {key[1]}")
        pair["runs"][side] = (env, result)
    unpaired = [k for k, p in pairs.items() if len(p["runs"]) != 2]
    if unpaired:
        raise ValueError(f"runs without a partner: {unpaired}")
    workloads = {}
    for (workload, seed), pair in pairs.items():
        workloads.setdefault(workload, []).append((seed, pair["first"],
                                                   pair["runs"]))
    envs = [env for _, env, _ in runs]
    shared = {k: v for k, v in envs[0].items()
              if k not in PER_RUN and all(e.get(k) == v for e in envs)}
    fingerprints = {s: sorted({env["source_fingerprint"] for side, env, _ in runs
                               if side == s}) for s in SIDES}
    return {
        "pr": pr,
        "parent_commit": parent_commit,
        "method": ("perfbench/run.py --trace 0 once a side per workload and "
                   "seed, in the listed run order; medians and inclusive "
                   "quartiles over the pairs; a win is a pair in which the "
                   "change is better"),
        "run_order": [[side, env["workload"], env["seed"]]
                      for side, env, _ in runs],
        "environment": shared,
        "source_fingerprints": fingerprints,
        "workloads": {w: summarize_workload(p, benchmark["end_to_end"])
                      for w, p in workloads.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--parent-commit")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    p.add_argument("--out", help="default: BENCH_<pr>.json")
    p.add_argument("runs", nargs="+", metavar="SIDE=RESULT")
    args = p.parse_args(argv)
    try:
        summary = summarize(load_runs(args.runs),
                            json.loads(Path(args.benchmark).read_text()),
                            args.pr, args.parent_commit)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    out = Path(args.out or f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
