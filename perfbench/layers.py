"""Per-layer metrics, read from the aggregates of a traced pass.

Units: `s/chunk` is seconds per chunk of a layer's self time, and `s` is
seconds per call of a verify criterion; `us` is microseconds per call, inclusive of
what the call runs below it; `count/...` metrics are exact counts.  A
per-call metric whose function the workload never calls reads 0.  A metric
whose function no longer exists is left out and named in `missing`, as
are the verify criteria no workload runs.
"""

from spans import LAYERS

from workloads import RecordChain

EXACT = ("numerics.log_gamma_diff.calls_per_step",
         "kingman.Trajectory.validate.calls_per_build",
         "aldous.identify_ra.censored_frac",
         "streams.stream.calls",
         "streams.exp_inverse.calls")

LADDER_TAGS = tuple(tag for tag, _, _ in RecordChain.LADDER)
CLI_COMMANDS = ("simulate", "pebls", "ra-sample", "limit", "wn", "pmf")

# Verify criteria with a per-layer metric in the design that no workload
# runs: each took 0.1-0.4 s a call, and the workload built on them was
# dropped because its chunk times could not be made steady.
UNMEASURED_CRITERIA = (1, 2, 3, 7, 8)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _us(agg, name, region="*", top="*") -> float:
    return _ratio(agg.seconds(name, region, top) * 1e6, agg.count(name, region, top))


def _exact_table(agg, censored: int):
    """(metric, unit, spans needed, value) for the counters that must repeat
    exactly for a fixed seed; `agg` covers a fixed set of chunks."""
    lgd, spb = "numerics.log_gamma_diff", "ra_chain.sample_paths_batch"
    val, bp = "kingman.Trajectory.validate", "kingman.build_pebls"
    return [
        (EXACT[0], "count/step", [lgd, spb],
         lambda: _ratio(agg.count(lgd, "paths"),
                        RecordChain.STEPS * agg.count(spb, "paths"))),
        (EXACT[1], "count/build", [val, bp],
         lambda: _ratio(agg.count(val, "c11", bp), agg.count(bp, "c11"))),
        (EXACT[2], "frac", ["aldous.identify_ra"],
         lambda: _ratio(censored, agg.count("aldous.identify_ra", "fields"))),
        (EXACT[3], "count/chunk", ["streams.stream"],
         lambda: _ratio(agg.count("streams.stream"), agg.chunks)),
        (EXACT[4], "count/chunk", ["streams.exp_inverse"],
         lambda: _ratio(agg.count("streams.exp_inverse"), agg.chunks)),
    ]


def _evaluate(table, names):
    values, missing = {}, {}
    for metric, unit, needs, value in table:
        absent = [n for n in needs if n not in names]
        if absent:
            missing[metric] = f"not traced: {', '.join(absent)} no longer exists"
        else:
            values[metric] = (value(), unit)
    return values, missing


def exact_counters(names, agg, censored: int) -> dict:
    values, _ = _evaluate(_exact_table(agg, censored), names)
    return {k: v for k, (v, _) in values.items()}


def per_layer(names, every, fixed, censored: int, overhead: float,
              error_rate: float):
    """All per-layer metrics: timings from every traced chunk, exact
    counters from the fixed chunks only."""
    table = []
    for layer in LAYERS:
        own = [n for n in names if n.startswith(layer + ".")][:1]
        table.append((f"{layer}.self_s", "s/chunk", own or [f"{layer}.*"],
                      lambda layer=layer: _ratio(every.layer_self[layer],
                                                 every.chunks)))

    def us(metric, name, region="*", top="*"):
        table.append((metric, "us", [name],
                      lambda: _us(every, name, region, top)))

    for fn in ("simulate_kingman", "build_pebls", "reconstruct_from_pebls"):
        us(f"kingman.{fn}.us.n10", f"kingman.{fn}", "c11")
        us(f"kingman.{fn}.us.nbig", f"kingman.{fn}", "nbig")
    us("kingman.extend_recursive.us", "kingman.extend_recursive")

    spb = "ra_chain.sample_paths_batch"
    table.append((f"{spb}.us_per_path_step", "us", [spb], lambda: _ratio(
        every.seconds(spb, "paths") * 1e6,
        every.count(spb, "paths") * RecordChain.PATHS * RecordChain.STEPS)))
    us("numerics.log_gamma_diff.us", "numerics.log_gamma_diff")
    for tag in LADDER_TAGS:
        us(f"ra_chain.sample_r_next.us.{tag}", "ra_chain.sample_r_next",
           f"ladder.{tag}")
    for name in ("ra_chain.sample_a_next", "aldous.StickField",
                 "aldous.identify_ra", "aldous.batch_first_record",
                 "ra_chain.sample_r_next_batch", "ra_chain.sample_a1",
                 "limit_chain.wn_log_pmf", "limit_chain.sample_limit_batch",
                 "stats.ks_one_sample", "ra_chain.r_tail", "ra_chain.r_pmf",
                 "ra_chain.r_pmf_vector", "ra_chain.a_pmf",
                 "ra_chain.urn_oracle_r", "ra_chain.urn_oracle_a",
                 "limit_chain.WnLaw.build", "limit_chain.wn_local_limit_error"):
        us(f"{name}.us", name)
    table.append(("verify.c04.s", "s", ["verify.c04"],
                  lambda: _ratio(every.seconds("verify.c04"),
                                 every.count("verify.c04"))))
    for cmd in CLI_COMMANDS:
        us(f"cli.main.us.{cmd}", "cli.main", f"cli.{cmd}")

    table += _exact_table(fixed, censored)
    table.append(("trace.overhead_frac", "frac", [], lambda: overhead))
    table.append(("error_rate", "frac", [], lambda: error_rate))
    values, missing = _evaluate(table, names)
    for number in UNMEASURED_CRITERIA:
        missing[f"verify.c{number:02d}.s"] = (
            f"not measured: no workload runs criterion {number} "
            "(see perfbench/README.md)")
    return values, missing
