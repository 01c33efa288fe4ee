"""Acceptance gate: every verification criterion at its stated tolerance,
and the package surface that the README documents.

Each criterion gets its own test so a verbose run prints one line per
criterion; the body prints the same verdict with the wall time.  The
report-determinism criterion is exercised end to end through the command
line in subprocesses.
"""

import contextlib
import functools
import importlib
import io
import pathlib
import pickle
import pkgutil
import re
import subprocess
import sys
import time
import types

import numpy as np

import seqcoal
from seqcoal import verify
from seqcoal.streams import stream

SEED = 0

# wall-clock budgets in seconds, generous multiples of observed runtimes
_BUDGETS = {
    1: 120,
    2: 60,
    3: 60,
    4: 60,
    5: 120,
    6: 180,
    7: 60,
    8: 120,
    9: 180,
    10: 120,
    11: 120,
}


def _run(number: int):
    t0 = time.perf_counter()
    res = verify.run_criterion(number, SEED)
    dt = time.perf_counter() - t0
    status = "PASS" if res.passed else "FAIL"
    print(f"criterion {number:2d} {res.name}: {status} ({dt:.1f}s)")
    assert res.passed, res.details
    assert dt < _BUDGETS[number], f"criterion {number} took {dt:.1f}s"


def test_c01_first_record_position_law():
    _run(1)


def test_c02_rank_transition_matches_urn():
    _run(2)


def test_c03_position_transition_matches_urn():
    _run(3)


def test_c04_tail_identities():
    _run(4)


def test_c05_sampler_frequencies():
    _run(5)


def test_c06_cross_route_joint_law():
    _run(6)


def test_c07_record_value_law():
    _run(7)


def test_c08_limit_chain_stationarity():
    _run(8)


def test_c09_rescaled_convergence():
    _run(9)


def test_c10_rank_tightness():
    _run(10)


def test_c11_construction_equivalence():
    _run(11)


# the chunk callables of every criterion that runs _map_chunks, with
# arguments as the criterion gives them
_CHUNK_CALLABLES = {
    "c01-closed": functools.partial(verify._a1_chunk, False),
    "c01-field": functools.partial(verify._a1_chunk, True),
    "c05-rank": functools.partial(verify._rank_count_chunk, 2, 7),
    "c05-position": functools.partial(verify._position_count_chunk, 20, 200),
    "c06-chain": verify._chain_joint_chunk,
    "c06-field": verify._field_joint_chunk,
    "c08-pairs": verify._limit_pair_chunk,
    "c08-drift": functools.partial(verify._drift_chunk, 1.0),
    "c09": functools.partial(verify._rescaled_chunk, 26),
    "c10": functools.partial(verify._rank_ratio_chunk, 29),
    **{f"c11-{name}": functools.partial(verify._mrca_chunk, build)
       for name, build in verify._MRCA_ROUTES.items()},
}


def test_chunk_callables_pickle():
    # a process pool ships each chunk callable by reference: unpickled, it
    # is the same function with the same arguments, and gives the same
    # output on the same stream
    for name, chunk in _CHUNK_CALLABLES.items():
        copy = pickle.loads(pickle.dumps(chunk))
        if isinstance(chunk, functools.partial):
            assert (copy.func, copy.args) == (chunk.func, chunk.args), name
        else:
            assert copy is chunk, name
        np.testing.assert_equal(copy(stream(0, 11, 0), 5),
                                chunk(stream(0, 11, 0), 5), err_msg=name)


def test_c12_report_determinism(tmp_path):
    # Byte-identical JSON across repeated runs; two full verification
    # passes through the real command line, run as two processes at once,
    # so they also show that two passes share no state.  Each writes to
    # files of its own, so neither waits on a full pipe.
    cmd = [sys.executable, "-m", "seqcoal.cli", "verify", "--seed", str(SEED)]
    runs = []
    for i in range(2):
        out, err = tmp_path / f"report{i}.json", tmp_path / f"stderr{i}.txt"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            runs.append((subprocess.Popen(cmd, stdout=stdout, stderr=stderr),
                         out, err))
    codes = [proc.wait() for proc, _, _ in runs]
    for code, (_, _, err) in zip(codes, runs):
        assert code == 0, err.read_text()
    outs = [out.read_bytes() for _, out, _ in runs]
    assert outs[0] == outs[1], "repeat run changed the report"
    print("criterion 12 report_determinism: PASS")


# ---------------------------------------------------------------------------
# the documented surface

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# every name the package re-exports, sorted; a name added to or dropped
# from the package changes this list on purpose
_EXPORTS = [
    "PeblsSequence", "RAState", "RecordExtraction", "StickField",
    "TestReport", "Trajectory", "TrajectoryEvent", "WnLaw", "a_pmf",
    "a_pmf_exact", "a_tail", "a_tail_exact", "batch_first_record",
    "build_pebls", "chi2_gof", "chi2_two_sample", "exp_inverse",
    "extend_recursive", "extract_records", "identify_ra", "ks_one_sample",
    "ks_two_sample", "partition_at", "r_pmf", "r_pmf_exact", "r_pmf_vector",
    "r_tail", "r_tail_exact", "r_tail_vector", "reconstruct_from_pebls",
    "rescaled_observables", "sample_a1", "sample_a_next",
    "sample_limit_batch", "sample_paths_batch", "sample_r_next",
    "sample_r_next_batch", "simulate_kingman", "stream", "time_to_mrca",
    "tv_distance", "urn_oracle_a", "urn_oracle_r", "wn_local_limit_error",
    "wn_log_pmf",
]


def test_module_exports_resolve():
    # the benchmark's tracer skips an __all__ entry that does not resolve,
    # so a stale entry would drop its span without an error
    for info in pkgutil.iter_modules(seqcoal.__path__):
        mod = importlib.import_module(f"seqcoal.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"seqcoal.{info.name}.{name}"


def test_package_exports_pinned():
    names = sorted(name for name, obj in vars(seqcoal).items()
                   if not name.startswith("_")
                   and not isinstance(obj, types.ModuleType))
    assert names == _EXPORTS


def test_readme_quick_start_runs():
    text = _README.read_text()
    section = text[text.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(_README), "exec"), {})
    assert out.getvalue()
