"""Acceptance gate: every verification criterion at its stated tolerance.

Each criterion gets its own test so a verbose run prints one line per
criterion; the body prints the same verdict with the wall time.  The
report-determinism criterion is exercised end to end through the command
line in subprocesses.
"""

import functools
import pickle
import subprocess
import sys
import time

import numpy as np

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


def test_c11_chunk_callables_pickle():
    # a process pool ships each chunk callable by reference: unpickled, it
    # is the same builder and gives the same MRCA times on the same stream
    for build in verify._MRCA_ROUTES.values():
        chunk = functools.partial(verify._mrca_chunk, build)
        copy = pickle.loads(pickle.dumps(chunk))
        assert copy.args == (build,)
        assert np.array_equal(copy(stream(0, 11, 0), 5), chunk(stream(0, 11, 0), 5))


def test_c12_report_determinism():
    # Byte-identical JSON across repeated runs; two full verification
    # passes through the real command line.
    cmd = [sys.executable, "-m", "seqcoal.cli", "verify", "--seed", str(SEED)]
    outs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1], "repeat run changed the report"
    print("criterion 12 report_determinism: PASS")
