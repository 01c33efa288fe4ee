"""Command-line behaviour: headers, determinism, exit codes, JSON shape."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from seqcoal import cli, ra_chain
from seqcoal.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_csv_header_and_determinism(capsys):
    rc, out1, _ = run_cli(capsys, "simulate", "--n", "6", "--replicates", "2",
                          "--seed", "5")
    assert rc == 0
    lines = out1.splitlines()
    assert lines[0] == "replicate,event_index,time,block_a,block_b"
    assert len(lines) == 1 + 2 * 5
    rc, out2, _ = run_cli(capsys, "simulate", "--n", "6", "--replicates", "2",
                          "--seed", "5")
    assert out2 == out1
    rc, out3, _ = run_cli(capsys, "simulate", "--n", "6", "--replicates", "2",
                          "--seed", "6")
    assert out3 != out1


def test_pebls_csv(capsys):
    rc, out, _ = run_cli(capsys, "pebls", "--n", "5", "--replicates", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "replicate,individual,length"
    assert len(lines) == 1 + 3 * 4
    assert lines[1].startswith("0,2,")


@pytest.mark.parametrize("argv,digest", [
    (["simulate"],
     "03b268a838007a7da8a004c6c84e6ac350ef786779776d049700160180fa630c"),
    (["pebls"],
     "41f79bf402bdd34b3ea488c5b749d5ef09a86dbff3ff190794a43d956f115e44"),
    (["simulate", "--format", "json"],
     "ebebc6736b0669f3e9e750f7d7f50e161b1428d7fe3396fc398c074d46f4b32d"),
    (["pebls", "--format", "json"],
     "9fc9352864571314b60dc6a6f4c75b762a021cc7661ca609c7a2c6ebd6179f3b"),
    (["ra-sample"],
     "3ab4cf9a71673a4c4b312cecdfcf7beec0d43173557d9767997a4c04642ec7b8"),
    (["ra-sample", "--format", "json"],
     "64fbec61796be239fc560ec4addc0eda0e8e99b7c99d0f4e02dbfb2d07048e8c"),
    (["ra-extract"],
     "b5bc73b55023a0fc4e7dc9a4eaf3c3ff71b5ee00a75611b62ab42820b714540b"),
    (["ra-extract", "--format", "json"],
     "300be2721afb4d71911f07f05bdeb8e000fc1e54ba1326099b29c770fd4f4752"),
    (["limit"],
     "f9a83be08d1e93be6d4bfa875cfb23f457929a9e80e1e85b925bafb25cdc1c85"),
    (["limit", "--format", "json"],
     "0cea1fc4a72552701f2531d8c9a3b941a7626db8588ea49aec47861bf4ca97c0"),
    (["wn"],
     "324debbed1d3508a9f70b16d9716754a79718c120333250ffa57c148120f211f"),
    (["wn", "--format", "json"],
     "129b7a46e2f8da8fbe4e6165b7b680b2dbe96425a64c8a4153da7ebcffa57193"),
    (["pmf", "--r", "5", "--a", "40"],
     "ed486ff27eb6de721cb8157d4d21933e7687a8e2834308f546bec5d766a9e8cb"),
    (["pmf", "--r", "5", "--a", "40", "--format", "json"],
     "1387ae1d16b7fa725c12ecd02f78bcbf2fc9bcfbfaab0aa0ea2e97cce5141cb1"),
    (["pmf", "--r", "5", "--a", "40", "--kind", "position"],
     "1ce637854e33288428d0897d6d2859ec1808a81bba567b66e9db5a316c5ba97d"),
    (["pmf", "--r", "5", "--a", "40", "--kind", "position", "--format", "json"],
     "4039e8b72eda3a67d05826541a887000d448f03682eeae7ddfc62e6fd0d8ae5a"),
], ids=["simulate-csv", "pebls-csv", "simulate-json", "pebls-json",
        "ra-sample-csv", "ra-sample-json", "ra-extract-csv", "ra-extract-json",
        "limit-csv", "limit-json", "wn-csv", "wn-json", "pmf-rank-csv",
        "pmf-rank-json", "pmf-position-csv", "pmf-position-json"])
def test_default_output_bytes_pinned(capsys, argv, digest):
    # sha256 of stdout at the default flags: any change to a draw, to the
    # trajectory lists or to the writers breaks it.  ra-sample writes
    # positions past 2^53 as floats, so its CSV pins both formats of a state
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ra_sample_hundred_steps_pinned(capsys):
    # by step 100 most positions are past 1e40 (median about 1e44).  Past
    # about 1e26 one rank step moves the log tail by about its rounding,
    # so there a draw can follow the rounding of numpy's np.log and
    # np.log1p loops, which differ between CPUs with and without AVX-512:
    # with those loops turned off, 4 of the 10 101 rows differ, all at
    # positions past 3e33 (ROADMAP item 9)
    rc, out, _ = run_cli(capsys, "ra-sample", "--steps", "100")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8bb5d62a4c64d2bc8ac89ab07133bfae9eda12c88f5fcea21b29bd3ccad6b3a7")


def test_ra_sample_csv(capsys):
    rc, out, _ = run_cli(capsys, "ra-sample", "--paths", "3", "--steps", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "path,i,R,A"
    assert len(lines) == 1 + 3 * 6
    assert lines[1] == "0,1,1,2"


def test_ra_sample_states_are_plain_numbers(capsys):
    # at the default size some positions pass 2**53 and are written as floats
    rc, out, _ = run_cli(capsys, "ra-sample", "--seed", "0")
    assert rc == 0
    assert "np." not in out
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert len(rows) == 100 * 31
    values = [float(v) for row in rows for v in row[2:]]
    assert max(values) > 2.0**53
    assert all(math.isfinite(v) for v in values)


def test_ra_sample_burn_in(capsys):
    rc, out, _ = run_cli(capsys, "ra-sample", "--paths", "1", "--steps", "5",
                         "--burn-in", "3")
    lines = out.splitlines()
    assert len(lines) == 1 + 3  # indices 4..6
    assert lines[1].split(",")[1] == "4"


@pytest.mark.parametrize("argv", [
    ["ra-sample", "--paths", "1", "--steps", "4", "--burn-in", "-2"],
    ["ra-sample", "--paths", "1", "--steps", "-1"],
    ["limit", "--paths", "1", "--steps", "4", "--burn-in", "-2"],
    ["limit", "--paths", "1", "--steps", "-1"],
], ids=["ra-sample-burn-in", "ra-sample-steps", "limit-burn-in", "limit-steps"])
def test_negative_steps_or_burn_in_exit_two(capsys, argv):
    # a negative index would count back from the last state and write it
    # again under an invented index
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == "error: --steps and --burn-in must be >= 0\n"


@pytest.mark.parametrize("argv,message", [
    (["ra-sample", "--steps", "2", "--burn-in", "5"], "--burn-in must be <= --steps"),
    (["limit", "--steps", "2", "--burn-in", "5"], "--burn-in must be <= --steps"),
    (["ra-sample", "--paths", "0"], "--paths must be >= 1"),
    (["limit", "--paths", "0"], "--paths must be >= 1"),
    (["simulate", "--replicates", "0"], "--replicates must be >= 1"),
    (["simulate", "--replicates", "-1"], "--replicates must be >= 1"),
    (["pebls", "--replicates", "0"], "--replicates must be >= 1"),
    (["pebls", "--replicates", "-1"], "--replicates must be >= 1"),
    (["ra-extract", "--replicates", "0"], "--replicates must be >= 1"),
    (["ra-extract", "--replicates", "-1"], "--replicates must be >= 1"),
    (["pmf", "--r", "5", "--a", "40", "--kind", "position", "--cutoff", "0"],
     "--cutoff must be >= 1"),
    (["pmf", "--r", "5", "--a", "40", "--cutoff", "0"], "--cutoff must be >= 1"),
], ids=["ra-sample-burn-in-past-steps", "limit-burn-in-past-steps",
        "ra-sample-paths-0", "limit-paths-0", "simulate-replicates-0",
        "simulate-replicates-neg", "pebls-replicates-0", "pebls-replicates-neg",
        "ra-extract-replicates-0", "ra-extract-replicates-neg",
        "pmf-position-cutoff-0", "pmf-rank-cutoff-0"])
def test_empty_counts_exit_two(capsys, argv, message):
    # each of these would write a header and no rows, or fail inside numpy
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_ra_sample_overflow_exits_two(capsys, monkeypatch):
    # the float continuation stops at ra_chain._FLOAT_LIMIT (1e300, reached
    # after about 690 steps); a low limit reaches the same exit in a few
    monkeypatch.setattr(ra_chain, "_FLOAT_LIMIT", 1e6)
    rc, out, err = run_cli(capsys, "ra-sample", "--paths", "2", "--steps", "60")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: a position passed 1e+06 at step")


def test_ra_sample_stalled_rank_exits_two(capsys, monkeypatch):
    # past 2^53 a rank can round back to itself, and the chain stops there.
    # From (1, 2) that is a 2^-51 event per lane-step, so the paths start
    # where every rank stalls at once: r = 1e20 moves by about 50 |ln u|,
    # below its ulp of 16384
    batch = ra_chain.sample_paths_batch
    monkeypatch.setattr(ra_chain, "sample_paths_batch",
                        lambda num, steps, rng, start: batch(num, steps, rng,
                                                             start=(1e20, 1e22)))
    rc, out, err = run_cli(capsys, "ra-sample", "--paths", "20", "--steps", "200")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: a rank stalled at step")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # main reuses one parser; a call's flags must not leak into the next
    alone = []
    for argv in (["pebls", "--n", "6"], ["pebls"]):
        cli._parser.cache_clear()
        alone.append(run_cli(capsys, *argv)[1])
    cli._parser.cache_clear()
    in_a_row = [run_cli(capsys, "pebls", "--n", "6")[1],
                run_cli(capsys, "pebls")[1]]
    assert in_a_row == alone
    assert len(alone[0].splitlines()) == 1 + 5
    assert len(alone[1].splitlines()) == 1 + 9
    assert cli._parser() is cli._parser()


def test_ra_extract_csv(capsys):
    rc, out, _ = run_cli(capsys, "ra-extract", "--replicates", "2", "--n", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "replicate,i,R,A"
    # every replicate emits its first record with rank 1
    first = [ln for ln in lines[1:] if ln.split(",")[1] == "1"]
    assert all(ln.split(",")[2] == "1" for ln in first)


def test_limit_csv(capsys):
    rc, out, _ = run_cli(capsys, "limit", "--paths", "2", "--steps", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "path,i,xi"
    assert len(lines) == 1 + 2 * 5


def test_wn_csv(capsys):
    rc, out, _ = run_cli(capsys, "wn", "--n", "50")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "kind,index,value"
    assert lines[1] == "pmf,0,0.0"
    assert any(ln.startswith("local_limit,") for ln in lines)


def test_wn_at_n_one(capsys):
    # the grid's s up to 2 gives k = floor(s sqrt(n)) = 2 > n at n = 1; such
    # points are dropped, and the rest of the grid has k = 1
    rc, out, err = run_cli(capsys, "wn", "--n", "1")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[1:3] == ["pmf,0,0.0", "pmf,1,1.0"]
    s = [float(ln.split(",")[1]) for ln in lines[3:]]
    assert s and all(ln.startswith("local_limit,") for ln in lines[3:])
    assert all(math.floor(v) == 1 for v in s)


def test_pmf_rank_frozen_rows(capsys):
    rc, out, _ = run_cli(capsys, "pmf", "--r", "1", "--a", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,prob"
    assert len(lines) == 3
    xs = [ln.split(",")[0] for ln in lines[1:]]
    ps = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert xs == ["1", "2"]
    assert ps[0] == 0.8
    assert ps[1] == pytest.approx(0.2, rel=1e-12)


def test_pmf_rank_rows_stop_at_cutoff(capsys):
    # the rank law's support is 1..a - r: the cutoff bounds the rows, so a
    # huge position tabulates 5 rows, not about 1e12
    rc, out, _ = run_cli(capsys, "pmf", "--r", "1", "--a", "1000000000000",
                         "--cutoff", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,prob"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3", "4", "5"]
    assert float(lines[1].split(",")[1]) == pytest.approx(4.0 / 1000000000002)


def test_pmf_position_rows(capsys):
    rc, out, _ = run_cli(capsys, "pmf", "--kind", "position", "--r", "2",
                         "--a", "3", "--cutoff", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,prob"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0 / 6.0)


def test_pmf_position_rejects_rank_one(capsys):
    rc, _, err = run_cli(capsys, "pmf", "--kind", "position", "--r", "1",
                         "--a", "3")
    assert rc == 2
    assert "error:" in err


def test_json_output_is_canonical(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--n", "4", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    rc, out, _ = run_cli(capsys, "pmf", "--r", "2", "--a", "6", "--format",
                         "json")
    payload = json.loads(out)
    assert payload["probs"][0] == pytest.approx(6.0 / 9.0)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_out_file_matches_stdout(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "pebls", "--n", "6")
    dest = tmp_path / "pebls.csv"
    rc2 = main(["pebls", "--n", "6", "--out", str(dest)])
    capsys.readouterr()
    assert rc2 == 0
    assert dest.read_text() == out


def test_verify_single_criterion(capsys):
    rc, out, err = run_cli(capsys, "verify", "--criteria", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["seed"] == 0
    assert [c["id"] for c in payload["criteria"]] == [4]
    assert payload["criteria"][0]["pass"] is True
    # progress goes to stderr only, with one line per criterion
    assert "criterion  4" in err
    assert "pass" in err
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_verify_report_bytes_pinned(capsys):
    # criteria 2, 3 and 4 draw nothing, so their report pins the writer's
    # bytes: key order, indentation, float formatting and the final newline
    rc, out, _ = run_cli(capsys, "verify", "--criteria", "2,3,4")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1d0975ea2e35d120e63c037fcd6fc8589d01c31d6d63db0ba1c13f3fdfc82b7")


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--threads", "2"]],
                         ids=["format", "threads"])
def test_verify_has_no_format_flag(flag):
    # verify always writes one JSON report, and runs its chunks in order
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flag])
    assert exc.value.code == 2


def test_verify_unknown_criterion(capsys):
    rc, _, err = run_cli(capsys, "verify", "--criteria", "99")
    assert rc == 2
    assert "unknown criteria" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_invocation_smoke(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "seqcoal.cli", "pmf", "--r", "1", "--a", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    rc, out, _ = run_cli(capsys, "pmf", "--r", "1", "--a", "3")
    assert proc.stdout == out
