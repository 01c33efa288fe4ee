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
     "5dc6bcc4f86e795c138ee4b0fc01b3d6f8d952b3fc5a82897aa72b30a4598c28"),
    (["pebls"],
     "434360eee11a99c5643151534da8ffe931bdfbb6942be6cb249640fbf4818630"),
    (["simulate", "--format", "json"],
     "2127c12969a1383be46d3bb4c681fd7e93963028042f5ecb0bb6c47906f4388e"),
    (["pebls", "--format", "json"],
     "69a898b56e3f285c3d76c0ad9a66552cb9b4643b6db5e1d4741ab857c8afdcaa"),
    (["ra-sample"],
     "3ab4cf9a71673a4c4b312cecdfcf7beec0d43173557d9767997a4c04642ec7b8"),
    (["ra-sample", "--format", "json"],
     "64fbec61796be239fc560ec4addc0eda0e8e99b7c99d0f4e02dbfb2d07048e8c"),
    (["limit"],
     "ba330e8776f56a897c02f0e01a9fb12b7a844eb2a83db187eb440c8848805376"),
    (["limit", "--format", "json"],
     "c0b4ba23b6dd3cdac56e5c46b580164dd74c3bb20b0d8217f930ba2a8578034b"),
    (["wn"],
     "ad78513a6db6edd46ab1b184ce069d1ef854816de8709253ab6cb8b2f4717242"),
    (["wn", "--format", "json"],
     "5149e9f186486c7fecf8f259e1578895a87229acef0977a4562c00db176c5985"),
    (["pmf", "--r", "5", "--a", "40"],
     "ed486ff27eb6de721cb8157d4d21933e7687a8e2834308f546bec5d766a9e8cb"),
    (["pmf", "--r", "5", "--a", "40", "--format", "json"],
     "1387ae1d16b7fa725c12ecd02f78bcbf2fc9bcfbfaab0aa0ea2e97cce5141cb1"),
    (["pmf", "--r", "5", "--a", "40", "--kind", "position"],
     "1ce637854e33288428d0897d6d2859ec1808a81bba567b66e9db5a316c5ba97d"),
    (["pmf", "--r", "5", "--a", "40", "--kind", "position", "--format", "json"],
     "4039e8b72eda3a67d05826541a887000d448f03682eeae7ddfc62e6fd0d8ae5a"),
], ids=["simulate-csv", "pebls-csv", "simulate-json", "pebls-json",
        "ra-sample-csv", "ra-sample-json", "limit-csv", "limit-json",
        "wn-csv", "wn-json", "pmf-rank-csv", "pmf-rank-json",
        "pmf-position-csv", "pmf-position-json"])
def test_default_output_bytes_pinned(capsys, argv, digest):
    # sha256 of stdout at the default flags: any change to a draw, to the
    # trajectory lists or to the writers breaks it.  ra-sample writes
    # positions past 2^53 as floats, so its CSV pins both formats of a state
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
