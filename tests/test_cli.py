import hashlib
import json
import logging
import math
import sys
from decimal import Decimal

import pytest

from ghd.bits import ball_volume, random_pair_at_distance
from ghd.cli import main
from ghd.covering import det_protocol, det_protocol_params
from ghd.experiments import parse_config, run_experiment
from ghd.runtime import derive_seed
from ghd.sketch import derive_sketch_params, sketch_protocol, sketch_statistics
from ghd.streaming import ExactBitmapF0, ghd_via_streaming, stream_gap


def test_volume_command(capsys):
    assert main(["volume", "10", "3"]) == 0
    assert capsys.readouterr().out.strip() == "176"
    assert main(["volume", "5", "5", "--log2"]) == 0
    assert float(capsys.readouterr().out.strip()) == 5.0


def test_volume_prints_a_volume_past_the_int_digit_limit(capsys):
    # 4,335 digits: str() of the int raises at CPython's default limit of
    # 4,300.  The process-wide limit must stay as it was (Python before
    # 3.10.7 has none).
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = digit_limit()
    assert main(["volume", "14400", "7200"]) == 0
    out = capsys.readouterr().out
    digits = out.rstrip("\n")
    assert out == digits + "\n" and digits.isdigit() and len(digits) == 4335
    assert Decimal(digits) == ball_volume(14400, 7200)
    assert digit_limit() == limit


def test_bounds_det_command(capsys):
    assert main(["bounds", "det", "10", "4"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    assert abs(float(out["lower_bits"]) - (10 - math.log2(56))) < 1e-9
    assert abs(float(out["upper_bits"]) - (10 - math.log2(11) + math.log2(10) + 2)) < 1e-9


def test_bounds_stream_command(capsys):
    assert main(["bounds", "stream", "1000", "1.5", "1"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    assert out["gap"] == "500"
    assert float(out["asymptotic"]) == 250.0


def test_bounds_stream_gap_is_exact(capsys):
    assert main(["bounds", "stream", "10", "1.1", "1"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    assert out["gap"] == "1"


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["bounds", "det", "64", "40"], "lower_bits", 64 - math.log2(ball_volume(64, 20))),
        (["bounds", "stream", "64", "1.625", "1"], "state_bits_floor", (64 - math.log2(ball_volume(64, 20))) / 2),
        (["volume", "64", "20", "--log2"], None, math.log2(ball_volume(64, 20))),
    ],
    ids=["bounds-det", "bounds-stream", "volume-log2"],
)
def test_logs_of_55_bit_volumes_print(capsys, argv, key, value):
    # V2(64, 20) has 55 bits; these commands exited 64 with "negative shift count"
    assert ball_volume(64, 20).bit_length() == 55
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    printed = float(out) if key is None else float(dict(line.split() for line in out.splitlines())[key])
    assert abs(printed - value) < 1e-9


def test_bench_sketch_csv(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("trials = 30\nseed = 1\npoint n=128 L=2 U=64 s=1\n")
    out_file = tmp_path / "report.csv"
    code = main(["bench", "sketch", "--config", str(config), "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("protocol,status,")


def test_bench_timings_sidecar_leaves_the_report_unchanged(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("trials = 20\nseed = 3\npoint n=128 L=2 U=64 s=1\npoint n=10 L=9 U=3 s=1\n")
    plain, timed, sidecar = tmp_path / "plain.csv", tmp_path / "timed.csv", tmp_path / "t.json"
    assert main(["bench", "sketch", "--config", str(config), "--out", str(plain)]) == 0
    argv = ["bench", "sketch", "--config", str(config), "--out", str(timed), "--timings", str(sidecar)]
    assert main(argv) == 0
    assert timed.read_bytes() == plain.read_bytes()
    timings = json.loads(sidecar.read_text())
    assert (timings["protocol"], timings["jobs"]) == ("sketch", 1)
    ok, skipped = timings["points"]
    assert ok["point"] == {"n": 128, "L": 2, "U": 64, "s": 1.0} and ok["status"] == "ok"
    assert (ok["trials"], ok["runs"]) == (20, 40)
    assert ok["seconds"] > 0 and ok["runs_per_s"] == 40 / ok["seconds"]
    assert (skipped["status"], skipped["runs"], skipped["runs_per_s"]) == ("skipped", 0, 0.0)


@pytest.mark.parametrize(
    "protocol, config, audited",
    [
        # no trial errs: trial 0 of each class is audited
        ("det", "point n=10 t=4\npoint n=10 t=4 c=2\n", [2, 0]),
        ("stream", "point n=20 c=1.5 p=2\npoint n=20 c=3.0 p=1\n", [2, 0]),
        # one sample a trial errs on both classes: a first error past trial 0 is audited too
        ("sampling", "rate = linear\nlinear_rate_constant = 0.1\npoint n=64 L=8 U=16 s=0.5\n", [3]),
    ],
)
@pytest.mark.parametrize("output", ["csv", "json"])
def test_bench_timings_count_audited_runs_and_leave_the_report_unchanged(tmp_path, protocol, config, audited, output):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"trials = 30\nseed = 5\nformat = {output}\n{config}")
    plain, timed, sidecar = tmp_path / "plain", tmp_path / "timed", tmp_path / "t.json"
    assert main(["bench", protocol, "--config", str(path), "--out", str(plain)]) == 0
    argv = ["bench", protocol, "--config", str(path), "--out", str(timed), "--timings", str(sidecar)]
    assert main(argv) == 0
    assert timed.read_bytes() == plain.read_bytes()
    points = json.loads(sidecar.read_text())["points"]
    assert [point["audited_runs"] for point in points] == audited


@pytest.mark.parametrize("protocol, config", [("det", "point n=10 t=4\npoint n=10 t=4 c=2\n"), ("sketch", "point n=64 L=1 U=32 s=1\n")])
def test_bench_progress_goes_to_stderr_and_leaves_the_report_unchanged(tmp_path, capsys, protocol, config):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"trials = 20\nseed = 4\n{config}")
    assert main(["bench", protocol, "--config", str(path)]) == 0
    plain = capsys.readouterr()
    assert main(["bench", protocol, "--config", str(path), "--progress"]) == 0
    logged = capsys.readouterr()
    assert logged.out == plain.out and plain.err == ""
    lines = logged.err.splitlines()
    assert len(lines) == len(config.splitlines())
    assert all(line.startswith(f"point {i}: ") for i, line in enumerate(lines))
    # the handler lives for the run only
    logger = logging.getLogger("ghd.experiments")
    assert (logger.handlers, logger.level) == ([], logging.NOTSET)


def test_bench_stdout_and_json(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("format = json\ntrials = 20\npoint n=64 L=1 U=32 s=1\n")
    assert main(["bench", "sketch", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert '"protocol": "sketch"' in out


def test_bench_det_with_code_dir(tmp_path):
    config = tmp_path / "det.cfg"
    config.write_text("trials = 10\npoint n=9 t=4\n")
    code_dir = tmp_path / "codes"
    assert main(["bench", "det", "--config", str(config), "--code-dir", str(code_dir)]) == 0
    assert (code_dir / "code-n9-r1.txt").exists()


def test_bench_skipped_points_do_not_fail_gate(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("trials = 5\npoint n=10 c=3.0 p=1\n")
    assert main(["bench", "stream", "--config", str(config)]) == 0
    assert "skipped" in capsys.readouterr().out


def test_bench_empty_grid_succeeds(tmp_path, capsys):
    config = tmp_path / "empty.cfg"
    config.write_text("trials = 5\n")
    assert main(["bench", "sketch", "--config", str(config)]) == 0


def test_demo_stream(capsys, tmp_path):
    fixtures = tmp_path / "fixtures"
    assert main(["demo", "stream", "--n", "6", "--fixture-dir", str(fixtures)]) == 0
    out = capsys.readouterr().out
    assert "distinct=" in out and "estimate=" in out
    assert (fixtures / "equal-u.tokens").exists()
    assert (fixtures / "far-v.tokens").exists()


def test_bench_violation_exits_two(tmp_path, capsys):
    # an undersized linear-rate trial count misses the error target
    config = tmp_path / "undersized.cfg"
    config.write_text(
        "trials = 400\nseed = 2\nrate = linear\nlinear_rate_constant = 0.05\n"
        "point n=100 L=45 U=55 s=3\n"
    )
    assert main(["bench", "sampling", "--config", str(config)]) == 2
    assert "false" in capsys.readouterr().out


def test_usage_error_exit_code(tmp_path, capsys):
    # a missing argument, then bad values that the commands themselves reject
    config = tmp_path / "bad.cfg"
    config.write_text("trials = x\n")
    cases = [
        (["volume"], "the following arguments are required"),
        (["volume", "0", "0"], "n must be >= 1, got 0"),
        (["volume", "5", "9"], "radius must satisfy 0 <= r <= n, got r=9, n=5"),
        (["bounds", "det", "10", "0"], "gap must satisfy 1 <= gap <= n, got 0"),
        (["bounds", "stream", "10", "2.5", "1"], "c must lie strictly between 1 and 2"),
        (["bounds", "stream", "10", "1.5", "0"], "passes must be >= 1"),
        (["demo", "stream", "--passes", "0"], "passes must be >= 1"),
        (["bench", "sketch", "--config", str(config)], "line 1: key 'trials': cannot read 'x' as int"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 64, argv
        err = capsys.readouterr().err
        assert "error: " + message in err, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--config", "{tmp}/nope.cfg"], "No such file or directory"),
        (["--config", "{tmp}/det.cfg", "--out", "{tmp}/no/report.csv"], "No such file or directory"),
        (["--config", "{tmp}/det.cfg", "--code-dir", "{tmp}/det.cfg"], "File exists"),
    ],
    ids=["missing-config", "out-in-a-missing-dir", "code-dir-is-a-file"],
)
def test_bench_file_errors_are_usage_errors(tmp_path, capsys, argv, message):
    (tmp_path / "det.cfg").write_text("trials = 5\npoint n=8 t=3\n")
    with pytest.raises(SystemExit) as info:
        main(["bench", "det", *(arg.format(tmp=tmp_path) for arg in argv)])
    assert info.value.code == 64
    err = capsys.readouterr().err
    assert "error: [Errno " in err and message in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    config = tmp_path / "det.cfg"
    config.write_text("trials = 5\npoint n=8 t=3\n")
    with pytest.raises(SystemExit) as info:
        main(["bench", "det", "--config", str(config), "--jobs", jobs])
    assert info.value.code == 64
    assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--n", "6"], "f6dcd99b1c27b89ddac529a0efc711b0347af5059ac5169531ff1cd180c34709"),
        (
            ["--n", "8", "--passes", "3", "--c", "1.3"],
            "4df3a4973fbbd2d6885f63504862ce6b7ab33b30bafbb4cc4a387ad43fa7307d",
        ),
    ],
    ids=["n6", "n8-p3-c1.3"],
)
def test_demo_stream_output_is_pinned(argv, digest, capsys):
    # the walkthrough's text, byte for byte
    assert main(["demo", "stream", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _trace_lines(capsys, *argv, protocol="sketch"):
    assert main(["trace", protocol, *argv]) == 0
    return capsys.readouterr().out.splitlines()


def _traced_fields(lines, dump):
    """The lines after a ledger dump, which they must start with, as a dict."""
    assert lines[: len(dump)] == dump
    return dict(line.split(" ", 1) for line in lines[len(dump) :])


@pytest.mark.parametrize("distance", [0, 4, 5, 256])
def test_trace_sketch_prints_the_run_it_traces(capsys, distance):
    params = derive_sketch_params(512, 4, 256, 2.0)
    x, y = random_pair_at_distance(512, distance, derive_seed(7, 0))
    outcome = sketch_protocol(params).run(x, y, derive_seed(7, 1))
    statistics = sketch_statistics(x, y, params, derive_seed(7, 1))
    lines = _trace_lines(capsys, "512", "4", "256", "2", "--distance", str(distance), "--seed", "7")
    dump = outcome.ledger.dump().splitlines()
    assert lines[: len(dump)] == dump
    out = dict(line.split() for line in lines[len(dump) :])
    assert out["rounds"] == "2"
    assert out["declared_bits"] == out["ledger_bits"] == str(outcome.ledger.total_bits)
    assert out["received_statistic"] == repr(statistics.received_statistic)
    assert out["exact_statistic"] == repr(statistics.exact_statistic)
    assert out["threshold"] == repr(params.threshold)
    assert float(out["close_certificate"]) < params.threshold and out["close_certified"] == "yes"
    assert out["output"] == str(outcome.output) == str(statistics.decision)
    assert lines[-1] == f"output {outcome.output}"


def test_trace_sketch_in_trivial_mode_prints_the_ledger_and_output(capsys):
    params = derive_sketch_params(16, 0, 16, 16.0)
    assert params.trivial_mode
    x, y = random_pair_at_distance(16, 3, derive_seed(2, 0))
    outcome = sketch_protocol(params).run(x, y, derive_seed(2, 1))
    lines = _trace_lines(capsys, "16", "0", "16", "16", "--distance", "3", "--seed", "2")
    assert lines == outcome.ledger.dump().splitlines() + [f"output {outcome.output}"]


def test_trace_sketch_is_repeatable_and_leaves_sweeps_alone(capsys):
    config = parse_config("protocol = sketch\ntrials = 20\nseed = 4\npoint n=512 L=4 U=256 s=2\n")
    before = run_experiment(config)
    argv = ("512", "4", "256", "2", "--distance", "256", "--seed", "3")
    assert _trace_lines(capsys, *argv) == _trace_lines(capsys, *argv)
    after = run_experiment(config)
    assert after.to_csv() == before.to_csv() and after.to_json() == before.to_json()


def test_trace_sketch_refuses_a_distance_beyond_n(capsys):
    with pytest.raises(SystemExit) as info:
        main(["trace", "sketch", "512", "4", "256", "2", "--distance", "513", "--seed", "1"])
    assert info.value.code == 64
    assert "distance must satisfy 0 <= d <= n, got 513" in capsys.readouterr().err


@pytest.mark.parametrize("n, gap, distance", [(16, 5, 0), (16, 5, 5), (16, 5, 16), (10, 4, 2), (18, 7, 9)])
def test_trace_det_prints_the_run_it_traces(capsys, n, gap, distance):
    params = det_protocol_params(n, gap)
    x, y = random_pair_at_distance(n, distance, derive_seed(4, 0))
    outcome = det_protocol(params).run(x, y, 0)
    lines = _trace_lines(capsys, str(n), str(gap), "--distance", str(distance), "--seed", "4", protocol="det")
    out = _traced_fields(lines, outcome.ledger.dump().splitlines())
    index = int(out["codeword_index"])
    # Alice's message is the codeword index, and Bob's bit compares his distance to the radius
    assert outcome.ledger.messages[0].payload == index
    codeword = params.code.codewords[index]
    assert out == {
        "rounds": "2",
        "declared_bits": str(params.cost_bits),
        "ledger_bits": str(outcome.ledger.total_bits),
        "codeword_index": str(index),
        "codeword_distance_x": str((codeword ^ x.value).bit_count()),
        "codeword_distance_y": str((codeword ^ y.value).bit_count()),
        "radius": str((gap - 1) // 2),
        "output": str(outcome.output),
    }
    assert int(out["codeword_distance_x"]) <= (gap - 1) // 2
    assert outcome.output == int(int(out["codeword_distance_y"]) > (gap - 1) // 2)
    assert lines[-1] == f"output {outcome.output}"


@pytest.mark.parametrize("n, c, p, distance", [(100, 1.5, 2, 50), (100, 1.5, 2, 0), (40, 1.2, 3, 7), (8, 1.5, 1, 8)])
def test_trace_stream_prints_the_run_it_traces(capsys, n, c, p, distance):
    x, y = random_pair_at_distance(n, distance, derive_seed(5, 0))
    output, run = ghd_via_streaming(lambda: ExactBitmapF0(2 * n, passes=p), c, x, y)
    argv = (str(n), str(c), str(p), "--distance", str(distance), "--seed", "5")
    lines = _trace_lines(capsys, *argv, protocol="stream")
    out = _traced_fields(lines, run.ledger.dump().splitlines())
    # 2p - 1 snapshots of the 2n-bit bitmap, two a pass but the last, and the decision bit
    snapshots = {f"pass_{i}_snapshot_bits": f"{2 * n} {2 * n}" for i in range(1, p)}
    snapshots[f"pass_{p}_snapshot_bits"] = str(2 * n)
    assert out == {
        "rounds": str(2 * p),
        "declared_bits": str((2 * p - 1) * 2 * n + 1),
        "ledger_bits": str(run.ledger.total_bits),
        **snapshots,
        "estimate": str(run.estimate),
        "threshold": str(n + stream_gap(n, c)),
        "output": str(output),
    }
    assert run.estimate == n + distance  # the exact bitmap counts every distinct token
    assert output == int(run.estimate >= n + stream_gap(n, c))


@pytest.mark.parametrize(
    "protocol, argv, config",
    [
        ("det", ("16", "5", "--distance", "5", "--seed", "1"), "protocol = det\ntrials = 20\nseed = 4\npoint n=16 t=5\n"),
        (
            "stream",
            ("100", "1.5", "2", "--distance", "50", "--seed", "1"),
            "protocol = stream\ntrials = 20\nseed = 4\npoint n=100 c=1.5 p=2\n",
        ),
    ],
)
def test_exact_traces_are_repeatable_and_leave_sweeps_alone(capsys, protocol, argv, config):
    before = run_experiment(parse_config(config))
    assert _trace_lines(capsys, *argv, protocol=protocol) == _trace_lines(capsys, *argv, protocol=protocol)
    after = run_experiment(parse_config(config))
    assert after.to_csv() == before.to_csv() and after.to_json() == before.to_json()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["det", "16", "0", "--distance", "3", "--seed", "1"], "gap must satisfy 1 <= gap <= n, got 0"),
        (["det", "16", "5", "--distance", "17", "--seed", "1"], "distance must satisfy 0 <= d <= n, got 17"),
        (["stream", "100", "2.5", "2", "--distance", "3", "--seed", "1"], "c must lie strictly between 1 and 2"),
        (["stream", "100", "1.5", "0", "--distance", "3", "--seed", "1"], "passes must be >= 1"),
    ],
)
def test_exact_traces_refuse_bad_arguments(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(["trace", *argv])
    assert info.value.code == 64
    assert f"error: {message}" in capsys.readouterr().err
