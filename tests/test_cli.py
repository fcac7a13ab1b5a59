import hashlib
import json
import logging
import math

import pytest

from ghd.bits import random_pair_at_distance
from ghd.cli import main
from ghd.experiments import parse_config, run_experiment
from ghd.runtime import derive_seed
from ghd.sketch import derive_sketch_params, sketch_protocol, sketch_statistics


def test_volume_command(capsys):
    assert main(["volume", "10", "3"]) == 0
    assert capsys.readouterr().out.strip() == "176"
    assert main(["volume", "5", "5", "--log2"]) == 0
    assert float(capsys.readouterr().out.strip()) == 5.0


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


def _trace_lines(capsys, *argv):
    assert main(["trace", "sketch", *argv]) == 0
    return capsys.readouterr().out.splitlines()


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
