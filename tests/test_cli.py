import math

import pytest

from ghd.cli import main


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["volume"])
    assert info.value.code == 64
