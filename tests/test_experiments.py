import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import re
import tracemalloc
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghd import bits, covering, experiments, runtime, sampling
from ghd.experiments import (
    COLUMNS,
    ExperimentConfig,
    compare_bounds,
    load_config,
    parse_config,
    run_experiment,
)
from ghd.bits import BitString
from ghd.covering import CoveringCode
from ghd.runtime import ContractViolationError, StreamReader, derive_seed
from ghd.sampling import derive_sampling_params
from ghd.sketch import derive_sketch_params
from ghd.streaming import TruncatedBitmapF0, ghd_via_streaming, stream_gap, streaming_protocol

SKETCH_CONFIG = """
# small sketch sweep
protocol = sketch
trials = 60
seed = 7
format = csv
point n=128 L=2 U=64 s=1
point n=128 L=2 U=64 s=2
point n=128 L=130 U=64 s=1   # invalid on purpose
"""

SAMPLING_CONFIG = """
protocol = sampling
trials = 60
seed = 7
point n=128 L=2 U=64 s=1
point n=128 L=2 U=64 s=2
"""


# ---------------------------------------------------------------- parsing


def test_parse_config_round_trip():
    config = parse_config(SKETCH_CONFIG)
    assert config.protocol == "sketch"
    assert config.trials == 60
    assert config.seed == 7
    assert config.output_format == "csv"
    assert len(config.grid) == 3
    assert config.grid[0] == {"n": 128, "L": 2, "U": 64, "s": 1.0}


def test_parse_config_defaults_are_the_dataclass_defaults():
    assert parse_config("protocol = det\n") == ExperimentConfig("deterministic", ())


def test_parse_config_protocol_aliases_and_conflicts():
    assert parse_config("point n=10 t=4\n", protocol="det").protocol == "deterministic"
    assert parse_config("protocol = stream\npoint n=10 c=1.5 p=1\n").protocol == "streaming"
    with pytest.raises(ValueError):
        parse_config(SKETCH_CONFIG, protocol="sampling")
    with pytest.raises(ValueError):
        parse_config("point n=10 t=4\n")  # no protocol anywhere


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config("protocol = sketch\nbogus = 1\n")
    with pytest.raises(ValueError):
        parse_config("protocol = sketch\npoint n=10 zz=4\n")
    with pytest.raises(ValueError):
        parse_config("protocol = sketch\nnot a config line\n")


def test_empty_grid_is_empty_report():
    report = run_experiment(parse_config("protocol = sketch\n"))
    assert report.records == []
    assert not report.has_violation


# ---------------------------------------------------------------- records


def test_sketch_records_and_skip_reason():
    report = run_experiment(parse_config(SKETCH_CONFIG))
    assert len(report.records) == 3
    ok = [r for r in report.records if r["status"] == "ok"]
    skipped = [r for r in report.records if r["status"] == "skipped"]
    assert len(ok) == 2 and len(skipped) == 1
    assert skipped[0]["reason"]
    for record in ok:
        assert record["protocol"] == "sketch"
        assert record["bits_ok"] is True
        assert record["bound_ok"] is True
        assert record["err_close"] == 0.0
        assert record["err_far"] <= math.exp(-record["s"]) + 3 * math.sqrt(
            math.exp(-record["s"]) / 60
        )
        assert record["measured_bits"] == record["expected_bits"]
    assert not report.has_violation


def test_reports_are_reproducible_and_parallel_consistent():
    config = parse_config(SAMPLING_CONFIG)
    serial = run_experiment(config, jobs=1)
    again = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=2)
    assert serial.to_csv() == again.to_csv() == parallel.to_csv()
    assert serial.to_json() == parallel.to_json()


def test_det_records(tmp_path):
    config = parse_config(
        "protocol = det\ntrials = 40\nseed = 3\npoint n=10 t=4\npoint n=8 t=8\n",
    )
    report = run_experiment(config)
    assert all(r["status"] == "ok" for r in report.records)
    for record in report.records:
        assert record["bound_ok"] is True
        assert record["cost_in_bounds"] is True
        assert record["err_close"] == 0.0 and record["err_far"] == 0.0
        assert record["measured_bits"] == record["index_width"] + 1
        assert record["lower_bits"] <= record["measured_bits"] <= record["upper_bits"]


def test_det_code_dir_cache(tmp_path):
    code_dir = tmp_path / "codes"
    text = f"protocol = det\ntrials = 10\ncode_dir = {code_dir}\npoint n=9 t=4\n"
    first = run_experiment(parse_config(text))
    assert (code_dir / "code-n9-r1.txt").exists()
    second = run_experiment(parse_config(text))
    assert first.to_csv() == second.to_csv()


def test_points_sharing_a_radius_audit_their_code_file_once(tmp_path, monkeypatch):
    monkeypatch.setattr(covering, "_loaded_codes", OrderedDict())
    audited = []
    audit = covering.audit_covering
    monkeypatch.setattr(covering, "audit_covering", lambda code: audited.append(code) or audit(code))
    code_dir = tmp_path / "codes"
    config = parse_config(f"protocol = det\ntrials = 30\nseed = 5\ncode_dir = {code_dir}\npoint n=12 t=5\npoint n=12 t=6\n")
    report = run_experiment(config)
    assert [r["status"] for r in report.records] == ["ok", "ok"]
    assert sorted(path.name for path in code_dir.iterdir()) == ["code-n12-r2.txt"]
    assert len(audited) == 1
    assert run_experiment(config).to_csv() == report.to_csv()
    assert len(audited) == 1  # a second sweep reuses it too
    covering._loaded_codes.clear()
    assert run_experiment(config).to_csv() == report.to_csv()
    assert len(audited) == 2


def test_progress_is_logged_per_point_and_leaves_reports_alone(tmp_path, caplog):
    text = f"protocol = det\ntrials = 20\nseed = 4\ncode_dir = {tmp_path}\npoint n=9 t=4\npoint n=9 t=40\n"
    config = parse_config(text)
    quiet = run_experiment(config)
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="ghd")
    logged = run_experiment(config)
    assert logged.to_csv() == quiet.to_csv() and logged.to_json() == quiet.to_json()
    progress = [r for r in caplog.records if r.name == "ghd.experiments"]
    assert [r.levelno for r in progress] == [logging.INFO] * 2
    assert re.fullmatch(r"point 0: ok in \d+\.\d{3} s, 2 audited runs", progress[0].getMessage())
    assert re.fullmatch(r"point 1: skipped in \d+\.\d{3} s, 0 audited runs", progress[1].getMessage())
    assert logging.getLogger("ghd.experiments").handlers == []


def test_decode_table_log_leaves_exact_sweep_reports_alone(caplog):
    # 400 rows a class pay for the (17, 3) table, as 500 pay for (18, 3) in the benchmark
    texts = (
        "protocol = det\ntrials = 400\nseed = 6\npoint n=12 t=5\npoint n=17 t=7\n",
        "protocol = stream\ntrials = 50\nseed = 6\npoint n=100 c=1.5 p=2\n",
    )
    quiet = [run_experiment(parse_config(text)) for text in texts]
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="ghd.covering")
    logged = [run_experiment(parse_config(text)) for text in texts]
    for a, b in zip(logged, quiet):
        assert a.to_csv() == b.to_csv() and a.to_json() == b.to_json()
    built = [r.getMessage() for r in caplog.records if r.name == "ghd.covering"]
    assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 4
    # with no code_dir each point builds its greedy code, then its batch builds the table
    assert re.fullmatch(r"built the greedy \(12, 2\) code: \d+ words; .* updates in \d+\.\d{3} s", built[0])
    assert re.fullmatch(r"built the decode table of \(12, 2\): 4096 entries of uint8 in \d+\.\d{3} s", built[1])
    assert re.fullmatch(r"built the greedy \(17, 3\) code: \d+ words; .* updates in \d+\.\d{3} s", built[2])
    assert re.fullmatch(r"built the decode table of \(17, 3\): 131072 entries of uint16 in \d+\.\d{3} s", built[3])
    assert logging.getLogger("ghd.covering").handlers == []


def test_det_sweep_raises_on_a_word_its_code_does_not_cover(monkeypatch):
    # 110 lies at 2 from every codeword; a sweep that draws it raises rather
    # than count a wrong answer or skip the point
    holed = CoveringCode(3, 1, (0b000, 0b011, 0b101))
    monkeypatch.setattr(experiments, "greedy_covering_code", lambda n, radius: holed)
    config = parse_config("protocol = det\ntrials = 40\nseed = 3\npoint n=3 t=3\n")
    with pytest.raises(ContractViolationError, match="word 110 lies at distance 2"):
        run_experiment(config)


def test_skipped_det_point_builds_no_code(tmp_path, monkeypatch):
    # t out of [1, n] is refused before greedy runs or a code file is written
    built = []
    greedy = experiments.greedy_covering_code
    monkeypatch.setattr(experiments, "greedy_covering_code", lambda n, r: built.append((n, r)) or greedy(n, r))
    code_dir = tmp_path / "codes"
    points = "point n=12 t=5 s=1\npoint n=9 t=4\npoint n=10 t=0\npoint n=8 t=9\n"
    config = parse_config(f"protocol = det\ntrials = 5\ncode_dir = {code_dir}\n{points}")
    skipped, ok, low, high = run_experiment(config).records
    assert (skipped["status"], skipped["reason"]) == ("skipped", "unused point key 's'")
    assert ok["status"] == "ok"
    assert (low["status"], low["reason"]) == ("skipped", "gap must satisfy 1 <= gap <= n, got 0")
    assert (high["status"], high["reason"]) == ("skipped", "gap must satisfy 1 <= gap <= n, got 9")
    assert sorted(path.name for path in code_dir.iterdir()) == ["code-n9-r1.txt"]
    assert built == [(9, 1)]


def test_sketch_grid_beyond_float64_is_skipped():
    config = parse_config("protocol = sketch\ntrials = 1\npoint n=135688 L=0 U=135688 s=1\n")
    report = run_experiment(config)
    (record,) = report.records
    assert record["status"] == "skipped"
    assert "n = 135688, block_length = 13" in record["reason"]


def test_stream_records():
    config = parse_config(
        "protocol = stream\ntrials = 30\nseed = 5\npoint n=40 c=1.5 p=2\npoint n=40 c=2.5 p=1\n"
    )
    report = run_experiment(config)
    ok = [r for r in report.records if r["status"] == "ok"]
    skipped = [r for r in report.records if r["status"] == "skipped"]
    assert len(ok) == 1 and len(skipped) == 1
    record = ok[0]
    assert record["t"] == 20
    assert record["state_bits"] == 80
    assert record["bits_ok"] is True
    assert record["bound_ok"] is True
    assert record["measured_bits"] <= record["expected_bits"] == 2 * 2 * 80


def test_csv_shape_and_json_validity():
    report = run_experiment(parse_config(SAMPLING_CONFIG))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 1 + len(report.records)
    parsed = json.loads(report.to_json())
    assert [r["protocol"] for r in parsed] == ["sampling", "sampling"]


# ------------------------------------------------------------- comparison


def test_compare_bounds_table():
    sampling = run_experiment(parse_config(SAMPLING_CONFIG)).records
    sketch = [r for r in run_experiment(parse_config(SKETCH_CONFIG)).records if r["status"] == "ok"]
    rows = compare_bounds(sampling + sketch)
    assert len(rows) == 2
    for row in rows:
        assert row["crossover_regime"] is True  # s < U at both points
        assert row["sampling_rate"] == row["s"] / row["U"] * row["n"]
        expected = (row["s"] / row["U"]) ** (1 / 3) * row["n"] * math.log2(row["n"])
        assert abs(row["sketch_rate"] - expected) < 1e-9
        # in this regime the sampling rate is below the sketch rate
        assert row["sampling_rate"] < row["sketch_rate"]


def test_compare_bounds_rejects_single_protocol_and_mismatch():
    sampling = run_experiment(parse_config(SAMPLING_CONFIG)).records
    with pytest.raises(ValueError):
        compare_bounds(sampling)
    sketch = [r for r in run_experiment(parse_config(SKETCH_CONFIG)).records if r["status"] == "ok"]
    with pytest.raises(ValueError):
        compare_bounds(sampling[:1] + sketch)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(protocol="nope", grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(protocol="sketch", grid=(), output_format="xml")
    with pytest.raises(ValueError):
        ExperimentConfig(protocol="sketch", grid=(), trials=0)


# ------------------------------------------------------- pinned reports

# Small sweeps of all four protocols, with one row for each skip reason:
# missing key, L >= U, s <= 0, s below the guarantee floor, t > n,
# c outside (1, 2) and p < 1.  n=200 L=0 U=3 s=1 is a trivial-mode sketch.
DIGEST_SWEEPS = {
    "sampling-hoeffding": (
        "protocol = sampling\ntrials = 40\nseed = 11\n"
        "point n=64 L=2 U=40 s=1\npoint n=96 L=4 U=48 s=2.5\npoint n=64 L=10 U=30 s=0.3\n"
        "point n=64 L=2 U=40\npoint n=64 L=40 U=40 s=1\npoint n=64 L=2 U=40 s=0\n",
        "87f18b8ca8069f75f250e8f52d04d2a80b8e889b6ee6d540de8da5f1447a0235",
    ),
    "sampling-linear": (
        "protocol = sampling\ntrials = 40\nseed = 12\nrate = linear\nlinear_rate_constant = 6.5\n"
        "point n=64 L=2 U=40 s=1\npoint n=96 L=4 U=48 s=2.5\n"
        "point n=64 L=41 U=40 s=1\npoint L=2 U=40 s=1\n",
        "ffc65ce262612fdf76efc94b10ccbdf1a7584332978bc47a959c190c04d2f59b",
    ),
    "sketch": (
        "protocol = sketch\ntrials = 40\nseed = 13\n"
        "point n=64 L=1 U=32 s=1\npoint n=64 L=1 U=32 s=0.01\npoint n=96 L=2 U=48 s=2\n"
        "point n=200 L=0 U=3 s=1\npoint n=64 L=2 U=40 s=0.0001\n"
        "point n=64 L=40 U=40 s=1\npoint n=64 L=2 s=1\n",
        "7173621fa2fb281828bbbc271cd0f5c39ee0ee9f621e56d73648ecd299f67e96",
    ),
    "det": (
        "protocol = det\ntrials = 60\nseed = 14\ncode_dir = {code_dir}\n"
        "point n=10 t=4\npoint n=8 t=8\npoint n=9 t=1\npoint n=8 t=9\npoint n=8\n",
        "c2fb22c60dd0168c6e7d12a5d6816faabe50747be9210c85e14192d06af9e0e5",
    ),
    "stream": (
        "protocol = stream\ntrials = 20\nseed = 15\n"
        "point n=40 c=1.5 p=2\npoint n=24 c=1.1 p=1\npoint n=40 c=2.5 p=1\n"
        "point n=40 c=1.5 p=0\npoint n=40 p=1\n",
        "6551a6450c1d24400f912ed848a327973c1baf65b7e725c813314f3e7c08a383",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGEST_SWEEPS))
def test_reports_match_parent_digests(tmp_path, name):
    text, digest = DIGEST_SWEEPS[name]
    report = run_experiment(parse_config(text.format(code_dir=tmp_path / "codes")))
    assert hashlib.sha256((report.to_csv() + report.to_json()).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(DIGEST_SWEEPS))
def test_csv_rows_read_back_as_the_columns(tmp_path, name):
    # skip reasons such as "got (40, 2, n=64)" hold commas, so their cells are quoted
    text, _ = DIGEST_SWEEPS[name]
    report = run_experiment(parse_config(text.format(code_dir=tmp_path / "codes")))
    header, *rows = csv.reader(io.StringIO(report.to_csv()))
    assert header == COLUMNS and len(rows) == len(report.records)
    for row, record in zip(rows, report.records):
        assert len(row) == len(COLUMNS)
        assert row[COLUMNS.index("reason")] == (record["reason"] or "")


# --------------------------------------------------- batched exact sweeps


def _trial_rows(trials, point_seed, n, gap):
    """Trial k's close word, far x and far y, each drawn by the kernel on its own seed."""
    seeds = runtime._trial_seeds(derive_seed(point_seed, 0), trials)
    for k in range(trials):
        yield [bits._limb_value(row) for row in runtime._exact_class_values(seeds[k : k + 1], n, gap)[0]]


def _looped_classes(trials, point_seed, n, gap, run):
    """Each class's error trials, every trial run through ``run`` one at a time."""
    errors0, errors1 = [], []
    for trial, (close, x, y) in enumerate(_trial_rows(trials, point_seed, n, gap)):
        word = BitString(n, close)
        if run(word, word).output != 0:
            errors0.append(trial)
        if run(BitString(n, x), BitString(n, y)).output != 1:
            errors1.append(trial)
    return errors0, errors1


@pytest.mark.parametrize("point_seed, first_far_error", [(3, 0), (6, 41)])
def test_exact_classes_audit_trial_zero_and_the_first_error(point_seed, first_far_error):
    # a 17-bit bitmap at n = 9 drops token 18, so far pairs at distance 5 err;
    # point seed 3 first errs on far trial 0, point seed 6 on far trial 41
    n, c = 9, 1.5
    gap = stream_gap(n, c)
    make = lambda: TruncatedBitmapF0(2 * n, capacity_bits=17, passes=2)
    runs = []

    def run(x, y):
        runs.append((x, y))
        return ghd_via_streaming(make, c, x, y, check_determinism=False)[1]

    config = parse_config("protocol = stream\ntrials = 60\n")
    record = {}
    audited = experiments._exact_classes(
        config, record, point_seed, n, gap, streaming_protocol(make, c), run
    )
    rows = list(_trial_rows(60, point_seed, n, gap))
    # close trial 0, far trial 0, and the first far error when it comes later
    expected = [(rows[0][0], rows[0][0])] + [tuple(rows[k][1:]) for k in sorted({0, first_far_error})]
    assert [(x.value, y.value) for x, y in runs] == expected
    assert len(audited) == len(expected)
    errors0, errors1 = _looped_classes(60, point_seed, n, gap, run)
    assert errors0 == [] and errors1[0] == first_far_error
    # 3 snapshots of the 17-bit bitmap and the decision bit
    assert record == {
        "err_close": 0.0,
        "err_close_hw": 0.0,
        "err_far": len(errors1) / 60,
        "err_far_hw": 0.0,
        "error_bound": 0.0,
        "bound_ok": False,
        "measured_bits": 3 * 17 + 1,
    }


@pytest.mark.parametrize("n, gap", [(16, 5), (18, 7), (100, stream_gap(100, 1.5))])
def test_exact_classes_draw_far_pairs_in_lanes(n, gap):
    # the exact_sweep points: det (16, t = 5), det (18, t = 7), stream (100, c = 1.5)
    scored = []

    def pair_outputs(width, xs, ys):
        assert width == n
        scored.append((xs, ys))
        return (xs != ys).any(axis=1).astype(np.int64)

    config = parse_config("protocol = det\ntrials = 500\n")
    record = {}
    audited = experiments._exact_classes(
        config, record, 3, n, gap, SimpleNamespace(pair_outputs=pair_outputs),
        lambda x, y: SimpleNamespace(output=int(x != y), ledger=SimpleNamespace(total_bits=y.value % 1000)),
    )
    assert len(audited) == 2  # trial 0 of each class: no errors
    assert (record["err_close"], record["err_far"], record["bound_ok"]) == (0.0, 0.0, True)
    rows = list(_trial_rows(500, 3, n, gap))
    assert record["measured_bits"] == max(rows[0][0] % 1000, rows[0][2] % 1000)
    (close_xs, close_ys), (far_xs, far_ys) = scored
    assert close_xs is close_ys  # the close class passes one matrix twice
    for column, matrix in enumerate((close_xs, far_xs, far_ys)):
        assert matrix.dtype == np.uint64 and matrix.shape == (500, (n + 63) // 64)
        assert [bits._limb_value(row) for row in matrix] == [words[column] for words in rows]


def _doctor(factory, name, trial):
    """``factory`` whose protocol's batch flips one output of one class."""

    def doctored(*args):
        protocol = factory(*args)

        def pair_outputs(n, xs, ys):
            outputs = protocol.pair_outputs(n, xs, ys)
            if (xs is ys) == (name == "close"):  # the close class pairs x with itself
                outputs[trial] ^= 1
            return outputs

        return dataclasses.replace(protocol, pair_outputs=pair_outputs)

    return doctored


@pytest.mark.parametrize("name, trial", [("close", 0), ("far", 0), ("close", 7), ("far", 3)])
@pytest.mark.parametrize(
    "factory, text",
    [
        ("det_protocol", "protocol = det\ntrials = 20\npoint n=10 t=4\n"),
        ("streaming_protocol", "protocol = stream\ntrials = 20\npoint n=20 c=1.5 p=2\n"),
    ],
)
def test_doctored_pair_outputs_raise_at_the_audited_trial(monkeypatch, factory, text, name, trial):
    # no trial errs, so a flipped output at trial 7 or 3 is the first error
    monkeypatch.setattr(experiments, factory, _doctor(getattr(experiments, factory), name, trial))
    message = rf"^batch output \d differs from the audited run's \d at trial {trial} of the {name} class$"
    with pytest.raises(ContractViolationError, match=message):
        run_experiment(parse_config(text))


def test_stream_point_over_the_budget_is_skipped_before_any_run(monkeypatch):
    text = (
        "protocol = stream\ntrials = 10\nseed = 4\npoint n=8 c=1.5 p=2\n"
        "point n=4 c=1.5 p=100\npoint n=4 c=1.5 p=1000000000\npoint n=8 c=1.5 p=1\n"
    )
    expected = run_experiment(parse_config(text)).records
    low, high, huge, last = expected
    assert (high["status"], high["reason"]) == (
        "skipped",
        "expected cost 1593 bits exceeds the run budget 1024 bits (64 n**2)",
    )
    assert huge["status"] == "skipped" and "expected cost 15999999993 bits" in huge["reason"]
    # the neighbours are the rows of sweeps without the skipped points
    alone = run_experiment(parse_config(text.replace("point n=4", "# point n=4"))).records
    assert [low, last] == alone
    assert low["status"] == last["status"] == "ok"
    assert low["measured_bits"] == 3 * 16 + 1 and last["measured_bits"] == 16 + 1

    def no_run(*args, **kwargs):
        raise AssertionError("a skipped point ran the protocol")

    monkeypatch.setattr(experiments, "ghd_via_streaming", no_run)
    monkeypatch.setattr(experiments, "streaming_protocol", no_run)
    config = parse_config("protocol = stream\ntrials = 10\npoint n=4 c=1.5 p=1000000000\n")
    assert run_experiment(config).records == [huge]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, points, workers", [(64, 2, [2]), (2, 5, [2]), (8, 1, []), (1, 3, [])])
def test_jobs_start_at_most_one_worker_per_point(monkeypatch, jobs, points, workers):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    grid = "".join(f"point n={8 + i} t=3\n" for i in range(points))
    config = parse_config("protocol = det\ntrials = 5\n" + grid)
    report = run_experiment(config, jobs=jobs)
    assert _RecordingPool.started == workers
    assert report.to_csv() == run_experiment(config).to_csv()


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_raise(monkeypatch, jobs):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
        run_experiment(parse_config("protocol = det\ntrials = 5\npoint n=8 t=3\n"), jobs=jobs)


# ---------------------------------------------------------- bad inputs


@pytest.mark.parametrize("protocol", ["sampling", "sketch"])
@pytest.mark.parametrize(
    "s, reason",
    [
        ("inf", "error_exponent must be finite"),
        ("1e400", "error_exponent must be finite"),
        ("nan", "error_exponent must be finite"),
        ("-inf", "error_exponent must be positive"),
        ("0", "error_exponent must be positive"),
    ],
)
def test_bad_error_exponent_skips_one_row(protocol, s, reason):
    derive = derive_sampling_params if protocol == "sampling" else derive_sketch_params
    with pytest.raises(ValueError, match=reason):
        derive(64, 2, 40, float(s))
    config = parse_config(
        f"protocol = {protocol}\ntrials = 5\npoint n=64 L=2 U=40 s={s}\npoint n=64 L=2 U=40 s=1\n"
    )
    bad, good = run_experiment(config).records
    assert (bad["status"], bad["reason"]) == ("skipped", reason)
    assert good["status"] == "ok"


@pytest.mark.parametrize(
    "settings, point, reason",
    [
        ("", "n=64 L=2 U=40 s=1e308", "trial count inf is not finite"),
        ("rate = linear\nlinear_rate_constant = inf\n", "n=64 L=2 U=40 s=1", "linear_rate_constant"),
        ("rate = linear\nlinear_rate_constant = 0\n", "n=64 L=2 U=40 s=1", "linear_rate_constant"),
        ("rate = linear\nlinear_rate_constant = -3\n", "n=64 L=2 U=40 s=1", "linear_rate_constant"),
        ("", "n=16 L=0 U=1 s=40", "expected cost 20481 bits exceeds the run budget 16384 bits"),
        ("", "n=64 L=2 U=40 s=1e300", "exceeds the run budget 262144 bits"),
    ],
)
def test_sampling_faults_skip_one_row_before_any_draw(monkeypatch, settings, point, reason):
    def no_draw(*args):
        # fail at once: with a huge trial count the sampler would never finish
        raise AssertionError("a sampling index was drawn")

    monkeypatch.setattr(StreamReader, "index_below", no_draw)
    monkeypatch.setattr(StreamReader, "indices_below", no_draw)
    monkeypatch.setattr(sampling, "_indices_below_values", no_draw)
    config = parse_config(f"protocol = sampling\ntrials = 5\n{settings}point {point}\n")
    (record,) = run_experiment(config).records
    assert record["status"] == "skipped" and reason in record["reason"]


def test_sampling_point_over_the_working_set_is_skipped(monkeypatch):
    # m = 2 * 10**12 samples pass the 64 n**2 bit budget, but their indices
    # would take 16 TB; the valid point after the refused one still runs
    def bounded(draw):
        def checked(seeds, bound, count, start=0):
            assert count <= 10**6, "a point over the working-set limit drew its indices"
            return draw(seeds, bound, count, start)

        return checked

    monkeypatch.setattr(runtime, "_indices_below_values", bounded(runtime._indices_below_values))
    monkeypatch.setattr(sampling, "_indices_below_values", bounded(sampling._indices_below_values))
    text = "protocol = sampling\ntrials = 5\npoint n=1000000 L=0 U=1 s=1\npoint n=64 L=2 U=40 s=1\n"
    refused, valid = run_experiment(parse_config(text)).records
    limit = experiments._WORKING_SET_LIMIT
    assert (refused["status"], refused["reason"]) == (
        "skipped",
        f"index working set {16 * 10**12} bytes exceeds the limit {limit} bytes",
    )
    assert valid["status"] == "ok"
    assert [valid] == run_experiment(parse_config(text.replace("point n=1000000", "# point n=1000000"))).records


def _no_class_draws(monkeypatch):
    """Make any exact-sweep class draw fail at once, before it allocates."""

    def no_draw(*args):
        raise AssertionError("a point over the working-set limit drew its classes")

    monkeypatch.setattr(experiments, "_exact_class_values", no_draw)


def test_exact_points_over_the_working_set_are_skipped(monkeypatch):
    # 20 trials hold 4 * 20 * 8 = 640 bytes per limb of a word: 1,280 at
    # n = 100 and 640 at n = 60 and at every det point
    stream = "protocol = stream\ntrials = 20\nseed = 4\npoint n=100 c=1.5 p=2\npoint n=60 c=1.5 p=2\n"
    det = "protocol = det\ntrials = 20\nseed = 4\npoint n=12 t=5\n"
    valid = run_experiment(parse_config(stream.replace("point n=100", "# point n=100"))).records
    monkeypatch.setattr(experiments, "_WORKING_SET_LIMIT", 1000)
    # the trial check reads the same limit: at one byte a bit it passes
    # every point here, so only the class check refuses
    monkeypatch.setattr(experiments, "_TRIAL_BYTES_PER_BIT", 1)
    refused, after = run_experiment(parse_config(stream)).records
    assert (refused["status"], refused["reason"]) == (
        "skipped",
        "class working set 1280 bytes exceeds the limit 1000 bytes",
    )
    assert [after] == valid and after["status"] == "ok"
    monkeypatch.setattr(experiments, "_WORKING_SET_LIMIT", 600)
    _no_class_draws(monkeypatch)
    (record,) = run_experiment(parse_config(det)).records
    assert (record["status"], record["reason"]) == (
        "skipped",
        "class working set 640 bytes exceeds the limit 600 bytes",
    )


def test_ten_million_bit_stream_point_is_refused_before_any_draw(monkeypatch):
    # at the default 1,000 trials its classes would hold 4 * 1000 * 8 *
    # 156,250 bytes, about 5 GB; the guard fails the first draw if the
    # refusal ever goes
    assert 4 * 1000 * 8 * math.ceil(10**7 / 64) == 5 * 10**9 > experiments._WORKING_SET_LIMIT
    _no_class_draws(monkeypatch)
    (record,) = run_experiment(parse_config("protocol = stream\npoint n=10000000 c=1.5 p=1\n")).records
    assert (record["status"], record["reason"]) == (
        "skipped",
        f"class working set {5 * 10**9} bytes exceeds the limit {experiments._WORKING_SET_LIMIT} bytes",
    )


def test_points_over_the_trial_working_set_are_skipped_after_the_class_check(monkeypatch):
    # one trial at n = 100 holds 48 * 100 = 4,800 bytes, its classes 64; a
    # det trial at n = 12 holds 576, its classes 32
    monkeypatch.setattr(experiments, "_WORKING_SET_LIMIT", 1000)
    _no_class_draws(monkeypatch)
    stream = "protocol = stream\ntrials = 1\npoint n=100 c=1.5 p=2\npoint n=100 c=1.5 p=2000\n"
    refused, over_budget = run_experiment(parse_config(stream)).records
    assert (refused["status"], refused["reason"]) == (
        "skipped",
        "trial working set 4800 bytes exceeds the limit 1000 bytes",
    )
    assert over_budget["reason"].startswith("expected cost ")  # the budget is checked first
    monkeypatch.setattr(experiments, "_WORKING_SET_LIMIT", 500)
    (record,) = run_experiment(parse_config("protocol = det\ntrials = 1\npoint n=12 t=5\n")).records
    assert (record["status"], record["reason"]) == (
        "skipped",
        "trial working set 576 bytes exceeds the limit 500 bytes",
    )


@pytest.mark.parametrize("trials, n", [(1000, 6400), (20000, 100), (1, 10**6)])
def test_class_draw_peaks_within_its_refusal_estimates(trials, n):
    # the classes, 24 bytes a trial and limb, and one slice of the draw;
    # a slice holds one trial at n = 10**6
    estimate = max(32 * trials * math.ceil(n / 64), experiments._TRIAL_BYTES_PER_BIT * n)
    seeds = runtime._trial_seeds(5, trials)
    tracemalloc.start()
    try:
        values = experiments._exact_class_values(seeds, n, n // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (trials, 3, math.ceil(n / 64))
    assert peak <= estimate


def test_stream_point_with_a_55_bit_ball_volume_runs():
    # V2(64, 20) has 55 bits: its log once raised, which skipped this point
    (record,) = run_experiment(parse_config("protocol = stream\ntrials = 20\npoint n=64 c=1.625 p=1\n")).records
    assert record["status"] == "ok" and record["bound_ok"] and record["bits_ok"]
    (det,) = run_experiment(parse_config("protocol = det\npoint n=64 t=40\n")).records
    assert det["reason"] == "n = 64 exceeds the exhaustive-construction limit 22; use random_covering_code instead"


def test_contract_violations_still_raise(monkeypatch):
    def violate(*args):
        raise ContractViolationError("parties disagree")

    monkeypatch.setattr(experiments, "_error_trials", violate)
    with pytest.raises(ContractViolationError, match="parties disagree"):
        run_experiment(parse_config("protocol = sampling\ntrials = 5\npoint n=64 L=2 U=40 s=1\n"))


@pytest.mark.parametrize(
    "text, where",
    [
        ("protocol = sketch\npoint n=abc L=2 U=40 s=1\n", "line 2: key 'n'"),
        ("protocol = sketch\npoint n=64 L=2 U=40 s=two\n", "line 2: key 's'"),
        ("protocol = sketch\ntrials = x\n", "line 2: key 'trials'"),
        ("# seeds\nseed = 1.5\nprotocol = sketch\n", "line 2: key 'seed'"),
        ("protocol = sampling\nlinear_rate_constant = fast\n", "line 2: key 'linear_rate_constant'"),
        ("protocol = sketch\n\nbogus = 1\n", "line 3: unknown config key 'bogus'"),
        ("protocol = nope\n", "line 1: key 'protocol': unknown protocol 'nope'"),
        ("protocol = sketch\ntrials = 0\n", "line 2: key 'trials': must be >= 1, got 0"),
        ("format = xml\nprotocol = sketch\n", "line 1: key 'format': unknown output format 'xml'"),
        (b"protocol = sketch\n\xff\n", r"config\.txt, line 2: not UTF-8 text"),
    ],
)
def test_parse_config_errors_name_line_and_key(tmp_path, text, where):
    path = tmp_path / "config.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=where):
        load_config(path)
    if isinstance(text, str):
        with pytest.raises(ValueError, match=where):
            parse_config(text)


def test_repeated_point_key_names_the_line():
    with pytest.raises(ValueError, match="^line 2: repeated point key 'n'$"):
        parse_config("protocol = sketch\npoint n=64 n=32 L=2 U=20 s=1\n")


@pytest.mark.parametrize(
    "protocol, point, key",
    [
        ("sampling", "n=64 L=2 U=40 s=1 c=1.5", "c"),
        ("sketch", "n=64 L=2 U=40 s=1 t=3 p=9", "t"),
        ("det", "n=8 t=3 s=1", "s"),
        ("stream", "n=40 c=1.5 p=2 L=2", "L"),
    ],
)
def test_unused_point_key_skips_the_point(protocol, point, key):
    (record,) = run_experiment(parse_config(f"protocol = {protocol}\ntrials = 5\npoint {point}\n")).records
    assert (record["status"], record["reason"]) == ("skipped", f"unused point key {key!r}")


def test_conflicting_protocol_names_its_line():
    with pytest.raises(ValueError, match="^line 3: config names protocol 'sketch' but 'sampling'"):
        parse_config(SKETCH_CONFIG, protocol="sampling")


_VALUES = st.one_of(
    st.text(alphabet="0123456789.+-e_x#= ", max_size=6),
    st.sampled_from(["sketch", "det", "stream", "csv", "json", "xml", "0", "1", "-2", "nan", "1e400"]),
)
_CONFIG_LINES = st.one_of(
    st.text(max_size=12),
    st.builds(
        "{} = {}".format,
        st.sampled_from(sorted(experiments._SETTINGS) + ["bogus", "", "point"]),
        _VALUES,
    ),
    st.builds(
        lambda items: "point " + " ".join(items),
        st.lists(
            st.builds("{}={}".format, st.sampled_from(["n", "L", "U", "s", "t", "c", "p", "zz"]), _VALUES),
            max_size=4,
        ),
    ),
)


@given(lines=st.lists(_CONFIG_LINES, max_size=6), protocol=st.sampled_from([None, "sketch", "det"]))
def test_parse_config_parses_or_names_the_line(lines, protocol):
    text = "\n".join(lines)
    try:
        config = parse_config(text, protocol=protocol)
    except ValueError as exc:
        message = str(exc)
        if message.startswith("no protocol given"):
            assert protocol is None
            return
        match = re.match(r"line (\d+): ", message)
        assert match, message
        rows = text.splitlines()
        lineno = int(match.group(1))
        assert 1 <= lineno <= len(rows)
        # the named line is the first at fault: every line before it parses
        try:
            parse_config("\n".join(rows[: lineno - 1]))
        except ValueError as before:
            assert str(before).startswith("no protocol given"), str(before)
    else:
        assert config.protocol in experiments.PROTOCOLS


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: experiments.normalize_protocol("nope"), "unknown protocol 'nope'"),
        (lambda: parse_config("protocol = sketch\npoint n10\n"), "line 2: malformed point entry 'n10'"),
    ],
    ids=["protocol", "point-entry"],
)
def test_unknown_names_and_malformed_entries_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
