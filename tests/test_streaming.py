import math
import random

import pytest

from ghd.bits import BitString, hamming_distance, log2_ball_volume, random_pair_at_distance
from ghd.runtime import ContractViolationError, derive_seed
from ghd.streaming import (
    ExactBitmapF0,
    StateSnapshot,
    TruncatedBitmapF0,
    encode_streams,
    exact_f0,
    ghd_via_streaming,
    read_stream_fixture,
    search_counterexample,
    space_lower_bound,
    stream_gap,
    write_stream_fixture,
)


# -------------------------------------------------------------- encoding


def test_encode_examples():
    n = 4
    zeros = BitString.zeros(n)
    ones = BitString.ones(n)
    assert encode_streams(zeros, zeros, n)[0] == [1, 2, 3, 4]
    assert encode_streams(ones, ones, n)[0] == [5, 6, 7, 8]
    x = BitString.from_text("1010")
    assert encode_streams(x, zeros, n)[0] == [5, 2, 7, 4]


def test_tokens_stay_in_universe():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 40)
        x, y = BitString.random(n, rng), BitString.random(n, rng)
        u, v = encode_streams(x, y, n)
        assert len(u) == len(v) == n
        assert all(1 <= t <= 2 * n for t in u + v)


def test_exact_f0_examples():
    assert exact_f0([1, 1, 1]) == 1
    assert exact_f0(range(1, 13)) == 12
    assert exact_f0([]) == 0


def test_reduction_identity_exhaustive_small():
    for n in range(1, 7):
        for xv in range(1 << n):
            for yv in range(1 << n):
                x, y = BitString(n, xv), BitString(n, yv)
                u, v = encode_streams(x, y, n)
                assert exact_f0(u + v) == n + hamming_distance(x, y)


def test_reduction_identity_random_n100():
    for trial in range(200):
        d = trial % 101
        x, y = random_pair_at_distance(100, d, seed=derive_seed(1, trial))
        u, v = encode_streams(x, y, 100)
        assert exact_f0(u + v) == 100 + d


# -------------------------------------------------------------- snapshots


def test_snapshot_round_trip_bitmap():
    algo = ExactBitmapF0(16)
    algo.start_pass(0)
    for token in (1, 5, 16, 5):
        algo.consume(token)
    snap = algo.snapshot()
    assert snap.bit_length == 16
    other = ExactBitmapF0(16)
    other.restore(snap)
    assert other.estimate() == algo.estimate() == 3


def test_snapshot_validation():
    with pytest.raises(ValueError):
        StateSnapshot(b"", 1)
    with pytest.raises(ValueError):
        StateSnapshot(b"\x00", 0)
    algo = ExactBitmapF0(8)
    with pytest.raises(ValueError):
        algo.restore(StateSnapshot(b"\x00\x00", 16))


def test_bitmap_rejects_tokens_outside_universe():
    algo = ExactBitmapF0(8)
    with pytest.raises(ValueError):
        algo.consume(0)
    with pytest.raises(ValueError):
        algo.consume(9)


# ------------------------------------------------------------- reduction


def test_exact_bitmap_decides_equal_inputs():
    x, _ = random_pair_at_distance(50, 0, seed=2)
    output, run = ghd_via_streaming(lambda: ExactBitmapF0(100), 1.5, x, x)
    assert output == 0
    assert run.distinct_count == 50
    assert run.estimate == 50
    assert run.state_bits == 100
    assert run.communication_bits <= 2 * 1 * 100


def test_exact_bitmap_decides_far_inputs():
    gap = math.ceil(50 * 0.5)
    x, y = random_pair_at_distance(50, gap, seed=3)
    output, run = ghd_via_streaming(lambda: ExactBitmapF0(100), 1.5, x, y)
    assert output == 1
    assert run.estimate == 50 + gap


def test_handoff_budget_per_pass():
    x, y = random_pair_at_distance(40, 11, seed=4)
    for passes in (1, 2, 3):
        _, run = ghd_via_streaming(lambda: ExactBitmapF0(80, passes=passes), 1.25, x, y)
        assert run.passes == passes
        assert run.state_bits == 80
        # 2p-1 snapshot handoffs plus the answer bit
        assert run.communication_bits == (2 * passes - 1) * 80 + 1
        assert run.communication_bits <= 2 * passes * 80
        assert run.ledger.rounds == 2 * passes


def test_zero_error_on_promise_randomized():
    n, c = 60, 1.4
    gap = stream_gap(n, c)
    rng = random.Random(5)
    for _ in range(100):
        x = BitString.random(n, rng)
        output, _ = ghd_via_streaming(
            lambda: ExactBitmapF0(2 * n), c, x, x, check_determinism=False
        )
        assert output == 0
        d = rng.randint(gap, n)
        a, b = random_pair_at_distance(n, d, rng.getrandbits(62))
        output, _ = ghd_via_streaming(
            lambda: ExactBitmapF0(2 * n), c, a, b, check_determinism=False
        )
        assert output == 1


def test_rejects_bad_approx_factor():
    x, _ = random_pair_at_distance(10, 0, seed=6)
    for c in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(ValueError):
            ghd_via_streaming(lambda: ExactBitmapF0(20), c, x, x)


def test_nondeterministic_algorithm_detected():
    class Flaky(ExactBitmapF0):
        runs = 0

        def estimate(self) -> int:
            Flaky.runs += 1
            return super().estimate() + (1 if Flaky.runs > 1 else 0)

    x, _ = random_pair_at_distance(30, 0, seed=7)
    with pytest.raises(ContractViolationError):
        ghd_via_streaming(lambda: Flaky(60), 1.5, x, x)


# ----------------------------------------------------------- lower bound


def test_stream_gap_matches_exact_ceiling():
    # c = 1.k is the decimal k/10 above one: gap = ceil(n * k / 10) in integers
    for n in range(1, 200):
        for k in range(1, 10):
            assert stream_gap(n, float(f"1.{k}")) == -(-n * k // 10), (n, k)
    assert stream_gap(10, 1.1) == 1  # the float formula gives 2 here


def test_space_lower_bound_example():
    bound = space_lower_bound(1000, 1.5, 1)
    assert bound.gap == 500
    expected = (1000 - log2_ball_volume(1000, 250)) / 2.0
    assert abs(bound.state_bits_floor - expected) < 1e-9
    assert bound.asymptotic == 1000 * 0.25


def test_space_lower_bound_degenerate_ends():
    near_two = space_lower_bound(400, 1.999, 1)
    near_one = space_lower_bound(400, 1.001, 1)
    assert near_two.state_bits_floor < near_one.state_bits_floor
    assert near_one.state_bits_floor > 400 / 2 - 30  # approaches n/(2p)
    with pytest.raises(ValueError):
        space_lower_bound(10, 1.5, 0)


def test_exact_bitmap_memory_respects_floor_sweep():
    # the bound never falsely exceeds an actual sound algorithm's memory
    for n in range(2, 15):
        for c in (1.1, 1.3, 1.5, 1.7, 1.9):
            bound = space_lower_bound(n, c, 1)
            assert 2 * n >= bound.state_bits_floor


# --------------------------------------------------------- falsification


def test_truncated_bitmap_errs_and_is_found():
    report = search_counterexample(
        lambda: TruncatedBitmapF0(120, capacity_bits=30), 1.5, 60, trials=200, seed=8
    )
    assert report.found
    assert report.output != report.expected


def test_sound_algorithm_yields_inconclusive_report():
    report = search_counterexample(
        lambda: ExactBitmapF0(60), 1.5, 30, trials=50, seed=9
    )
    assert not report.found
    assert report.trials == 50


# -------------------------------------------------------------- fixtures


def test_stream_fixture_round_trip(tmp_path):
    tokens = [5, 2, 7, 4, 4]
    path = tmp_path / "stream.tokens"
    write_stream_fixture(tokens, path)
    assert path.read_text() == "5\n2\n7\n4\n4\n"
    assert read_stream_fixture(path) == tokens


@pytest.mark.parametrize(
    "text, line",
    [
        ("5\nabc\n", 2),
        ("5\n\n+2\n", 3),
        ("1_0\n", 1),
        ("4\n-4\n", 2),
        ("٣\n", 1),  # Arabic-Indic three
        ("0\n", 1),
        ("07\n", 1),
        ("3 4\n", 1),
    ],
)
def test_fixture_errors_name_file_and_line(tmp_path, text, line):
    path = tmp_path / "stream.tokens"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"stream\.tokens, line {line}:"):
        read_stream_fixture(path)
