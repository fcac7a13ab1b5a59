import math
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghd.bits import BitString, _limb_matrix, hamming_distance, log2_ball_volume, random_pair_at_distance
from ghd.runtime import ContractViolationError, derive_seed
from ghd.streaming import (
    ExactBitmapF0,
    StateSnapshot,
    StreamingAlgorithm,
    TruncatedBitmapF0,
    encode_streams,
    exact_f0,
    ghd_via_streaming,
    read_stream_fixture,
    search_counterexample,
    space_lower_bound,
    stream_gap,
    streaming_protocol,
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


# --------------------------------------------------------- batch consume


def _per_token(machine, tokens):
    for token in tokens:
        machine.consume(token)
    return machine.snapshot()


def _batch(machine, tokens):
    machine.consume_all(np.array(tokens, dtype=np.int64))
    return machine.snapshot()


BITMAPS = [
    pytest.param(lambda: ExactBitmapF0(40), id="exact"),
    pytest.param(lambda: TruncatedBitmapF0(40, capacity_bits=17), id="truncated-17"),
    pytest.param(lambda: TruncatedBitmapF0(40, capacity_bits=1), id="truncated-1"),
]


@pytest.mark.parametrize("make", BITMAPS)
def test_consume_all_leaves_the_per_token_snapshot(make):
    rng = random.Random(3)
    for size in (0, 1, 5, 40, 200):
        tokens = [rng.randint(1, 40) for _ in range(size)]  # repeats, and above 17
        assert _batch(make(), tokens) == _per_token(make(), tokens)
        # a batch ORs into the state a previous pass left
        one, other = make(), make()
        _per_token(one, tokens[::2])
        _per_token(other, tokens[::2])
        assert _batch(one, tokens[1::2]) == _per_token(other, tokens[1::2])


def test_truncated_bitmap_drops_tokens_above_its_capacity():
    machine = TruncatedBitmapF0(40, capacity_bits=17)
    machine.consume_all(np.array([1, 17, 18, 40, 40], dtype=np.int64))
    machine.consume(30)
    assert machine.estimate() == 2
    assert machine.snapshot().bit_length == 17


@pytest.mark.parametrize("make", BITMAPS)
@pytest.mark.parametrize("bad", [0, 41, -3, 2**62])
def test_consume_all_names_the_first_bad_token_like_consume(make, bad):
    tokens = [5, 40, bad, 0, 41]
    with pytest.raises(ValueError) as per_token:
        _per_token(make(), tokens)
    with pytest.raises(ValueError) as batch:
        _batch(make(), tokens)
    assert str(batch.value) == str(per_token.value) == f"token {bad} outside universe [1, 40]"


@given(tokens=st.lists(st.integers(1, 64), max_size=150), capacity=st.integers(1, 64))
def test_consume_all_matches_consume_property(tokens, capacity):
    make = lambda: TruncatedBitmapF0(64, capacity_bits=capacity)
    assert _batch(make(), tokens) == _per_token(make(), tokens)


class _ConsumeOnlyBitmap(StreamingAlgorithm):
    """A plug-in written against the per-token contract alone."""

    def __init__(self, universe_size: int, passes: int = 1) -> None:
        self.universe_size = universe_size
        self.passes = passes
        self.seen: set[int] = set()

    def start_pass(self, pass_index: int) -> None:
        pass

    def consume(self, token: int) -> None:
        assert type(token) is int  # never a numpy scalar
        self.seen.add(token)

    def snapshot(self) -> StateSnapshot:
        bitmap = sum(1 << (t - 1) for t in self.seen)
        return StateSnapshot(bitmap.to_bytes((self.universe_size + 7) // 8, "big"), self.universe_size)

    def restore(self, snapshot: StateSnapshot) -> None:
        bitmap = int.from_bytes(snapshot.data, "big")
        self.seen = {i + 1 for i in range(self.universe_size) if bitmap >> i & 1}

    def estimate(self) -> int:
        return len(self.seen)


@pytest.mark.parametrize("passes", [1, 2])
def test_consume_only_plugin_runs_through_the_reduction(passes):
    n, c = 70, 1.5
    for d in (0, 35, 70):
        x, y = random_pair_at_distance(n, d, seed=d)
        output, run = ghd_via_streaming(
            lambda: _ConsumeOnlyBitmap(2 * n, passes), c, x, y, check_determinism=True
        )
        _, exact = ghd_via_streaming(lambda: ExactBitmapF0(2 * n, passes), c, x, y)
        assert output == (d >= stream_gap(n, c))
        assert run.estimate == n + d
        assert run.ledger.messages == exact.ledger.messages


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


def test_zero_pass_plugin_is_refused_before_the_run():
    x, y = random_pair_at_distance(4, 2, seed=5)

    def make():
        algo = ExactBitmapF0(8)
        algo.passes = 0
        return algo

    with pytest.raises(ValueError, match=r"plug-in declares passes = 0; it must be >= 1"):
        ghd_via_streaming(make, 1.5, x, y)


class _GrowingSnapshotBitmap(_ConsumeOnlyBitmap):
    """Snapshots only up to the highest token seen, so their widths vary."""

    def snapshot(self) -> StateSnapshot:
        bitmap = sum(1 << (t - 1) for t in self.seen)
        width = max(1, bitmap.bit_length())
        return StateSnapshot(bitmap.to_bytes((width + 7) // 8, "big"), width)


_PLUGINS = {
    "exact": (lambda n, passes: ExactBitmapF0(2 * n, passes), lambda n, u, v, passes: 2 * n),
    "truncated": (
        lambda n, passes: TruncatedBitmapF0(2 * n, capacity_bits=17, passes=passes),
        lambda n, u, v, passes: 17,
    ),
    "consume-only": (
        lambda n, passes: _ConsumeOnlyBitmap(2 * n, passes),
        lambda n, u, v, passes: 2 * n,
    ),
    # Alice's first snapshot covers u; with a second pass Bob's covers u and v
    "growing": (
        lambda n, passes: _GrowingSnapshotBitmap(2 * n, passes),
        lambda n, u, v, passes: max(u if passes == 1 else u + v),
    ),
}


@pytest.mark.parametrize("passes", [1, 2, 3])
@pytest.mark.parametrize("plugin", sorted(_PLUGINS))
def test_run_reports_match_the_oracle_and_the_ledger(plugin, passes):
    make, snapshot_bits = _PLUGINS[plugin]
    c = 1.5
    for n in (9, 20, 33):
        for d in sorted({0, 1, stream_gap(n, c) - 1, stream_gap(n, c), n}):
            x, y = random_pair_at_distance(n, d, seed=derive_seed(n, d))
            u, v = encode_streams(x, y, n)
            _, run = ghd_via_streaming(lambda: make(n, passes), c, x, y)
            assert run.distinct_count == exact_f0(u + v)
            assert run.state_bits == snapshot_bits(n, u, v, passes)
            assert run.state_bits == max(m.width for m in run.ledger.messages[:-1])
            assert run.communication_bits == run.ledger.total_bits
            assert len(run.ledger.messages) == 2 * passes
            assert run.ledger.messages[-1].width == 1


# ------------------------------------------------------- batch decisions


def _spread_pairs(n: int, count: int, seed: int):
    # distances over all of 0..n, so both outputs occur and an undersized
    # bitmap errs on some pairs
    rng = random.Random(seed)
    return [random_pair_at_distance(n, rng.randint(0, n), rng.getrandbits(63)) for _ in range(count)]


@pytest.mark.parametrize("passes", [1, 2, 3])
@pytest.mark.parametrize("plugin", sorted(_PLUGINS))
def test_pair_outputs_equal_the_reduction_runs(plugin, passes):
    make, _ = _PLUGINS[plugin]
    c = 1.5
    # 250 pairs of n = 40 take three slices of 2**13 // 80 pairs
    for n, count in ((9, 40), (40, 250)):
        pairs = _spread_pairs(n, count, seed=n + passes)
        factory = lambda: make(n, passes)
        expected = [ghd_via_streaming(factory, c, x, y, check_determinism=False)[0] for x, y in pairs]
        xs, ys = (_limb_matrix([s.value for s in strings], n) for strings in zip(*pairs))
        outputs = streaming_protocol(factory, c).pair_outputs(n, xs, ys)
        assert outputs.dtype == np.int64 and outputs.tolist() == expected
        truth = [int(hamming_distance(x, y) >= stream_gap(n, c)) for x, y in pairs]
        if plugin == "truncated" and n == 40:
            assert sum(expected) == 0 < sum(truth)  # 17 bits never reach n + gap
        else:
            assert 0 < sum(expected) < count


@pytest.mark.parametrize("make", BITMAPS)
def test_bitmap_final_estimates_equal_the_default(make):
    rng = random.Random(6)
    rows = np.array([[rng.randint(1, 40) for _ in range(30)] for _ in range(25)], dtype=np.int64)
    # from a fresh machine, and from one that already holds bits
    for held in ([], [3, 17, 18, 40]):
        machine, reference = make(), make()
        for m in (machine, reference):
            m.passes = 2
            m.consume_all(np.array(held, dtype=np.int64))
        expected = StreamingAlgorithm.final_estimates(reference, rows)
        assert machine.final_estimates(rows).tolist() == expected.tolist()
    assert make().final_estimates(rows[:0]).tolist() == []
    with pytest.raises(ValueError, match=r"^token 41 outside universe \[1, 40\]$"):
        make().final_estimates(np.array([[5, 6], [40, 41]], dtype=np.int64))


def test_default_final_estimates_restore_the_state_for_every_row():
    machine = _ConsumeOnlyBitmap(10, passes=2)
    machine.consume(7)
    rows = np.array([[1, 2, 2], [7, 7, 7], [3, 4, 5]], dtype=np.int64)
    assert machine.final_estimates(rows).tolist() == [3, 1, 4]


def test_pair_outputs_refuse_inputs_of_another_length():
    proto = streaming_protocol(lambda: ExactBitmapF0(8), 1.5)
    x, y = random_pair_at_distance(4, 2, seed=5)
    xs, ys = _limb_matrix([x.value, x.value], 4), _limb_matrix([y.value, y.value], 4)
    assert proto.pair_outputs(4, xs[:0], ys[:0]).tolist() == []
    assert proto.pair_outputs(4, xs, ys).tolist() == [proto.run(x, y, 0).output] * 2
    with pytest.raises(ValueError, match="^word does not fit in 4 bits$"):
        proto.pair_outputs(4, xs, _limb_matrix([y.value, 0b10000], 5))
    with pytest.raises(ValueError, match="^2 x rows but 1 y rows$"):
        proto.pair_outputs(4, xs, ys[:1])
    with pytest.raises(ValueError, match=r"^need 1 uint64 limbs a row for n = 4, got uint64 of shape \(2, 2\)$"):
        proto.pair_outputs(4, xs, np.zeros((2, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match=r"^need 1 uint64 limbs a row for n = 4, got int64 of shape \(2, 1\)$"):
        proto.pair_outputs(4, xs, ys.astype(np.int64))
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        proto.pair_outputs(0, xs[:, :0], ys[:, :0])


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


def test_a_restore_that_drops_the_state_is_detected():
    class Forgetful(ExactBitmapF0):
        def restore(self, snapshot: StateSnapshot) -> None:
            super().restore(snapshot)
            self._bitmap = 0

    # Bob's handoff estimate counts only his own 8 tokens; one machine counts 12
    x, y = random_pair_at_distance(8, 4, seed=3)
    with pytest.raises(ContractViolationError, match="^snapshot round-trip broke the run"):
        ghd_via_streaming(lambda: Forgetful(16), 1.5, x, y)


def test_a_snapshot_with_bits_beyond_its_length_is_refused():
    class Overfull(ExactBitmapF0):
        def snapshot(self) -> StateSnapshot:
            inner = super().snapshot()
            return StateSnapshot(b"\x01" + inner.data, inner.bit_length)

    x, y = random_pair_at_distance(8, 4, seed=3)
    with pytest.raises(
        ContractViolationError, match="^snapshot has set bits beyond its declared bit length$"
    ):
        ghd_via_streaming(lambda: Overfull(16), 1.5, x, y)


def test_communication_beyond_the_declared_passes_is_refused():
    # the declared p is read from the first machine (1 pass); the runs' machines
    # make 3, so 5 snapshots of 16 bits and the decision bit exceed 2 * 1 * 16
    machines = []

    def factory():
        machines.append(ExactBitmapF0(16, passes=1 if not machines else 3))
        return machines[-1]

    x, y = random_pair_at_distance(8, 4, seed=3)
    with pytest.raises(ContractViolationError, match=re.escape("communication 81 exceeds 2*p*S = 32")):
        ghd_via_streaming(factory, 1.5, x, y, check_determinism=False)


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


@pytest.mark.parametrize("n", [0, -4])
def test_space_lower_bound_reports_n_below_one(n):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        space_lower_bound(n, 1.5, 1)


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
        (b"5\n\xff\n", 2),  # not UTF-8
    ],
)
def test_fixture_errors_name_file_and_line(tmp_path, text, line):
    path = tmp_path / "stream.tokens"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=rf"stream\.tokens, line {line}:"):
        read_stream_fixture(path)


_FIXTURE_LINES = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="0123456789+-_ \t", max_size=6),
    st.integers(-5, 10**30).map(str),
    st.sampled_from(["", " 7 ", "07", "+3", "1_0", "\u0663", "1e3", "0x1f"]),
)


@given(lines=st.lists(_FIXTURE_LINES, max_size=8))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fixture_parses_or_names_the_line(tmp_path, lines):
    path = tmp_path / "stream.tokens"
    path.write_text("\n".join(lines))
    try:
        tokens = read_stream_fixture(path)
    except ValueError as exc:
        match = re.match(rf"{re.escape(str(path))}, line (\d+): ", str(exc))
        assert match, str(exc)
        rows = path.read_text().splitlines()
        lineno = int(match.group(1))
        assert 1 <= lineno <= len(rows)
        # the named line is the first at fault: every line before it parses
        path.write_text("\n".join(rows[: lineno - 1]))
        read_stream_fixture(path)
    else:
        assert all(type(token) is int and token >= 1 for token in tokens)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExactBitmapF0(0), "universe_size must be >= 1"),
        (lambda: TruncatedBitmapF0(8, 9), "capacity must be in [1, universe_size]"),
        (lambda: encode_streams(BitString(4, 0), BitString(4, 0), 5), "input length 4 does not match n = 5"),
        (
            lambda: ghd_via_streaming(lambda: ExactBitmapF0(8), 1.5, BitString(4, 0), BitString(3, 0)),
            "inputs of unequal length: 4 and 3 bits",
        ),
    ],
    ids=["universe", "capacity", "encode-length", "unequal-inputs"],
)
def test_invalid_streaming_arguments_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
