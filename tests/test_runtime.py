import dataclasses
import hashlib
from collections import Counter
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghd import runtime
from ghd.bits import BitString, GhdInstance, _limb_value, random_pair_at_distance
from ghd.runtime import (
    RECV,
    BudgetExceededError,
    ContractViolationError,
    Protocol,
    Send,
    SharedRandomness,
    StreamReader,
    _error_trials,
    derive_seed,
    estimate_error_rate,
    mix64,
    run_protocol,
)
from ghd.sampling import derive_sampling_params, sampling_protocol
from ghd.sketch import derive_sketch_params, sketch_protocol


# ------------------------------------------------------- shared randomness


def test_mix64_is_deterministic_and_spread():
    values = {mix64(i) for i in range(1000)}
    assert len(values) == 1000
    assert all(0 <= v < 2**64 for v in values)


def test_derive_seed_is_stable_and_path_sensitive():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)


def test_readers_observe_identical_positions():
    shared = SharedRandomness(987654321)
    a, b = shared.reader(), shared.reader()
    assert [a.next_raw() for _ in range(50)] == [b.next_raw() for _ in range(50)]
    # the cursor walks the counter-indexed positions in order
    r = shared.reader()
    assert [r.next_raw() for _ in range(5)] == [shared.value_at(i) for i in range(5)]


def test_index_below_covers_range_uniformly():
    r = SharedRandomness(7).reader()
    n = 10
    counts = [0] * n
    for _ in range(20000):
        counts[r.index_below(n)] += 1
    assert min(counts) > 0.8 * 2000
    assert max(counts) < 1.2 * 2000


_SEEDS = np.array([derive_seed(43, trial) for trial in range(200)], dtype=np.uint64)


@pytest.mark.parametrize("bound", [1, 2, 3, 512, 2**31, 2**32 - 1, 2**40])
def test_indices_below_match_repeated_index_below(bound):
    batch = runtime._indices_below_values(_SEEDS, bound, 7)
    assert batch.shape == (200, 7) and batch.dtype == np.int64
    for seed, row in zip(_SEEDS, batch):
        single, array = StreamReader(int(seed), 3), StreamReader(int(seed), 3)
        expected = [single.index_below(bound) for _ in range(7)]
        assert array.indices_below(bound, 7).tolist() == expected
        assert array.position == single.position == 10
        # the seed-array form is the draw of a fresh reader
        fresh = StreamReader(int(seed))
        assert row.tolist() == [fresh.index_below(bound) for _ in range(7)]


def test_indices_below_rejects_a_bound_below_one_before_drawing():
    reader = StreamReader(5, 4)
    for draw in (
        lambda: reader.index_below(0),
        lambda: reader.indices_below(0, 3),
        lambda: runtime._indices_below_values(_SEEDS, -1, 3),
    ):
        with pytest.raises(ValueError, match="^bound must be >= 1$"):
            draw()
    assert reader.position == 4
    assert reader.indices_below(9, 0).tolist() == [] and reader.position == 4


def test_vectorized_and_scalar_stream_paths_agree():
    shared = SharedRandomness(23)
    block, scalar = shared.reader(), shared.reader()
    for bound in (7, 2**40, 2**64):  # 32-bit halves, Python ints; 2**64 keeps each raw value
        draws = block.indices_below(bound, 32)
        assert draws.tolist() == [scalar.index_below(bound) for _ in range(32)]
        assert block.position == scalar.position


def test_reader_builds_its_seed_array_on_the_first_block_draw():
    reader = StreamReader(-1)
    reader.next_raw()
    assert "_seeds" not in vars(reader)
    block = reader.indices_below(2**64, 4)
    assert reader._seeds.tolist() == [2**64 - 1]
    scalar = StreamReader(-1, 1)
    assert [int(v) for v in block] == [scalar.next_raw() for _ in range(4)]


# sha256 of the kernels' float64 bytes, taken before the Gaussians were
# formed in place and short sums became column adds: the shared stream of
# every sketch run is these values, bit for bit.
_KERNEL_SEEDS = np.array([0, 1, 2**63, derive_seed(7, 0), 2**64 - 1], dtype=np.uint64)
GAUSSIAN_DIGESTS = {
    (0, 1): "1b6c0e7650604f61eb1ef18e52e024174fdd663dac9ccddcf306093720c99949",
    (0, 7): "890d84bae8a2ffc7efb6e0edc77a658c2c502813703f9a04e917b7f54be98a44",
    (0, 814): "c36bde8e28bef71cd4977a2641396b2dc759812a8c8d6100aa677f5a70ea1560",
    (3, 1): "193cd7bd6bf37b4f4e6c623d4ebd89362cf1b9b97e7ef765d34a9b5525f15a25",
    (3, 7): "d90f4dae264914fc315569aebe59e96b9ff2d3e3248e11aa2f5d2cdd2b9b5c58",
    (3, 814): "f98bf0b355af63f5cbff0a70495cb6e29cf2cb2bc43ed1534155117554506590",
}
UNIT_VECTOR_DIGESTS = {
    (407, 2): "38f5559c6175b2dcfc01fd40490130d06fa498a32a89be51f13780c3684913d3",
    (466, 2): "820eda371d7ba9c2e887453e2f8714d060f62b79ccc3479cd43701a6d7654de2",
    (1025, 2): "9fc606f3f44e16b62ff219c3dea89d3f039240740eef1a492bc5d36937a027a3",
    (40, 13): "9b60b1dc3c1829aaee99de4050d10465e179385378443a82e3a30a0cd7a3b5c2",
}


@pytest.mark.parametrize("start, count", list(GAUSSIAN_DIGESTS))
def test_gaussian_kernel_is_pinned(start, count):
    values = runtime._gaussian_values(_KERNEL_SEEDS, start, count)
    assert values.shape == (5, count) and values.dtype == np.float64
    assert hashlib.sha256(values.tobytes()).hexdigest() == GAUSSIAN_DIGESTS[start, count]


@pytest.mark.parametrize("rows, dim", list(UNIT_VECTOR_DIGESTS))
def test_unit_vector_kernel_is_pinned(rows, dim):
    vectors = runtime._unit_vector_values(_KERNEL_SEEDS, rows, dim, rows)
    assert vectors.shape == (5, rows, dim)
    assert hashlib.sha256(vectors.tobytes()).hexdigest() == UNIT_VECTOR_DIGESTS[rows, dim]


def test_draw_kernels_leave_their_seeds_unchanged():
    # the array mix works in place, so a kernel must hand it a temporary
    seeds = _KERNEL_SEEDS.copy()
    runtime._raw_values(seeds, 0, 9)
    runtime._raw_values(seeds, 2, 9)
    runtime._gaussian_values(seeds, 3, 7)
    runtime._unit_vector_values(seeds, 4, 2, 4)
    assert seeds.tobytes() == _KERNEL_SEEDS.tobytes()


@pytest.mark.parametrize("lead", [(), (3,), (10, 407)])
def test_sum_last_equals_numpy_sum_bitwise(lead):
    rng = np.random.default_rng(len(lead))
    for length in range(1, 13):
        for _ in range(20):
            shape = lead + (length,)
            values = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, shape)
            # zeros of both signs, alone and beside values
            values[rng.random(shape) < 0.3] = 0.0
            values[rng.random(shape) < 0.3] = -0.0
            for a in (values, np.full(shape, -0.0), np.where(values < 0, -0.0, 0.0)):
                expected = np.asarray(a.sum(axis=-1))
                got = np.asarray(runtime._sum_last(a))
                assert got.shape == expected.shape
                assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), (lead, length)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("trials", [1, 2, 1000])
def test_trial_seeds_equal_derive_seed(seed, trials):
    seeds = runtime._trial_seeds(seed, trials)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(seed, trial) for trial in range(trials)]


def test_gaussians_consume_two_positions_each():
    shared = SharedRandomness(11)
    r1 = shared.reader()
    r1.gaussians(10)
    assert r1.position == 20
    # the same values appear when read in two chunks
    r2 = shared.reader()
    chunked = np.concatenate([r2.gaussians(4), r2.gaussians(6)])
    assert np.array_equal(shared.reader().gaussians(10), chunked)


def test_gaussian_moments():
    g = SharedRandomness(13).reader().gaussians(200_000)
    assert abs(g.mean()) < 5 / np.sqrt(len(g))
    assert abs(g.var() - 1.0) < 5 * np.sqrt(2.0 / len(g))


def test_unit_vectors_are_normalized_and_shared():
    shared = SharedRandomness(17)
    v = shared.reader().unit_vectors(500, 7)
    norms = np.sqrt((v * v).sum(axis=1))
    assert np.abs(norms - 1.0).max() < 1e-12
    assert np.array_equal(v, shared.reader().unit_vectors(500, 7))


def test_unit_vector_dim1_is_sign():
    r = SharedRandomness(19).reader()
    for _ in range(100):
        (v,) = r.unit_vectors(1, 1)[0]
        assert v in (1.0, -1.0)


@pytest.mark.parametrize("skip, rows, dim", [(0, 407, 2), (3, 1, 1), (5, 40, 13)])
def test_memoized_draws_match_memoless_reader(skip, rows, dim):
    shared = SharedRandomness(29)
    first, second, plain = shared.reader(), shared.reader(), StreamReader(29)
    for reader in (first, second, plain):
        reader.gaussians(skip)
    drawn = first.unit_vectors(rows, dim)
    reused = second.unit_vectors(rows, dim)
    expected = plain.unit_vectors(rows, dim)
    assert reused is drawn and not drawn.flags.writeable
    assert drawn.tobytes() == expected.tobytes()
    assert first.position == second.position == plain.position == 2 * (skip + rows * dim)
    # the next draw starts after the memoized one on every reader
    assert second.next_raw() == plain.next_raw() == first.next_raw()


def test_memoized_draw_keeps_the_redraw_positions(monkeypatch):
    # Zero the first row of the first Gaussian block so the redraw loop runs.
    original = StreamReader.gaussians
    zeroed = []

    def gaussians(self, count):
        values = original(self, count)
        if count == 12 and len(zeroed) < 2:
            zeroed.append(self)
            values[:3] = 0.0
        return values

    monkeypatch.setattr(StreamReader, "gaussians", gaussians)
    shared = SharedRandomness(31)
    first, second, plain = shared.reader(), shared.reader(), StreamReader(31)
    drawn = first.unit_vectors(4, 3)
    reused = second.unit_vectors(4, 3)
    expected = plain.unit_vectors(4, 3)
    assert zeroed == [first, plain]
    assert reused is drawn and drawn.tobytes() == expected.tobytes()
    assert first.position == second.position == plain.position == 2 * (12 + 3)


def test_shared_randomness_equality_ignores_the_memo():
    drawn = SharedRandomness(37)
    drawn.reader().unit_vectors(3, 2)
    assert drawn == SharedRandomness(37) and hash(drawn) == hash(SharedRandomness(37))
    assert drawn != SharedRandomness(38)
    assert repr(drawn) == "SharedRandomness(seed=37)"


# ------------------------------------------------------- exact-sweep draws


def _class_words(values, n):
    """The close words, far xs and far ys of a kernel output, as three int lists."""
    return [[_limb_value(row) for row in values[:, column]] for column in range(3)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(1, 40),
    st.integers(0, 2**64 - 1),
)
@example((1, 1), 1, 0)
@example((64, 1), 40, 2**64 - 1)
@example((65, 65), 7, 5)
@example((128, 64), 40, 3)
def test_exact_class_values_property(case, trials, seed):
    n, gap = case
    limbs = (n + 63) // 64
    seeds = runtime._trial_seeds(seed, trials)
    values = runtime._exact_class_values(seeds, n, gap)
    assert values.dtype == np.uint64 and values.shape == (trials, 3, limbs)
    close, xs, ys = _class_words(values, n)
    assert all(word < 1 << n for word in close + xs + ys)
    # positions 1 .. 2L hold the close word's limbs and then far x's, and
    # position 2L + 1 gives the far distance
    raw = runtime._raw_values(seeds, 0, 2 * limbs + 1)
    assert close == [_limb_value(row[:limbs]) % (1 << n) for row in raw]
    assert xs == [_limb_value(row[limbs : 2 * limbs]) % (1 << n) for row in raw]
    distances = gap + runtime._indices_below(raw[:, 2 * limbs], n - gap + 1)
    assert all(gap <= d <= n for d in distances.tolist())
    assert [(x ^ y).bit_count() for x, y in zip(xs, ys)] == distances.tolist()
    for k in range(trials):
        assert values[k].tobytes() == runtime._exact_class_values(seeds[k : k + 1], n, gap)[0].tobytes()
    with pytest.MonkeyPatch.context() as patch:
        for cap in (1, 1 << 20):
            patch.setattr(runtime, "_BATCH_COORDINATES", cap)
            assert runtime._exact_class_values(seeds, n, gap).tobytes() == values.tobytes()


def _chi_square_sf(counts):
    """The chance that uniform counts show a chi-square statistic at least this large."""
    expected = sum(counts) / len(counts)
    statistic = sum((count - expected) ** 2 for count in counts) / expected
    return float(mpmath.gammainc((len(counts) - 1) / 2, statistic / 2, mpmath.inf, regularized=True))


def test_exact_class_distances_and_flip_sets_are_uniform():
    # a fixed seed, so the bounds below hold or fail the same way every run
    n, gap, trials = 5, 2, 20_000
    _, xs, ys = _class_words(runtime._exact_class_values(runtime._trial_seeds(2026, trials), n, gap), n)
    flips = [x ^ y for x, y in zip(xs, ys)]
    by_distance = {d: Counter() for d in range(gap, n + 1)}
    for mask in flips:
        by_distance[mask.bit_count()][mask] += 1
    assert _chi_square_sf([sum(sets.values()) for sets in by_distance.values()]) > 1e-6
    for d, sets in by_distance.items():
        masks = [sum(1 << p for p in chosen) for chosen in combinations(range(n), d)]
        assert set(sets) == set(masks)
        if len(masks) > 1:
            assert _chi_square_sf([sets[mask] for mask in masks]) > 1e-6


# ------------------------------------------------------------- the runtime


def _send_everything_protocol(n):
    def alice(x, reader):
        yield Send(x.value, n)
        answer, _ = yield RECV
        return answer

    def bob(y, reader):
        payload, width = yield RECV
        decision = 0 if payload == y.value else 1
        yield Send(decision, 1)
        return decision

    return Protocol("send-everything", alice, bob)


def test_send_everything_baseline():
    proto = _send_everything_protocol(4)
    x = BitString.from_text("1011")
    outcome = proto.run(x, x, shared=0)
    assert outcome.output == 0
    assert outcome.ledger.bits_alice_to_bob == 4
    assert outcome.ledger.bits_bob_to_alice == 1
    assert outcome.ledger.total_bits == 5
    assert outcome.ledger.rounds == 2


def test_constant_protocol_costs_one_bit():
    def alice(x, reader):
        answer, _ = yield RECV
        return answer

    def bob(y, reader):
        yield Send(1, 1)
        return 1

    outcome = run_protocol(alice, bob, BitString.from_text("0"), BitString.from_text("0"), 0)
    assert outcome.output == 1
    assert outcome.ledger.total_bits == 1
    assert outcome.ledger.rounds == 1


def test_transcript_replay_identical():
    proto = _send_everything_protocol(16)
    x, y = random_pair_at_distance(16, 5, seed=3)
    first = proto.run(x, y, shared=99)
    second = proto.run(x, y, shared=99)
    assert first.ledger.messages == second.ledger.messages
    assert first.output == second.output


def test_transcript_dump_format():
    proto = _send_everything_protocol(4)
    outcome = proto.run(BitString.from_text("1011"), BitString.from_text("1011"), 0)
    lines = outcome.ledger.dump().splitlines()
    assert lines[0] == "a->b 4 b"
    assert lines[1] == "b->a 1 0"


def test_round_counting_with_batched_messages():
    def alice(x, reader):
        yield Send(1, 1)
        yield Send(0, 1)
        got, _ = yield RECV
        return got

    def bob(y, reader):
        yield RECV
        yield RECV
        yield Send(1, 1)
        return 1

    outcome = run_protocol(alice, bob, BitString.from_text("0"), BitString.from_text("0"), 0)
    assert outcome.ledger.rounds == 2
    assert outcome.ledger.total_bits == 3


def test_disagreeing_outputs_rejected():
    def alice(x, reader):
        yield Send(1, 1)
        return 0

    def bob(y, reader):
        yield RECV
        return 1

    with pytest.raises(
        ContractViolationError, match="^parties disagree at termination: alice=0 bob=1$"
    ):
        run_protocol(alice, bob, BitString.from_text("0"), BitString.from_text("0"), 0)


def test_deadlock_detected():
    def both(_, reader):
        yield RECV
        return 0

    with pytest.raises(
        ContractViolationError, match="^deadlock: both parties waiting to receive$"
    ):
        run_protocol(both, both, BitString.from_text("0"), BitString.from_text("0"), 0)


def test_waiting_on_terminated_peer_detected():
    def alice(x, reader):
        yield Send(1, 1)
        yield RECV
        return 0

    def bob(y, reader):
        yield RECV
        return 1

    with pytest.raises(
        ContractViolationError,
        match="^party 'a' is waiting for a message but its peer terminated$",
    ):
        run_protocol(alice, bob, BitString.from_text("0"), BitString.from_text("0"), 0)


def test_budget_exceeded():
    def alice(x, reader):
        while True:
            yield Send(1, 1)
            yield RECV

    def bob(y, reader):
        while True:
            yield RECV
            yield Send(1, 1)

    # the default budget at n = 2 is 64 * 2**2 = 256 bits
    with pytest.raises(BudgetExceededError, match=r"^bit budget exceeded: 257 > 256$"):
        run_protocol(alice, bob, BitString.from_text("01"), BitString.from_text("01"), 0)


def test_declared_cost_over_budget_raises_before_either_party_starts():
    def never_started(_, reader):
        raise AssertionError("a party was started")
        yield RECV

    x = BitString.from_text("01")
    proto = Protocol("declared", never_started, never_started, cost_bits=257)
    with pytest.raises(
        BudgetExceededError, match="^declared cost 257 bits exceeds the bit budget 256 bits$"
    ):
        proto.run(x, x, 0)
    # the budget is fixed at 64 n**2: 64 bits at n = 1
    one = BitString.from_text("1")
    with pytest.raises(BudgetExceededError, match="^declared cost 65 bits exceeds the bit budget 64 bits$"):
        run_protocol(never_started, never_started, one, one, 0, cost_bits=65)


def test_declared_cost_must_equal_the_ledger_total():
    proto = _send_everything_protocol(4)
    x = BitString.from_text("1011")
    assert proto.cost_bits is None
    exact = Protocol(proto.name, proto.alice, proto.bob, cost_bits=5)
    assert exact.run(x, x, 0).ledger.total_bits == 5
    pairs = [(x, x), (x, BitString.from_text("0100"))]
    assert max(exact.run(a, b, 0).ledger.total_bits for a, b in pairs) == 5
    for declared in (4, 6):
        wrong = Protocol(proto.name, proto.alice, proto.bob, cost_bits=declared)
        with pytest.raises(
            ContractViolationError,
            match=f"^ledger total 5 bits differs from the declared cost {declared} bits$",
        ):
            wrong.run(x, x, 0)
        with pytest.raises(ContractViolationError):
            max(wrong.run(a, b, 0).ledger.total_bits for a, b in pairs)


def test_protocols_declare_their_ledger_totals():
    from ghd.covering import det_protocol, det_protocol_params
    from ghd.sampling import derive_sampling_params, sampling_protocol
    from ghd.sketch import derive_sketch_params, sketch_cost, sketch_protocol
    from ghd.streaming import ExactBitmapF0, streaming_protocol

    sampling = derive_sampling_params(64, 2, 40, 1.0)
    sketch = derive_sketch_params(512, 4, 256, 2)
    trivial = derive_sketch_params(200, 0, 3, 1)
    det = det_protocol_params(10, 4)
    assert trivial.trivial_mode
    declared = [
        (sampling_protocol(sampling), 64, sampling.trial_count + 1),
        (sketch_protocol(sketch), 512, sketch.block_count * sketch.word_width + 1),
        (sketch_protocol(trivial), 200, 201),
        (det_protocol(det), 10, det.code.index_width + 1),
    ]
    for proto, n, cost in declared:
        assert proto.cost_bits == cost
        for d in (0, n // 2):
            x, y = random_pair_at_distance(n, d, seed=d)
            assert proto.run(x, y, 3).ledger.total_bits == cost
    assert sketch_cost(sketch) == sketch_protocol(sketch).cost_bits
    assert streaming_protocol(lambda: ExactBitmapF0(20), 1.5).cost_bits is None


def test_malformed_messages_rejected():
    def alice_bad_width(x, reader):
        yield Send(0, 0)
        return 0

    def alice_bad_payload(x, reader):
        yield Send(4, 2)
        return 0

    def bob(y, reader):
        yield RECV
        return 0

    x = BitString.from_text("0")
    with pytest.raises(ContractViolationError, match="^message width must be >= 1$"):
        run_protocol(alice_bad_width, bob, x, x, 0)
    with pytest.raises(ContractViolationError, match="^payload does not fit in 2 bits$"):
        run_protocol(alice_bad_payload, bob, x, x, 0)


def test_nonbit_output_rejected():
    def alice(x, reader):
        yield Send(1, 1)
        return 2

    def bob(y, reader):
        yield RECV
        return 2

    with pytest.raises(ContractViolationError, match="^party 'a' returned 2, expected a bit$"):
        run_protocol(alice, bob, BitString.from_text("0"), BitString.from_text("0"), 0)


def test_unknown_command_rejected():
    def alice(x, reader):
        yield "send"
        return 0

    def bob(y, reader):
        yield RECV
        return 0

    with pytest.raises(ContractViolationError, match="^unknown strategy command: 'send'$"):
        run_protocol(alice, bob, BitString.from_text("0"), BitString.from_text("0"), 0)


def test_input_isolation_first_message_ignores_peer_input():
    # Alice's opening message may depend only on (x, seed): fuzz y.
    from ghd.sampling import derive_sampling_params, sampling_protocol

    params = derive_sampling_params(32, 4, 20, 1.0)
    proto = sampling_protocol(params)
    x, _ = random_pair_at_distance(32, 0, seed=8)
    openings = set()
    for seed_y in range(20):
        y = BitString.random(32, __import__("random").Random(seed_y))
        outcome = proto.run(x, y, shared=1234)
        first = outcome.ledger.messages[0]
        openings.add((first.direction, first.payload, first.width))
    assert len(openings) == 1


# ------------------------------------------------------------ measurement


def test_estimate_error_rate_constant_protocol():
    def alice(x, reader):
        answer, _ = yield RECV
        return answer

    def bob(y, reader):
        yield Send(0, 1)
        return 0

    proto = Protocol("constant-zero", alice, bob)
    close = GhdInstance.at_distance(16, 2, 8, 1, seed=0)
    rate, halfwidth = estimate_error_rate(proto, close, trials=50, seed=5)
    assert rate == 0.0 and halfwidth == 0.0
    far = GhdInstance.at_distance(16, 2, 8, 10, seed=0)
    rate, _ = estimate_error_rate(proto, far, trials=50, seed=5)
    assert rate == 1.0


def test_estimate_error_rate_rejects_promise_violation():
    def alice(x, reader):
        answer, _ = yield RECV
        return answer

    def bob(y, reader):
        yield Send(0, 1)
        return 0

    proto = Protocol("constant-zero", alice, bob)
    violated = GhdInstance.at_distance(16, 2, 8, 5, seed=0)
    with pytest.raises(ValueError):
        estimate_error_rate(proto, violated, trials=5, seed=0)


# ------------------------------------------------------- batched Monte Carlo


def _batch_cases():
    # (close, far, distance) of each instance; the sketch's decisions split at
    # distance 9, sampling's at 130, so trials there err on either class
    sketch = sketch_protocol(derive_sketch_params(512, 4, 256, 2))
    sampling = sampling_protocol(derive_sampling_params(512, 4, 256, 2))
    for proto, bounds in (
        (sketch, [(4, 256, 4), (9, 256, 9), (4, 9, 9), (4, 256, 256)]),
        (sampling, [(4, 256, 4), (130, 256, 130), (4, 130, 130), (4, 256, 256)]),
    ):
        for lo, hi, distance in bounds:
            yield proto, GhdInstance.at_distance(512, lo, hi, distance, seed=distance)


@pytest.mark.parametrize("case", range(8))
def test_batched_error_trials_equal_the_run_loop(case):
    proto, instance = list(_batch_cases())[case]
    unbatched = dataclasses.replace(proto, batch_outputs=None)
    for trials, seed in ((1, 3), (120, 4)):
        estimate, runs = _error_trials(proto, instance, trials, seed)
        every_estimate, every_run = _error_trials(unbatched, instance, trials, seed)
        assert estimate == every_estimate and len(every_run) == trials
        assert {outcome.ledger.total_bits for outcome in runs + every_run} == {proto.cost_bits}


def test_batch_steps_stay_within_the_working_set(monkeypatch):
    params = derive_sketch_params(512, 4, 256, 2)  # 407 blocks of 2, 26 in the head
    proto = sketch_protocol(params)
    seeds = np.array([derive_seed(8, trial) for trial in range(40)], dtype=np.uint64)
    steps = []
    original = runtime._unit_vector_values

    def unit_vector_values(chunk, rows, dim, total):
        assert (dim, total) == (params.block_length, params.block_count)
        steps.append((len(chunk), rows))
        return original(chunk, rows, dim, total)

    monkeypatch.setattr("ghd.sketch._unit_vector_values", unit_vector_values)
    for d, open_trials in ((9, 40), (60, 11)):  # the head decides 29 trials at distance 60
        x, y = random_pair_at_distance(512, d, seed=9)
        expected = [proto.run(x, y, int(seed)).output for seed in seeds]
        for cap, head_step, full_step in ((1 << 13, 40, 10), (100, 1, 1)):  # 2**13 // 814; 100 is below a trial
            monkeypatch.setattr(runtime, "_BATCH_COORDINATES", cap)
            steps.clear()
            assert proto.batch_outputs(x, y, seeds).tolist() == expected
            full = [min(full_step, open_trials - i) for i in range(0, open_trials, full_step)]
            assert steps == [(head_step, 26)] * (40 // head_step) + [(size, 407) for size in full]
            assert all(size * rows * 2 <= cap or size == 1 for size, rows in steps)


def _doctored(proto, trial, flip=True):
    def batch_outputs(x, y, seeds):
        outputs = proto.batch_outputs(x, y, seeds)
        outputs[trial] ^= flip
        return outputs

    return dataclasses.replace(proto, batch_outputs=batch_outputs)


@pytest.mark.parametrize("trial", [0, 5])
def test_batch_output_that_differs_from_its_audited_run_raises(trial):
    proto = sampling_protocol(derive_sampling_params(512, 4, 256, 2))
    close = GhdInstance.at_distance(512, 4, 256, 4, seed=4)  # no trial errs
    # a doctored output at trial 5 is the first error, so it is audited
    seed = derive_seed(11, trial)
    with pytest.raises(
        ContractViolationError,
        match=rf"^batch output 1 differs from the audited run's 0 at trial {trial} \(seed {seed}\)$",
    ):
        _error_trials(_doctored(proto, trial), close, 20, 11)


def test_batch_audits_trial_zero_and_the_first_error():
    proto = sketch_protocol(derive_sketch_params(512, 4, 256, 2))
    split = GhdInstance.at_distance(512, 9, 256, 9, seed=9)  # close class, decisions split
    seeds = np.array([derive_seed(18, trial) for trial in range(60)], dtype=np.uint64)
    outputs = proto.batch_outputs(split.x, split.y, seeds)
    assert np.flatnonzero(outputs)[:2].tolist() == [2, 3]  # trial 2 is the first error
    runs = []

    def alice(x, reader):
        runs.append(reader)
        return (yield from proto.alice(x, reader))

    estimate, audited = _error_trials(dataclasses.replace(proto, alice=alice), split, 60, 18)
    assert len(runs) == 2 and estimate.error_rate == outputs.sum() / 60
    assert [outcome.output for outcome in audited] == [0, 1]  # trials 0 and 2
    assert [outcome.ledger.total_bits for outcome in audited] == [proto.cost_bits] * 2
    # a false error before trial 2 becomes the first error, so it is run
    with pytest.raises(ContractViolationError, match="at trial 1 "):
        _error_trials(_doctored(proto, 1), split, 60, 18)
    # trials past the first error are scored from the batch alone
    later = int(np.flatnonzero(outputs == 0)[-1])
    estimate, _ = _error_trials(_doctored(proto, later), split, 60, 18)
    assert estimate.error_rate == (outputs.sum() + 1) / 60


def test_batch_of_the_wrong_shape_raises():
    proto = sampling_protocol(derive_sampling_params(512, 4, 256, 2))
    short = dataclasses.replace(proto, batch_outputs=lambda x, y, seeds: np.zeros(2, np.int64))
    close = GhdInstance.at_distance(512, 4, 256, 4, seed=4)
    with pytest.raises(ContractViolationError, match=r"^batch returned outputs of shape \(2,\) for 5 trials$"):
        _error_trials(short, close, 5, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StreamReader(0).unit_vectors(3, 0), "dim must be >= 1"),
        (
            lambda: estimate_error_rate(
                sampling_protocol(derive_sampling_params(512, 4, 256, 2)),
                GhdInstance.at_distance(512, 4, 256, 4, seed=4),
                trials=0,
                seed=0,
            ),
            "trials must be >= 1",
        ),
    ],
    ids=["unit-vector-dim", "trials"],
)
def test_out_of_range_arguments_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
