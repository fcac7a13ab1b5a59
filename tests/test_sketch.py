import dataclasses
import hashlib
import logging
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghd import runtime, sketch
from ghd.bits import BitString, GhdInstance, random_pair_at_distance
from ghd.covering import det_protocol, det_protocol_params
from ghd.experiments import parse_config, run_experiment
from ghd.runtime import (
    SharedRandomness,
    StreamReader,
    derive_seed,
    estimate_error_rate,
    run_protocol,
)
from ghd.sampling import derive_sampling_params, sampling_protocol
from ghd.sketch import (
    GuaranteeFloorError,
    SketchMessage,
    _decides_far,
    _project,
    _projections_and_statistic,
    _statistic,
    alice_sketch,
    bob_decide,
    derive_sketch_params,
    guarantee_floor,
    quantize_projection,
    sketch_cost,
    sketch_protocol,
    sketch_statistics,
)
from ghd.streaming import ExactBitmapF0, streaming_protocol

REFERENCE = dict(n=512, close_bound=4, far_bound=256)


def reference_params(s=2.0):
    return derive_sketch_params(512, 4, 256, s)


# ------------------------------------------------------------- derivation


def test_reference_parameter_derivation():
    params = reference_params()
    assert params.block_count == 407
    assert params.block_length == 2
    assert params.padded_length == 814
    assert params.word_width == 30
    assert not params.trivial_mode
    assert params.threshold == 4 + 5 / 512


def test_trivial_mode_when_blocks_exceed_n():
    params = derive_sketch_params(16, 0, 16, 16.0)
    assert params.block_count == 64
    assert params.trivial_mode
    assert sketch_cost(params) == 17


def test_guarantee_floor_example():
    floor = guarantee_floor(512, 4, 256)
    assert abs(floor - (4 + 10 / 512) ** 3 / 256**2) < 1e-15
    assert floor < 0.001
    derive_sketch_params(512, 4, 256, 0.001)  # admissible


@pytest.mark.parametrize(
    "n, close, far, s, admitted",
    [
        (15, 0, 4, 0.018518518518518514, False),  # just below the floor 1/54
        (3, 0, 2, 9.25925925925926, True),  # just above the floor 250/27
    ],
)
def test_exponent_is_compared_with_the_exact_floor(n, close, far, s, admitted):
    exact = Fraction(n * close + 10, n) ** 3 / far**2
    assert (Fraction(str(s)) >= exact) == admitted
    if admitted:
        derive_sketch_params(n, close, far, s)
    else:
        with pytest.raises(GuaranteeFloorError):
            derive_sketch_params(n, close, far, s)


def test_exponent_below_floor_rejected_and_overridable():
    with pytest.raises(GuaranteeFloorError):
        derive_sketch_params(512, 200, 256, 0.5)
    params = derive_sketch_params(512, 200, 256, 0.5, allow_void_guarantee=True)
    assert params.block_count == math.ceil(4 * 512 * (0.5 / 256) ** (1 / 3))


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        derive_sketch_params(100, 50, 50, 1)
    with pytest.raises(ValueError):
        derive_sketch_params(100, 0, 101, 1)
    with pytest.raises(ValueError):
        derive_sketch_params(100, 0, 100, -1)


def test_grid_beyond_float64_raises_clear_error():
    # floor(sqrt(13) * n**3) crosses 2**53 between n = 135687 and 135688
    params = derive_sketch_params(135_687, 0, 135_687, 1.0)
    assert params.block_length == 13
    assert math.isqrt(13 * 135_687**6) < 2**53 <= math.isqrt(13 * 135_688**6)
    with pytest.raises(ValueError, match=r"n = 135688, block_length = 13"):
        derive_sketch_params(135_688, 0, 135_688, 1.0)


def test_padding_satisfies_block_identity_over_sweep():
    # block_length * block_count stays within [n, 2n] whenever non-trivial
    for n in range(1, 10_001):
        far = max(1, n // 2)
        for s_fraction in (1 / 64, 1 / 512, 1 / 4096):
            s = far * s_fraction
            if s <= 0:
                continue
            try:
                params = derive_sketch_params(n, 0, far, s)
            except GuaranteeFloorError:
                continue
            if params.trivial_mode:
                continue
            assert n <= params.padded_length <= 2 * n
            assert params.padded_length == params.block_count * params.block_length


# ------------------------------------------------------------ unit sphere


def test_unit_vector_dim1_is_sign():
    reader = SharedRandomness(1).reader()
    values = {float(reader.unit_vectors(1, 1)[0, 0]) for _ in range(50)}
    assert values <= {1.0, -1.0}
    assert len(values) == 2


def test_unit_vector_norm():
    reader = SharedRandomness(2).reader()
    for dim in (2, 3, 8, 33):
        v = reader.unit_vectors(1, dim)[0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_projection_second_moment_is_one_over_dim():
    # mean of <e1, v>^2 over the sphere in R^4 is 1/4
    reader = SharedRandomness(3).reader()
    draws = reader.unit_vectors(100_000, 4)
    first = draws[:, 0] ** 2
    sigma = first.std(ddof=1) / math.sqrt(len(first))
    assert abs(first.mean() - 0.25) < 5 * sigma


# ----------------------------------------------------------- quantization


def test_quantize_examples():
    assert quantize_projection(0.0, 10) == 0
    assert quantize_projection(1.0, 10) == 1000
    assert quantize_projection(0.12345678, 10) == 123


def test_quantize_ties_to_even():
    assert quantize_projection(0.0015, 10) == 2  # 1.5 rounds to 2
    assert quantize_projection(0.0025, 10) == 2  # 2.5 rounds to 2


def test_quantize_contract_violation():
    with pytest.raises(ValueError):
        quantize_projection(math.sqrt(10) + 0.01, 10)


@given(st.floats(-1.0, 1.0), st.integers(2, 200))
@settings(max_examples=300)
def test_quantize_error_within_half_grid_step(fraction, n):
    value = fraction * math.sqrt(n)  # the reachable projection range
    m = quantize_projection(value, n)
    # half a grid step up to float rounding; one full step is the contract
    assert abs(m / n**3 - value) <= (0.5 + 1e-6) / n**3
    assert abs(m / n**3 - value) <= 1.0 / n**3


# ------------------------------------------------------- message encoding


def test_zero_input_projects_to_zero_indices():
    params = reference_params()
    reader = SharedRandomness(4).reader()
    message = alice_sketch(BitString.zeros(512), params, reader)
    assert all(v == 0 for v in message.grid_indices)
    assert message.bit_length == 407 * 30


def test_message_determinism():
    params = reference_params()
    x, _ = random_pair_at_distance(512, 0, seed=5)
    shared = SharedRandomness(6)
    first = alice_sketch(x, params, shared.reader())
    second = alice_sketch(x, params, shared.reader())
    assert first == second
    assert first.to_payload() == second.to_payload()


def test_payload_round_trip_reference():
    params = reference_params()
    x, _ = random_pair_at_distance(512, 0, seed=7)
    message = alice_sketch(x, params, SharedRandomness(8).reader())
    decoded = SketchMessage.from_payload(message.to_payload(), params)
    assert decoded == message


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_payload_round_trip_random_indices(seed):
    params = derive_sketch_params(64, 1, 32, 0.05)
    rng = np.random.default_rng(seed)
    limit = math.isqrt(params.block_length * 64**6)
    indices = tuple(int(v) for v in rng.integers(-limit, limit + 1, params.block_count))
    message = SketchMessage(indices, params.word_width)
    assert SketchMessage.from_payload(message.to_payload(), params) == message


def test_message_holds_read_only_int64_and_compares_by_value():
    as_tuple = SketchMessage((3, -2, 0, 2**52), 55)
    as_array = SketchMessage(np.array([3, -2, 0, 2**52]), 55)
    assert as_tuple == as_array and hash(as_tuple) == hash(as_array)
    assert as_tuple.grid_indices.dtype == np.int64 and not as_tuple.grid_indices.flags.writeable
    assert len({as_tuple, as_array, SketchMessage([3, -2, 0, 2**52], 55)}) == 1
    assert as_tuple != SketchMessage((3, -2, 0, 2**52), 56)
    assert as_tuple != SketchMessage((3, -2, 0), 55)
    with pytest.raises(ValueError, match="one-dimensional"):
        SketchMessage(np.zeros((2, 2)), 55)
    with pytest.raises(ValueError, match="do not fit 3-bit"):
        SketchMessage((4, 0), 3).to_payload()


# (64, 1, 32, 0.05) has block_length 3; the widest grid that float64 holds
# exactly, L = 0, U = n = 135,687, s = 1, has block_length 13 and 55-bit words.
PAYLOAD_PARAMS = [(64, 1, 32, 0.05), (512, 4, 256, 2.0), (135_687, 0, 135_687, 1.0)]


def test_widest_params_reach_55_bit_words():
    params = derive_sketch_params(*PAYLOAD_PARAMS[-1])
    assert (params.block_length, params.word_width) == (13, 55)
    assert params.max_grid_index < 2**53


def _random_message(params, seed):
    rng = np.random.default_rng(seed)
    limit = params.max_grid_index
    indices = rng.integers(-limit, limit + 1, params.block_count)
    indices[rng.integers(0, params.block_count, 3)] = (limit, -limit, 0)
    return SketchMessage(indices, params.word_width)


@pytest.mark.parametrize("point", PAYLOAD_PARAMS)
@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_payload_round_trip_property(point, seed):
    params = derive_sketch_params(*point)
    message = _random_message(params, seed)
    payload = message.to_payload()
    assert payload.bit_length() <= message.bit_length == params.block_count * params.word_width
    assert SketchMessage.from_payload(payload, params) == message


@pytest.mark.parametrize("point", PAYLOAD_PARAMS)
@given(seed=st.integers(0, 2**64 - 1), data=st.data())
@settings(max_examples=25, deadline=None)
def test_mutated_payload_raises_naming_the_block(point, seed, data):
    # A flipped sign bit on a zero word, or a magnitude above the reachable
    # limit, cannot come from an honest quantizer and must be refused.
    params = derive_sketch_params(*point)
    width, count, limit = params.word_width, params.block_count, params.max_grid_index
    block = data.draw(st.integers(0, count - 1))
    sign = 1 << (width - 1)
    if data.draw(st.booleans()):
        word, fault = sign, "negative zero"
    else:
        magnitude = data.draw(st.integers(limit + 1, sign - 1))
        word = magnitude | data.draw(st.sampled_from((0, sign)))
        fault = f"magnitude {magnitude} exceeds {limit}"
    shift = (count - 1 - block) * width
    payload = _random_message(params, seed).to_payload()
    payload = payload & ~(((1 << width) - 1) << shift) | word << shift
    with pytest.raises(ValueError, match=f"block {block}: {fault}"):
        SketchMessage.from_payload(payload, params)


def test_from_payload_names_first_bad_block():
    params = derive_sketch_params(64, 1, 32, 0.05)
    width, count = params.word_width, params.block_count
    assert params.max_grid_index == math.isqrt(params.block_length * 64**6) + 2 == 454_048
    all_ones = (1 << (width - 1)) - 1  # the largest magnitude the word holds
    payload = all_ones << (count - 3) * width | all_ones << (count - 5) * width
    with pytest.raises(ValueError, match="block 2: magnitude 1048575 exceeds 454048"):
        SketchMessage.from_payload(payload, params)
    negative_zero = 1 << (width - 1) << (count - 2) * width
    with pytest.raises(ValueError, match="block 1: negative zero"):
        SketchMessage.from_payload(negative_zero | payload, params)


def test_max_grid_index_admits_the_rounded_up_extreme():
    # At n = 16, block_length 2, sqrt(2) * 16**3 has fraction 0.62, so an
    # all-ones block projected on a near-diagonal vector quantizes to
    # floor(sqrt(2) * n**3) + 1: a limit at the floor would refuse an honest
    # message.
    params = derive_sketch_params(16, 0, 8, 1 / 16)
    assert params.block_length == 2
    floor = math.isqrt(2 * 16**6)
    diagonal = np.full((1, 2), 1.0)
    diagonal = diagonal / np.sqrt((diagonal * diagonal).sum(axis=1))[:, None]
    (index,) = quantize_projection((np.ones((1, 2)) * diagonal).sum(axis=1), 16)
    assert index == floor + 1 <= params.max_grid_index
    message = alice_sketch(BitString.ones(16), params, SharedRandomness(derive_seed(5, 2)).reader())
    assert message.grid_indices.max() == floor + 1
    assert SketchMessage.from_payload(message.to_payload(), params) == message


def test_quantization_matches_scalar_op():
    params = reference_params()
    x, _ = random_pair_at_distance(512, 0, seed=9)
    reader = SharedRandomness(10).reader()
    vectors = reader.unit_vectors(params.block_count, params.block_length)
    padded = np.zeros(params.padded_length)
    padded[:512] = x.bit_array()
    projections = (padded.reshape(params.block_count, params.block_length) * vectors).sum(axis=1)
    message = alice_sketch(x, params, SharedRandomness(10).reader())
    for value, index in zip(projections, message.grid_indices):
        assert quantize_projection(float(value), 512) == index


# ---------------------------------------------------------- the protocol


def test_equal_inputs_decide_zero():
    params = reference_params()
    x, _ = random_pair_at_distance(512, 0, seed=11)
    shared = SharedRandomness(12)
    message = alice_sketch(x, params, shared.reader())
    decision, stats = bob_decide(x, message, params, shared.reader())
    assert decision == 0
    assert stats.received_statistic <= 5 / 512
    assert stats.exact_statistic is None


def test_one_sidedness_on_close_instances():
    for n, lo, hi, s in [(512, 4, 256, 2.0), (128, 2, 64, 1.0), (256, 0, 128, 3.0)]:
        params = derive_sketch_params(n, lo, hi, s)
        proto = sketch_protocol(params)
        for trial in range(200):
            d = trial % (lo + 1)
            inst = GhdInstance.at_distance(n, lo, hi, d, seed=derive_seed(13, trial))
            outcome = proto.run(inst.x, inst.y, derive_seed(14, trial))
            assert outcome.output == 0


def test_close_error_rate_is_exactly_zero():
    params = derive_sketch_params(128, 2, 64, 1.0)
    proto = sketch_protocol(params)
    inst = GhdInstance.at_distance(128, 2, 64, 2, seed=26)
    rate, halfwidth = estimate_error_rate(proto, inst, trials=300, seed=27)
    assert rate == 0.0 and halfwidth == 0.0


def test_far_error_rate_within_bound():
    params = reference_params(s=1.0)
    proto = sketch_protocol(params)
    inst = GhdInstance.at_distance(512, 4, 256, 256, seed=15)
    trials = 1000
    rate, _ = estimate_error_rate(proto, inst, trials, seed=16)
    assert rate <= math.exp(-1) + 3 * math.sqrt(math.exp(-1) / trials)


def test_bound_chain_on_random_runs():
    params = reference_params()
    for trial in range(60):
        d = (trial * 17) % 513
        x, y = random_pair_at_distance(512, d, seed=derive_seed(17, trial))
        stats = sketch_statistics(x, y, params, derive_seed(18, trial))
        assert stats.exact_statistic <= d + 1e-6
        assert abs(stats.exact_statistic - stats.received_statistic) <= 5 / 512 + 1e-6


def test_exact_statistic_is_unbiased():
    params = reference_params()
    x, y = random_pair_at_distance(512, 64, seed=19)
    samples = np.array(
        [
            sketch_statistics(x, y, params, derive_seed(20, t)).exact_statistic
            for t in range(800)
        ]
    )
    expected = 64 / params.block_length
    sigma = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - expected) < 5 * sigma


def test_protocol_matches_instrumented_statistics():
    params = reference_params()
    proto = sketch_protocol(params)
    for trial in range(25):
        d = (trial * 31) % 513
        x, y = random_pair_at_distance(512, d, seed=derive_seed(21, trial))
        seed = derive_seed(22, trial)
        outcome = proto.run(x, y, seed)
        stats = sketch_statistics(x, y, params, seed)
        assert outcome.output == stats.decision
        assert outcome.ledger.total_bits == sketch_cost(params)


def test_cost_examples():
    assert sketch_cost(reference_params()) == 407 * 30 + 1 == 12211


def test_trivial_mode_protocol_is_exact():
    params = derive_sketch_params(16, 0, 16, 16.0)
    proto = sketch_protocol(params)
    x, _ = random_pair_at_distance(16, 0, seed=23)
    outcome = proto.run(x, x, 0)
    assert outcome.output == 0
    assert outcome.ledger.total_bits == 17
    far_x, far_y = random_pair_at_distance(16, 16, seed=24)
    assert proto.run(far_x, far_y, 0).output == 1


def test_instrumented_rejects_trivial_mode():
    params = derive_sketch_params(16, 0, 16, 16.0)
    x, _ = random_pair_at_distance(16, 0, seed=25)
    with pytest.raises(ValueError):
        sketch_statistics(x, x, params, 0)
    with pytest.raises(ValueError):
        alice_sketch(x, params, SharedRandomness(0).reader())


def run_recording_ends(proto, x, y, seed):
    """``proto``'s run on (x, y) and the stream position each party's reader ends at."""
    ends = {}

    def recording(side, strategy):
        def run(own, reader):
            output = yield from strategy(own, reader)
            ends[side] = reader.position
            return output

        return run

    outcome = run_protocol(recording("a", proto.alice), recording("b", proto.bob), x, y, seed)
    return outcome, ends


def test_parties_read_the_same_stream_positions():
    params = reference_params()
    proto = sketch_protocol(params)
    x, y = random_pair_at_distance(512, 200, seed=33)
    outcome, ends = run_recording_ends(proto, x, y, 34)
    plain = StreamReader(34)
    plain.unit_vectors(params.block_count, params.block_length)
    assert ends["a"] == ends["b"] == plain.position == 2 * params.padded_length
    assert outcome.ledger.dump() == proto.run(x, y, 34).ledger.dump()


def _position_cases():
    sampling = derive_sampling_params(64, 2, 40, 1.0)
    trivial = derive_sketch_params(200, 0, 3, 1)
    assert trivial.trivial_mode
    # (protocol, n, the position both readers end at): sampling reads one
    # position per sample, and the rest draw nothing
    return {
        "sampling": (sampling_protocol(sampling), 64, sampling.trial_count),
        "trivial sketch": (sketch_protocol(trivial), 200, 0),
        "det": (det_protocol(det_protocol_params(10, 4)), 10, 0),
        "stream": (streaming_protocol(lambda: ExactBitmapF0(40, passes=2), 1.5), 20, 0),
    }


@pytest.mark.parametrize("name", ["sampling", "trivial sketch", "det", "stream"])
def test_every_protocol_s_parties_read_the_same_stream_positions(name):
    proto, n, end = _position_cases()[name]
    for d in (0, n // 2, n):
        x, y = random_pair_at_distance(n, d, seed=d)
        outcome, ends = run_recording_ends(proto, x, y, 35)
        assert ends == {"a": end, "b": end}
        assert outcome.ledger.dump() == proto.run(x, y, 35).ledger.dump()


# sha256 of the outputs, rounds and ledger dumps of 21 runs, computed before
# the message path moved to int64 arrays and the draws were memoized
LEDGER_POINTS = [(512, 4, 256, 2.0), (512, 4, 256, 3.0), (2048, 8, 1024, 2.0)]
LEDGER_DIGEST = "e3acd2d077c68269795e81a0831477bfdf1ee114915b920f10569723253227fa"


def test_ledgers_match_pinned_digest():
    digest = hashlib.sha256()
    for p, (n, lo, hi, s) in enumerate(LEDGER_POINTS):
        proto = sketch_protocol(derive_sketch_params(n, lo, hi, s))
        for trial in range(7):
            d = (0, lo, hi, n, lo // 2, hi + 1, 1)[trial]
            x, y = random_pair_at_distance(n, d, seed=derive_seed(41, p, trial))
            outcome = proto.run(x, y, derive_seed(42, p, trial))
            digest.update(f"{outcome.output} {outcome.ledger.rounds}\n{outcome.ledger.dump()}\n".encode())
    assert digest.hexdigest() == LEDGER_DIGEST


# sha256 of the exact and received statistics' float64 bits of 10 instances
# per point (5 close, 5 far), taken before the short block sums became
# column adds and the Gaussians were formed in place.
STATISTIC_DIGESTS = {
    (512, 4, 256, 2): "8fcfcde0eb717afda94215d7a93fca55035399d1211bd9a14cb9db6e5b3cac3f",
    (512, 4, 256, 3): "3295594d92ef01843d0f9a48bcac6779c37a2a5373460fad67042312055427bc",
    (2048, 8, 1024, 2): "c9b227164f0797f4e975d139ab1a24145925d20f5afe01f4fff4b224769489d6",
}


@pytest.mark.parametrize("n, lo, hi, s", list(STATISTIC_DIGESTS))
def test_statistics_bits_are_pinned(n, lo, hi, s):
    params = derive_sketch_params(n, lo, hi, s)
    assert params.block_length == 2
    digest = hashlib.sha256()
    for d in (lo, hi):
        for trial in range(5):
            x, y = random_pair_at_distance(n, d, seed=derive_seed(1401, d, trial))
            stats = sketch_statistics(x, y, params, derive_seed(1402, d, trial))
            digest.update(struct.pack("<dd", stats.exact_statistic, stats.received_statistic))
    assert digest.hexdigest() == STATISTIC_DIGESTS[n, lo, hi, s]


# ------------------------------------------------------- batched decisions


def _seeds(master, count):
    return np.array([derive_seed(master, trial) for trial in range(count)], dtype=np.uint64)


@pytest.mark.parametrize(
    "point, distances, seeds",
    [
        ((512, 4, 256, 2.0), (4, 9, 256), 300),  # the mc_sweep points
        ((512, 4, 256, 3.0), (0, 9, 300), 300),
        ((2048, 8, 1024, 2.0), (8, 1024), 60),
        ((512, 1, 256, 0.008), (1, 9, 30), 200),  # block_length 8
        ((512, 1, 256, 0.006), (9, 30), 200),  # block_length 9
        ((512, 1, 256, 0.001), (9, 30), 300),  # block_length 16
        ((300, 2, 100, 0.05), (2, 9, 100), 200),  # padded past n
    ],
)
def test_batch_outputs_equal_protocol_runs(point, distances, seeds):
    n, lo, hi, s = point
    proto = sketch_protocol(derive_sketch_params(n, lo, hi, s, allow_void_guarantee=True))
    trial_seeds = _seeds(n + lo, seeds)
    split = False
    for d in distances:
        x, y = random_pair_at_distance(n, d, seed=d)
        outputs = proto.batch_outputs(x, y, trial_seeds)
        assert outputs.dtype == np.int64
        assert outputs.tolist() == [proto.run(x, y, int(seed)).output for seed in trial_seeds]
        split |= 0 < outputs.sum() < seeds
    assert split or n == 2048  # the decisions split at some distance


@pytest.mark.parametrize(
    "s, block_length", [(0.5, 2), (0.2, 3), (0.05, 5), (0.006, 9), (0.001, 16), (0.0005, 20)]
)
def test_batched_statistic_is_bit_identical(s, block_length):
    params = derive_sketch_params(512, 1, 256, s, allow_void_guarantee=True)
    assert params.block_length == block_length
    x, y = random_pair_at_distance(512, 20, seed=5)
    seeds = _seeds(block_length, 40)
    vectors = runtime._unit_vector_values(seeds, params.block_count, params.block_length, params.block_count)
    received = quantize_projection(_project(x, params, vectors), 512) / float(params.grid_denominator)
    batched = _statistic(received, _project(y, params, vectors))
    for seed, statistic in zip(seeds, batched):
        assert statistic == sketch_statistics(x, y, params, int(seed)).received_statistic


def test_batch_redraws_a_zero_norm_row_like_a_run(monkeypatch):
    # Zero one row of two seeds' first Gaussian draws, in the batch draws and
    # in those seeds' runs alike, so both take the redraw path: row 0 (in the
    # head blocks) of one seed and the last row (in the tail) of the other.
    params = derive_sketch_params(300, 2, 100, 0.05)
    proto = sketch_protocol(params)
    count, length = params.block_count, params.block_length
    seeds = _seeds(47, 30)
    targets = {int(seeds[7]): 0, int(seeds[25]): count - 1}
    original = runtime._gaussian_values
    zeroed = []

    def gaussians(chunk, start, size):
        values = original(chunk, start, size)
        for target, row in targets.items():
            hit = chunk == np.uint64(target)
            if start == 0 and hit.any() and size >= (row + 1) * length:
                zeroed.append((len(chunk), size))
                values[hit, row * length : (row + 1) * length] = 0.0
        return values

    monkeypatch.setattr(runtime, "_gaussian_values", gaussians)
    x, y = random_pair_at_distance(300, 9, seed=9)  # no trial is decided on its head
    outputs = proto.batch_outputs(x, y, seeds)
    # the head step of all 30 seeds (6 blocks of 4), then the head seed's
    # own reader inside its redraw; the full steps of 2**13 // 384 = 21 and
    # 9 seeds, each followed by the zeroed seed's reader
    assert (count, length, params.padded_length) == (96, 4, 384)
    assert zeroed == [(30, 24), (1, 384), (21, 384), (1, 384), (9, 384), (1, 384)]
    assert outputs.tolist() == [proto.run(x, y, int(seed)).output for seed in seeds]
    head = runtime._unit_vector_values(seeds[6:9], 6, length, count)
    redrawn = runtime._unit_vector_values(seeds[6:9], count, length, count)
    plain = StreamReader(int(seeds[7]))
    assert redrawn[1].tobytes() == plain.unit_vectors(count, length).tobytes()
    assert plain.position == 2 * (params.padded_length + length)
    assert head.tobytes() == redrawn[:, :6].tobytes()
    tail = runtime._unit_vector_values(seeds[24:27], count, length, count)
    assert tail[1].tobytes() == StreamReader(int(seeds[25])).unit_vectors(count, length).tobytes()
    monkeypatch.setattr(runtime, "_gaussian_values", original)
    for trial, row in ((7, 0), (25, count - 1)):
        unpatched = StreamReader(int(seeds[trial])).unit_vectors(count, length)
        vectors = redrawn[1] if trial == 7 else tail[1]
        assert vectors[row].tobytes() != unpatched[row].tobytes()
        assert np.delete(vectors, row, 0).tobytes() == np.delete(unpatched, row, 0).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_head_decisions_are_full_decisions(data):
    # s runs from about 3e-8 to far / 64, so block_length runs from 1 to 40:
    # past 8, where numpy sums each row pairwise.  Pairs at d <= close are
    # scored by the close-pair certificate, so they check its bound too; at
    # d = close + 1 a certificate that covered it would score far trials 0.
    n = data.draw(st.integers(8, 600), label="n")
    far = data.draw(st.integers(1, n), label="far")
    close = data.draw(st.integers(0, far - 1), label="close")
    length = data.draw(st.integers(1, 40), label="block_length")
    s = far * ((-(-n // length) - 0.5) / (4 * n)) ** 3
    params = derive_sketch_params(n, close, far, s, allow_void_guarantee=True)
    assume(not params.trivial_mode)
    d = data.draw(st.sampled_from([0, close, close + 1, far]), label="d")
    x, y = random_pair_at_distance(n, d, seed=d)
    seeds = _seeds(n + d, 40)
    count = params.block_count
    proto = sketch_protocol(params)

    def statistics(rows):
        vectors = runtime._unit_vector_values(seeds, rows, params.block_length, count)
        return _projections_and_statistic(x, y, params, vectors)[2]

    full = statistics(count)
    head = statistics(-(-count // sketch._HEAD_DIVISOR)) * sketch._HEAD_DEFLATION
    outputs = proto.batch_outputs(x, y, seeds)
    assert outputs.tolist() == _decides_far(params, full).astype(np.int64).tolist()
    assert outputs.tolist() == [proto.run(x, y, int(seed)).output for seed in seeds]
    assert (head <= full).all()
    assert _decides_far(params, full[_decides_far(params, head)]).all()
    bound = sketch._close_statistic_bound(params)
    assert not _decides_far(params, bound)  # every accepted parameter set is certified
    assert d > close or (full <= bound).all()


def test_head_deflation_covers_every_accepted_block_count():
    # Derivation refuses grid indices floor(sqrt(block_length) * n**3) >= 2**53,
    # so block_count <= n <= largest, the largest n with n**3 < 2**53.
    largest = round(2 ** (53 / 3))
    while largest**3 >= 2**53:
        largest -= 1
    assert largest == 208_063 and (largest + 1) ** 3 >= 2**53
    with pytest.raises(ValueError, match=r"2\*\*53"):
        derive_sketch_params(largest + 1, 0, largest + 1, 1.0)
    # Bob's statistic against the rounded deflated head sum (module docstring,
    # Batch scoring); this implies (1 - u)**(B - 1) / (1 + u)**(B - 1) >= 1 - 2**-30
    # at every B <= largest, 135,687 among them.
    u = Fraction(1, 2**53)
    assert Fraction(sketch._HEAD_DEFLATION) == 1 - Fraction(1, 2**30)
    assert (1 - u) ** (largest - 1) >= Fraction(sketch._HEAD_DEFLATION) * (1 + u) ** largest


def _reference_close_bound(params):
    """The close certificate's bound in exact rational arithmetic (module
    docstring, Batch scoring), before any rounding."""

    def gamma(k):
        return Fraction(k, 2**53 - k)

    def sqrt_up(value):
        return Fraction(math.isqrt(value << 128) + 1, 1 << 64)

    u, tiny = Fraction(1, 2**53), Fraction(1, 2**1074)
    length, count, distance = params.block_length, params.block_count, params.close_bound
    half_step = Fraction(1, 2 * params.grid_denominator)
    norm = (1 + u) / ((1 - gamma(length)) * (1 - u))
    projection = gamma(length - 1) * sqrt_up(length) * norm
    largest = sqrt_up(length) * norm + projection
    e = 2 * projection + half_step + u * largest + u * (largest * (1 + u) + half_step) + tiny
    terms = norm**2 * distance + 2 * norm * e * sqrt_up(distance * count) + count * e**2
    return (1 + gamma(count - 1)) * ((1 + u) ** 3 * terms + count * tiny)


def _float_up(value):
    """The least float at least the rational ``value``."""
    rounded = float(value)
    return rounded if Fraction(rounded) >= value else math.nextafter(rounded, math.inf)


def _assert_certificate_matches_the_reference(params):
    # every decimal rounding went up, and the float is the exact bound's
    exact = _reference_close_bound(params)
    assert Fraction(sketch._close_statistic_decimal(params)) >= exact
    assert sketch._close_statistic_bound(params) == _float_up(exact)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decimal_certificate_equals_the_rational_reference(data):
    # parameters drawn as in test_head_decisions_are_full_decisions
    n = data.draw(st.integers(8, 600), label="n")
    far = data.draw(st.integers(1, n), label="far")
    close = data.draw(st.integers(0, far - 1), label="close")
    length = data.draw(st.integers(1, 40), label="block_length")
    s = far * ((-(-n // length) - 0.5) / (4 * n)) ** 3
    params = derive_sketch_params(n, close, far, s, allow_void_guarantee=True)
    assume(not params.trivial_mode)
    _assert_certificate_matches_the_reference(params)


def _params_at(n, close, far, length):
    """Parameters of block length ``length`` at (n, close, far), guarantee waived."""
    s = far * ((-(-n // length) - 0.5) / (4 * n)) ** 3
    params = derive_sketch_params(n, close, far, s, allow_void_guarantee=True)
    assert params.block_length == length and not params.trivial_mode
    return params


def test_close_certificate_holds_at_the_extremes():
    # The largest n (block length 1 only, n blocks) and the largest block
    # length any n accepts (36,178: one block), each at L = U - 1 = n - 1.
    widest = 36_178
    assert math.isqrt(widest**7) < 2**53 <= math.isqrt((widest + 1) ** 7)
    points = [(208_063, 208_062, 208_063, 1), (208_063, 0, 1, 1), (widest, widest - 1, widest, widest)]
    shares = []
    for n, close, far, length in points:
        params = _params_at(n, close, far, length)
        _assert_certificate_matches_the_reference(params)
        bound = Fraction(sketch._close_statistic_bound(params))
        assert close < bound and not _decides_far(params, float(bound))
        shares.append((bound - close) / Fraction(5, n))  # of the threshold's margin
    assert Fraction(1, 6) < shares[0] < Fraction(1, 4) and shares[1] < 2**-60 and shares[2] < Fraction(1, 100)
    # beyond derivation (n = 2**20, n**3 > 2**53) the margin no longer covers it
    largest_n = _params_at(208_063, 208_062, 208_063, 1)
    beyond = dataclasses.replace(largest_n, n=2**20, close_bound=2**20 - 1, far_bound=2**20, block_count=2**20)
    _assert_certificate_matches_the_reference(beyond)
    assert _decides_far(beyond, sketch._close_statistic_bound(beyond))


def test_uncertified_close_pairs_draw_and_change_nothing(monkeypatch):
    # With the certificate forced to "not certified", close pairs go through
    # the draws: no report and no error rate may move.
    points = "".join(f"point {point}\n" for point in ("n=512 L=4 U=256 s=2", "n=512 L=4 U=256 s=3", "n=2048 L=8 U=1024 s=2"))
    configs = [parse_config(f"protocol = sketch\ntrials = 30\nseed = {seed}\n{points}") for seed in (1, 2, 3)]
    certified = [run_experiment(config) for config in configs]
    close = [GhdInstance.at_distance(512, 4, 256, d, seed=d) for d in (0, 4)]

    def rates(proto):
        return [estimate_error_rate(proto, instance, 30, 5) for instance in close]

    proto = sketch_protocol(reference_params())
    assert rates(proto) == rates(dataclasses.replace(proto, batch_outputs=None)) == [(0.0, 0.0)] * 2
    draws = []
    monkeypatch.setattr(sketch, "_close_statistic_bound", lambda params: math.inf)
    monkeypatch.setattr(
        sketch, "_unit_vector_values", lambda *args: draws.append(args[1:]) or runtime._unit_vector_values(*args)
    )
    for config, report in zip(configs, certified):
        drawn = run_experiment(config)
        assert drawn.to_csv() == report.to_csv() and drawn.to_json() == report.to_json()
    draws.clear()
    assert rates(sketch_protocol(reference_params())) == [(0.0, 0.0)] * 2
    count = reference_params().block_count
    assert (count, 2, count) in draws  # the close pairs reached the full stage


def test_batch_logs_its_head_decisions_and_leaves_reports_alone(caplog):
    config = parse_config("protocol = sketch\ntrials = 40\nseed = 3\npoint n=512 L=4 U=256 s=2\n")
    quiet = run_experiment(config)
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="ghd.sketch")
    logged = run_experiment(config)
    assert logged.to_csv() == quiet.to_csv() and logged.to_json() == quiet.to_json()
    messages = [r.getMessage() for r in caplog.records if r.name == "ghd.sketch"]
    assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2  # one batch a class
    close, far = messages
    assert close == "decided 40 of 40 close trials by the one-sided bound"
    far = re.fullmatch(r"decided (\d+) of 40 trials on the first 26 of 407 blocks", far)
    assert int(far[1]) > 30
    assert logging.getLogger("ghd.sketch").handlers == []


def test_only_projecting_sketches_batch():
    assert sketch_protocol(reference_params()).batch_outputs is not None
    trivial = derive_sketch_params(64, 2, 40, 30.0)
    assert trivial.trivial_mode and sketch_protocol(trivial).batch_outputs is None


def test_batched_error_rate_matches_the_run_loop():
    proto = sketch_protocol(reference_params())
    far = GhdInstance.at_distance(512, 4, 9, 9, seed=9)
    unbatched = dataclasses.replace(proto, batch_outputs=None)
    assert estimate_error_rate(proto, far, 150, 3) == estimate_error_rate(unbatched, far, 150, 3)


def _bob_receives_width(extra):
    params = derive_sketch_params(512, 4, 256, 2)
    bob = sketch_protocol(params).bob(BitString(512, 0), StreamReader(0))
    next(bob)
    bob.send((0, params.block_count * params.word_width + extra))


def _payload_wider_than_the_message():
    params = derive_sketch_params(512, 4, 256, 2)
    SketchMessage.from_payload(1 << params.block_count * params.word_width, params)


@pytest.mark.parametrize(
    "call, message",
    [
        (_payload_wider_than_the_message, "payload does not fit the declared message length"),
        (lambda: _bob_receives_width(1), "unexpected sketch message length"),
        (lambda: _bob_receives_width(-1), "unexpected sketch message length"),
    ],
    ids=["wide-payload", "long-message", "short-message"],
)
def test_malformed_sketch_messages_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
