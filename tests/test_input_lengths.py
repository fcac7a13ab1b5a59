"""The input-length contract: every input of a run is exactly n bits.

``run_protocol`` refuses inputs of unequal length before either party
starts, and each protocol built for a fixed n refuses inputs of another
length, in its strategies and in its batch hook alike.
"""

import numpy as np
import pytest

from ghd.bits import BitString, GhdInstance, _limb_matrix, hamming_distance
from ghd.covering import CoveringCode, det_protocol, det_protocol_params
from ghd.runtime import RECV, Send, SharedRandomness, run_protocol
from ghd.sampling import derive_sampling_params, sampling_protocol
from ghd.sketch import derive_sketch_params, sketch_protocol
from ghd.streaming import ExactBitmapF0, encode_streams, ghd_via_streaming, streaming_protocol


def _refused(n, width):
    return pytest.raises(ValueError, match=f"^input length {width} does not match n = {n}$")


def test_unequal_inputs_are_refused_before_either_party_starts():
    started = []

    def party(name):
        def strategy(own, reader):
            started.append(name)
            yield Send(0, 1)
            yield RECV
            return 0

        return strategy

    with pytest.raises(ValueError, match="^inputs of unequal length: 5 and 4 bits$"):
        run_protocol(party("a"), party("b"), BitString(5, 1), BitString(4, 1), 0)
    assert started == []


def test_streaming_refuses_inputs_of_unequal_length():
    proto = streaming_protocol(lambda: ExactBitmapF0(200), 1.5)
    with pytest.raises(ValueError, match="^inputs of unequal length: 100 and 90 bits$"):
        proto.run(BitString(100, 3), BitString(90, 3), 0)


@pytest.mark.parametrize(
    "n, gap, width, value",
    [
        (17, 7, 18, (1 << 17) + 5),  # the scan path decoded it silently
        (12, 5, 13, 4101),  # the table path raised a bare IndexError
        (17, 7, 16, 5),  # narrower words fit n bits but are still refused
    ],
)
def test_det_refuses_inputs_of_another_length(n, gap, width, value):
    proto = det_protocol(det_protocol_params(n, gap))
    x = BitString(width, value)
    with _refused(n, width):
        proto.run(x, x, 0)
    xs = _limb_matrix([value], width)
    with _refused(n, width):
        proto.pair_outputs(width, xs, xs)
    # the same words as n-bit rows: refused when one is wider than n bits
    fits = _limb_matrix([5, 5], n)
    both = _limb_matrix([5, value], max(n, width))
    if width > n:
        with pytest.raises(ValueError, match=f"^word does not fit in {n} bits$"):
            proto.pair_outputs(n, fits, both)
    else:
        assert proto.pair_outputs(n, fits, both).tolist() == [proto.run(BitString(n, 5), BitString(n, v), 0).output for v in (5, value)]


@pytest.mark.parametrize("n, limbs", [(12, 2), (70, 1), (70, 3)])
def test_det_pair_outputs_refuse_a_wrong_limb_count(n, limbs):
    proto = det_protocol(det_protocol_params(n, 5, code=CoveringCode(n, 2, (0, 1))))
    rows = np.zeros((3, limbs), dtype=np.uint64)
    with pytest.raises(ValueError, match=rf"^need {(n + 63) // 64} uint64 limbs a row for n = {n}, got uint64 of shape \(3, {limbs}\)$"):
        proto.pair_outputs(n, rows, rows)


@pytest.mark.parametrize("n", [12, 17, 70])
def test_nearest_index_refuses_words_wider_than_n(n):
    code = CoveringCode(n, 1, (0, 1))
    assert code.nearest_index((1 << n) - 1) == 1
    for word in (1 << n, (1 << n) + 5, -1):
        with pytest.raises(ValueError, match=f"^word does not fit in {n} bits$"):
            code.nearest_index(word)
        with pytest.raises(ValueError, match=f"^word does not fit in {n} bits$"):
            code.nearest_indices([0, word])


@pytest.mark.parametrize("width", [600, 400])
def test_sampling_refuses_inputs_of_another_length(width):
    # 600 bits answered silently and 400 raised a bare IndexError
    proto = sampling_protocol(derive_sampling_params(512, 4, 256, 2))
    x = BitString(width, 1)
    with _refused(512, width):
        proto.run(x, x, 0)
    with _refused(512, width):
        proto.batch_outputs(x, x, np.zeros(3, dtype=np.uint64))


def test_trivial_sketch_refuses_inputs_of_another_length():
    params = derive_sketch_params(64, 2, 40, 30.0)
    assert params.trivial_mode
    proto = sketch_protocol(params)
    for width in (63, 65):
        x = BitString(width, 1)
        with _refused(64, width):
            proto.run(x, x, 0)


def test_projecting_sketch_refuses_inputs_of_another_length():
    proto = sketch_protocol(derive_sketch_params(512, 4, 256, 2))
    x = BitString(500, 1)
    with _refused(512, 500):
        proto.run(x, x, 0)
    with _refused(512, 500):
        proto.batch_outputs(x, x, np.zeros(3, dtype=np.uint64))


def _started(strategy, own, *replies):
    """Start one strategy on ``own``, answering its receives with ``replies``."""
    steps = strategy(own, SharedRandomness(0).reader())
    next(steps)
    for reply in replies:
        steps.send(reply)


_SKETCH_PARAMS = derive_sketch_params(512, 4, 256, 2)
# Bob's projecting strategy checks his input once Alice's message is in
_SKETCH_MESSAGE = (0, _SKETCH_PARAMS.block_count * _SKETCH_PARAMS.word_width)
_SEEDS = np.zeros(3, dtype=np.uint64)
_W500, _W512 = BitString(500, 1), BitString(512, 1)
_sampling = lambda: sampling_protocol(derive_sampling_params(512, 4, 256, 2))
_projecting = lambda: sketch_protocol(_SKETCH_PARAMS)
_trivial = lambda: sketch_protocol(derive_sketch_params(64, 2, 40, 30.0))
_det = lambda: det_protocol(det_protocol_params(12, 5))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _started(_sampling().alice, _W500), "input length 500 does not match n = 512"),
        (lambda: _started(_sampling().bob, _W500), "input length 500 does not match n = 512"),
        (lambda: _sampling().batch_outputs(_W512, _W500, _SEEDS), "input length 500 does not match n = 512"),
        (lambda: _started(_projecting().alice, _W500), "input length 500 does not match n = 512"),
        (lambda: _started(_projecting().bob, _W500, _SKETCH_MESSAGE), "input length 500 does not match n = 512"),
        (lambda: _projecting().batch_outputs(_W500, _W512, _SEEDS), "input length 500 does not match n = 512"),
        (lambda: _started(_trivial().alice, BitString(63, 1)), "input length 63 does not match n = 64"),
        (lambda: _started(_trivial().bob, BitString(65, 1)), "input length 65 does not match n = 64"),
        (lambda: _started(_det().alice, BitString(13, 1)), "input length 13 does not match n = 12"),
        (lambda: _started(_det().bob, BitString(11, 1)), "input length 11 does not match n = 12"),
        (lambda: _det().pair_outputs(13, *[_limb_matrix([1], 13)] * 2), "input length 13 does not match n = 12"),
        (lambda: GhdInstance(8, 1, 4, BitString(7, 0), BitString(8, 0)), "input length 7 does not match n = 8"),
        (lambda: encode_streams(BitString(6, 0), BitString(5, 0), 6), "input length 5 does not match n = 6"),
        (lambda: hamming_distance(BitString(5, 0), BitString(4, 0)), "inputs of unequal length: 5 and 4 bits"),
        (lambda: _sampling().run(_W512, _W500, 0), "inputs of unequal length: 512 and 500 bits"),
        (
            lambda: ghd_via_streaming(lambda: ExactBitmapF0(10), 1.5, BitString(5, 0), BitString(4, 0)),
            "inputs of unequal length: 5 and 4 bits",
        ),
    ],
    ids=[
        "sampling-alice", "sampling-bob", "sampling-batch",
        "sketch-alice", "sketch-bob", "sketch-batch",
        "trivial-alice", "trivial-bob",
        "det-alice", "det-bob", "det-batch",
        "instance", "encode-streams", "hamming", "run", "via-streaming",
    ],
)
def test_every_input_refusal_gives_its_home_s_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
