"""The input-length contract: every input of a run is exactly n bits.

``run_protocol`` refuses inputs of unequal length before either party
starts, and each protocol built for a fixed n refuses inputs of another
length, in its strategies and in its batch hook alike.
"""

import re

import numpy as np
import pytest

from ghd.bits import BitString, _limb_matrix
from ghd.covering import CoveringCode, det_protocol, det_protocol_params
from ghd.runtime import RECV, Send, run_protocol
from ghd.sampling import derive_sampling_params, sampling_protocol
from ghd.sketch import derive_sketch_params, sketch_protocol
from ghd.streaming import ExactBitmapF0, streaming_protocol


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
    message = re.escape("input length does not match the parameters")
    with pytest.raises(ValueError, match=message):
        proto.run(x, x, 0)
    with pytest.raises(ValueError, match=message):
        proto.batch_outputs(x, x, np.zeros(3, dtype=np.uint64))
