"""Differential property: every batch hook equals the real runs it stands for.

``batch_outputs`` and ``pair_outputs`` decide the report rows of a sweep,
while real runs are made only on audited trials, so each hook is checked
here against one real run per trial on random small parameters.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghd.bits import BitString, _limb_matrix, random_pair_at_distance
from ghd.covering import det_protocol, det_protocol_params
from ghd.sampling import derive_sampling_params, sampling_protocol
from ghd.sketch import derive_sketch_params, sketch_protocol
from ghd.streaming import ExactBitmapF0, TruncatedBitmapF0, stream_gap, streaming_protocol

_SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)


@st.composite
def _monte_carlo_points(draw):
    n = draw(st.integers(2, 96))
    far = draw(st.integers(1, n))
    close = draw(st.integers(0, far - 1))
    # the sketch projects only when about 64 s <= far; otherwise it sends x verbatim
    s = 10.0 ** draw(st.floats(-4.0, 0.3))
    d = draw(st.integers(0, n))
    return n, close, far, s, random_pair_at_distance(n, d, draw(st.integers(0, 2**63)))


@st.composite
def _pairs(draw, n):
    count = draw(st.integers(1, 8))
    words = st.integers(0, 2**n - 1)
    return [(BitString(n, draw(words)), BitString(n, draw(words))) for _ in range(count)]


def _assert_seeded_batch_matches_runs(proto, x, y, seeds):
    outputs = proto.batch_outputs(x, y, np.array(seeds, dtype=np.uint64))
    assert outputs.dtype == np.int64
    assert outputs.tolist() == [proto.run(x, y, seed).output for seed in seeds]


def _assert_pair_batch_matches_runs(proto, n, pairs):
    xs, ys = (_limb_matrix([s.value for s in strings], n) for strings in zip(*pairs))
    outputs = proto.pair_outputs(n, xs, ys)
    assert outputs.dtype == np.int64
    assert outputs.tolist() == [proto.run(x, y, 0).output for x, y in pairs]
    return outputs.tolist()


@settings(max_examples=30, deadline=None)
@given(_monte_carlo_points(), _SEEDS)
def test_sampling_batch_outputs_equal_runs(point, seeds):
    n, close, far, s, (x, y) = point
    proto = sampling_protocol(derive_sampling_params(n, close, far, s))
    _assert_seeded_batch_matches_runs(proto, x, y, seeds)


@settings(max_examples=30, deadline=None)
@given(_monte_carlo_points(), _SEEDS)
def test_sketch_batch_outputs_equal_runs(point, seeds):
    n, close, far, s, (x, y) = point
    params = derive_sketch_params(n, close, far, s, allow_void_guarantee=True)
    proto = sketch_protocol(params)
    if params.trivial_mode:
        assert proto.batch_outputs is None  # scored by running every trial
        return
    _assert_seeded_batch_matches_runs(proto, x, y, seeds)


@lru_cache(maxsize=None)
def _det(n, gap):
    return det_protocol(det_protocol_params(n, gap))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_det_pair_outputs_equal_runs(data):
    n = data.draw(st.integers(1, 12))
    gap = data.draw(st.integers(1, n))
    _assert_pair_batch_matches_runs(_det(n, gap), n, data.draw(_pairs(n)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_stream_pair_outputs_equal_runs(data):
    n = data.draw(st.integers(1, 24))
    c = data.draw(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    passes = data.draw(st.integers(1, 3))
    capacity = data.draw(st.none() | st.integers(1, 2 * n))
    if capacity is None:
        factory = lambda: ExactBitmapF0(2 * n, passes)
    else:
        factory = lambda: TruncatedBitmapF0(2 * n, capacity, passes)
    _assert_pair_batch_matches_runs(streaming_protocol(factory, c), n, data.draw(_pairs(n)))


def _det_edges(n, gap, rng, count):
    # y at distance r, then r + 1, from the codeword Alice sends
    params = det_protocol_params(n, gap)
    code, radius = params.code, params.decision_radius
    pairs = []
    for d in (radius, radius + 1):
        for _ in range(count):
            x = rng.getrandbits(n)
            flips = sum(1 << i for i in rng.sample(range(n), d))
            pairs.append((BitString(n, x), BitString(n, code.codewords[code.nearest_index(x)] ^ flips)))
    return det_protocol(params), pairs


def _stream_edges(n, c, p, rng, count):
    # pairs at distance gap - 1, then gap: the exact bitmap estimates n + distance
    gap = stream_gap(n, c)
    pairs = [random_pair_at_distance(n, d, rng.getrandbits(63)) for d in (gap - 1, gap) for _ in range(count)]
    return streaming_protocol(lambda: ExactBitmapF0(2 * n, p), c), pairs


@pytest.mark.parametrize(
    "edges, point",
    [
        pytest.param(_det_edges, (12, 5), id="det-12-5"),
        pytest.param(_det_edges, (16, 5), id="det-16-5"),
        pytest.param(_det_edges, (17, 7), id="det-17-7"),
        pytest.param(_stream_edges, (40, 1.5, 2), id="stream-40-1.5-2"),
        pytest.param(_stream_edges, (24, 1.1, 1), id="stream-24-1.1-1"),
    ],
)
def test_runs_and_pair_outputs_agree_on_both_sides_of_the_rule(edges, point):
    # the sweeps' promise classes reach these edges rarely or never
    proto, pairs = edges(*point, random.Random(str(point)), 8)
    assert _assert_pair_batch_matches_runs(proto, point[0], pairs) == [0] * 8 + [1] * 8
