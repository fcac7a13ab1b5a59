import ast
import math
import pickle
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghd import bits
from ghd.bits import (
    BitString,
    GhdInstance,
    Promise,
    ball_volume,
    hamming_distance,
    log2_ball_volume,
    log2_exact,
    random_pair_at_distance,
    random_pairs_at_distances,
)


def oracle_hamming(a: str, b: str) -> int:
    # positionwise comparison of the textual forms
    assert len(a) == len(b)
    return sum(ca != cb for ca, cb in zip(a, b))


def oracle_ball(n: int, r: int) -> int:
    # brute-force enumeration of the cube around the all-zero center
    return sum(1 for z in range(1 << n) if z.bit_count() <= r)


# ---------------------------------------------------------------- BitString


def test_text_round_trip_examples():
    s = BitString.from_text("10110")
    assert str(s) == "10110"
    assert s.length == 5
    assert [s.bit(i) for i in range(5)] == [1, 0, 1, 1, 0]


@given(st.text(alphabet="01", min_size=1, max_size=200))
def test_text_round_trip_property(text):
    assert str(BitString.from_text(text)) == text


def test_bitstring_rejects_bad_input():
    with pytest.raises(ValueError):
        BitString(0, 0)
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(ValueError):
        BitString.from_text("012")
    with pytest.raises(ValueError):
        BitString.from_text("")


def test_bit_array_matches_bits():
    s = BitString.from_text("100110101")
    assert list(s.bit_array()) == [1, 0, 0, 1, 1, 0, 1, 0, 1]


def test_complement_and_flip():
    s = BitString.from_text("1010")
    assert str(s.complement()) == "0101"
    assert str(s.flip([0, 3])) == "0011"


def test_bitstring_has_slots_and_pickles():
    s = BitString(100, (1 << 99) | 12345)
    assert not hasattr(s, "__dict__")
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and hash(copy) == hash(s)
    with pytest.raises(AttributeError):
        s.value = 0


# ---------------------------------------------------------------- word formats


def _to_bytes_rows(values, nbytes):
    raw = b"".join(value.to_bytes(nbytes, "big") for value in values)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(values), nbytes)


@pytest.mark.parametrize("nbytes", range(1, 10))
def test_byte_rows_match_to_bytes(nbytes):
    # the limb matrix of (8 * nbytes)-bit words, read as big-endian bytes,
    # is each word's to_bytes over the row's whole limbs
    n = 8 * nbytes
    row_bytes = 8 * ((n + 63) // 64)
    top = (1 << n) - 1
    for values in ([0], [top], [], [top, 0, 1, top >> 1]):
        rows = bits._limb_matrix(values, n)
        assert rows.dtype == np.uint64 and rows.shape == (len(values), row_bytes // 8)
        assert rows.astype(">u8").view(np.uint8).tolist() == _to_bytes_rows(values, row_bytes).tolist()
    for oversize in (1 << (8 * row_bytes), -1):
        with pytest.raises(OverflowError):
            bits._limb_matrix([0, oversize], n)


def _assert_formats_round_trip(n, words):
    """The three inverse pairs of the word format on n-bit words."""
    for word in words:
        vector = bits._int_bits(word, n)
        assert vector.dtype == np.uint8 and vector.tolist() == [int(c) for c in format(word, f"0{n}b")]
        assert bits._bits_int(vector) == word
    matrix = bits._limb_matrix(words, n)
    assert matrix.dtype == np.uint64 and matrix.shape == (len(words), (n + 63) // 64)
    assert [bits._limb_value(row) for row in matrix] == words
    rows = bits._limb_bits(matrix, n)
    assert rows.dtype == np.uint8 and rows.tolist() == [bits._int_bits(w, n).tolist() for w in words]
    assert bits._bits_limbs(rows).tolist() == matrix.tolist()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 128, 200])
def test_word_formats_round_trip_at_edge_widths(n):
    top = (1 << n) - 1
    _assert_formats_round_trip(n, [0, top, 1, top >> 1, top ^ 1, 1 << (n - 1)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.lists(st.integers(0, (1 << 200) - 1), max_size=6))
def test_word_formats_round_trip(n, words):
    _assert_formats_round_trip(n, [word >> (200 - n) for word in words])


def test_only_bits_packs_and_unpacks_bits():
    # the word format has one home: outside bits.py no module of the
    # package calls packbits or unpackbits
    callers = {}
    for path in sorted(Path(bits.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("packbits", "unpackbits"):
                    callers.setdefault(path.name, []).append(node.lineno)
    assert "bits.py" in callers  # the scan sees the calls it looks for
    assert sorted(callers) == ["bits.py"]


# ---------------------------------------------------------------- distance


def test_hamming_examples():
    assert hamming_distance(BitString.from_text("0000"), BitString.from_text("0000")) == 0
    assert hamming_distance(BitString.from_text("1010"), BitString.from_text("0101")) == 4
    assert hamming_distance(BitString.from_text("10110"), BitString.from_text("00111")) == 2
    assert oracle_hamming("10110", "00111") == 2


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(BitString.from_text("01"), BitString.from_text("011"))


def test_hamming_matches_oracle_exhaustively_n8_pairs():
    n = 8
    strings = [BitString(n, v) for v in range(1 << n)]
    texts = [str(s) for s in strings]
    for i in range(1 << n):
        for j in range(i, 1 << n):
            d = hamming_distance(strings[i], strings[j])
            assert d == oracle_hamming(texts[i], texts[j])
            assert d == hamming_distance(strings[j], strings[i])
            assert (d == 0) == (i == j)


def test_triangle_inequality_exhaustive_small():
    for n in (2, 3, 4):
        strings = [BitString(n, v) for v in range(1 << n)]
        for x in strings:
            for y in strings:
                dxy = hamming_distance(x, y)
                for z in strings:
                    assert dxy <= hamming_distance(x, z) + hamming_distance(z, y)


@given(st.integers(16, 96), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_triangle_inequality_randomized(n, rnd):
    rng = random.Random(rnd.getrandbits(64))
    x, y, z = (BitString.random(n, rng) for _ in range(3))
    assert hamming_distance(x, y) <= hamming_distance(x, z) + hamming_distance(z, y)
    assert hamming_distance(x, y) == hamming_distance(y, x)


# ------------------------------------------------------------ ball volumes


def test_ball_volume_examples():
    assert ball_volume(5, 0) == 1
    assert ball_volume(5, 5) == 32
    assert ball_volume(10, 3) == 176
    assert sum(math.comb(10, i) for i in range(4)) == 176


def test_ball_volume_rejects_bad_radius():
    with pytest.raises(ValueError):
        ball_volume(5, -1)
    with pytest.raises(ValueError):
        ball_volume(5, 6)


def test_ball_volume_matches_binomial_sum_everywhere():
    for n in range(1, 40):
        for r in range(n + 1):
            assert ball_volume(n, r) == sum(math.comb(n, i) for i in range(r + 1))


def test_ball_volume_matches_brute_force_up_to_n16():
    for n in range(1, 17):
        counts = [0] * (n + 1)
        for z in range(1 << n):
            counts[z.bit_count()] += 1
        total = 0
        for r in range(n + 1):
            total += counts[r]
            assert ball_volume(n, r) == total
    assert ball_volume(16, 16) == oracle_ball(16, 16)


def test_ball_volume_monotonicity():
    for n in (1, 5, 12, 33):
        for r in range(n):
            assert ball_volume(n, r) < ball_volume(n, r + 1)


def test_ball_volume_huge_n_is_exact():
    v = ball_volume(10**6, 2)
    assert v == 1 + 10**6 + math.comb(10**6, 2)


def test_volume_step_inequality_up_to_n64():
    # V2(n, floor(t/2)) <= (1+n) * V2(n, floor((t-1)/2)) for 1 <= t <= n <= 64
    for n in range(1, 65):
        for t in range(1, n + 1):
            assert ball_volume(n, t // 2) <= (1 + n) * ball_volume(n, (t - 1) // 2)


# ------------------------------------------------------------------- log2


def test_log2_examples():
    assert log2_ball_volume(5, 5) == 5.0
    assert log2_ball_volume(5, 0) == 0.0
    assert abs(log2_ball_volume(10, 3) - math.log2(176)) < 1e-12


def test_log2_matches_mpmath_at_scale():
    mpmath.mp.prec = 3000
    for n, r in [(100, 37), (1000, 250), (1000, 999), (2000, 700)]:
        exact = ball_volume(n, r)
        expected = float(mpmath.log(mpmath.mpf(exact), 2))
        assert abs(log2_ball_volume(n, r) - expected) < 1e-9


def test_log2_exact_rejects_nonpositive():
    with pytest.raises(ValueError):
        log2_exact(0)


# -------------------------------------------------------------- instances


def test_random_pair_examples():
    x, y = random_pair_at_distance(8, 0, seed=123)
    assert x == y
    x, y = random_pair_at_distance(8, 8, seed=123)
    assert y == x.complement()
    x, y = random_pair_at_distance(100, 37, seed=1)
    assert hamming_distance(x, y) == 37


def test_random_pair_is_deterministic_and_seed_sensitive():
    assert random_pair_at_distance(64, 20, seed=9) == random_pair_at_distance(64, 20, seed=9)
    assert random_pair_at_distance(64, 20, seed=9) != random_pair_at_distance(64, 20, seed=10)


def test_random_pair_rejects_bad_distance():
    with pytest.raises(ValueError):
        random_pair_at_distance(8, 9, seed=0)
    with pytest.raises(ValueError):
        random_pair_at_distance(8, -1, seed=0)


def test_random_pair_distance_distribution():
    # flipped positions should cover all coordinates over many draws
    seen = set()
    for seed in range(200):
        x, y = random_pair_at_distance(16, 3, seed)
        diff = x.value ^ y.value
        seen.update(i for i in range(16) if (diff >> i) & 1)
        assert hamming_distance(x, y) == 3
    assert seen == set(range(16))


def reference_pair_at_distance(n, d, seed):
    """The pair as one seeded generator draws it: x, then d flips of x."""
    rng = random.Random(seed)
    x = BitString.random(n, rng)
    return x, x.flip(rng.sample(range(n), d))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**63 - 1))
@example(n=1, seed=0)
@example(n=300, seed=2**63 - 1)  # small d takes Random.sample's set branch, large d its pool
def test_random_pair_equals_the_flip_reference(n, seed):
    for d in range(n + 1):
        assert random_pair_at_distance(n, d, seed) == reference_pair_at_distance(n, d, seed)


def test_instance_promise_classes():
    x, y = random_pair_at_distance(20, 5, seed=0)
    assert GhdInstance(20, 5, 10, x, y).promise is Promise.CLOSE
    x, y = random_pair_at_distance(20, 10, seed=0)
    assert GhdInstance(20, 5, 10, x, y).promise is Promise.FAR
    x, y = random_pair_at_distance(20, 7, seed=0)
    inst = GhdInstance(20, 5, 10, x, y)
    assert inst.promise is Promise.VIOLATED
    with pytest.raises(ValueError):
        inst.truth_bit()


def test_instance_validates_parameters():
    x, y = random_pair_at_distance(10, 0, seed=0)
    with pytest.raises(ValueError):
        GhdInstance(10, 5, 5, x, y)
    with pytest.raises(ValueError):
        GhdInstance(10, -1, 5, x, y)
    with pytest.raises(ValueError):
        GhdInstance(10, 2, 11, x, y)


def test_instance_at_distance_promise():
    inst = GhdInstance.at_distance(50, 10, 30, 30, seed=4)
    assert inst.promise is Promise.FAR
    assert inst.truth_bit() == 1


# ------------------------------------------------------------ pair lanes


def assert_pairs_match_oracle(n, distances, seeds):
    """The lanes' two limb matrices hold the oracle's pairs, row by row."""
    xs, ys = random_pairs_at_distances(n, distances, seeds)
    pairs = [random_pair_at_distance(n, d, s) for d, s in zip(distances, seeds)]
    limbs = (n + 63) // 64
    for matrix, words in ((xs, [x for x, _ in pairs]), (ys, [y for _, y in pairs])):
        assert matrix.dtype == np.uint64 and matrix.shape == (len(pairs), limbs)
        assert [bits._limb_value(row) for row in matrix] == [w.value for w in words]


@pytest.fixture
def oracle_calls(monkeypatch):
    """A list that grows by one per call the lanes make to the oracle."""
    calls = []

    def counted(n, d, seed):
        calls.append((n, d))
        return random_pair_at_distance(n, d, seed)

    monkeypatch.setattr(bits, "random_pair_at_distance", counted)
    return calls


def _sample_takes_pool(n, k):
    """Whether CPython's ``Random.sample(range(n), k)`` shuffles a pool: its
    second draw is then below n - 1, where the set branch draws below n."""
    bounds = []

    class Recording(random.Random):
        def _randbelow(self, bound):
            bounds.append(bound)
            return super()._randbelow(bound)

    Recording(0).sample(range(n), k)
    return bounds[1] == n - 1


@pytest.mark.parametrize("k", [2, 5, 6, 21, 22, 85, 86, 300])
def test_sample_setsize_matches_cpython(k):
    edge = bits._sample_setsize(k)
    for n in (max(k, edge - 1), max(k, edge), edge + 1):
        assert _sample_takes_pool(n, k) == (n <= edge)


PAIR_LENGTHS = [1, 2, 16, 18, 21, 22, 31, 32, 33, 64, 65, 100, 130]


@pytest.mark.parametrize("n", PAIR_LENGTHS)
def test_pair_lanes_match_the_oracle(n, oracle_calls):
    rng = random.Random(n)
    distances = [d for d in (0, 1, 5, 6, n // 2, n) if d <= n for _ in range(80)]
    seeds = [rng.getrandbits(63) for _ in distances]
    assert_pairs_match_oracle(n, distances, seeds)
    # every pool-branch d has 80 >= _MIN_LANES pairs, and they need no oracle
    assert all(n > bits._sample_setsize(d) for _, d in oracle_calls)
    if n <= 21:
        assert oracle_calls == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 200).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n), st.integers(0, 2**64)), max_size=40),
        )
    )
)
def test_pair_lanes_property(case):
    n, draws = case
    distances = [d for d, _ in draws]
    seeds = [s for _, s in draws]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bits, "_MIN_LANES", 1)
        assert_pairs_match_oracle(n, distances, seeds)


@pytest.mark.parametrize("tiny", ["window", "budget"])
def test_pair_lanes_fall_back_when_window_or_budget_runs_out(monkeypatch, oracle_calls, tiny):
    if tiny == "window":
        monkeypatch.setattr(bits, "_LANE_WINDOW", 2)
    else:  # one output per pick beyond x's words
        monkeypatch.setattr(bits, "_lane_outputs", lambda n, max_distance: (n + 31) // 32 + max_distance)
    rng = random.Random(7)
    for n in (18, 100):
        oracle_calls.clear()
        distances = [rng.randint(n // 2, n) for _ in range(200)]
        seeds = [rng.getrandbits(63) for _ in distances]
        assert_pairs_match_oracle(n, distances, seeds)
        assert 0 < len(oracle_calls) < len(distances)


def test_pair_lanes_fall_back_when_a_slice_would_be_too_small(monkeypatch, oracle_calls):
    rng = random.Random(8)
    distances = [rng.randint(8, 16) for _ in range(100)]
    seeds = [rng.getrandbits(63) for _ in distances]
    monkeypatch.setattr(bits, "_LANE_CELLS", 63 * (bits._lane_outputs(16, 16) + 32))
    assert_pairs_match_oracle(16, distances, seeds)
    assert len(oracle_calls) == 100
    # room for 64 lanes a slice: two balanced slices of 50
    oracle_calls.clear()
    monkeypatch.setattr(bits, "_LANE_CELLS", 64 * (bits._lane_outputs(16, 16) + 32))
    assert_pairs_match_oracle(16, distances, seeds)
    assert oracle_calls == []


def test_pair_lanes_across_slices_at_the_default_constants(monkeypatch, oracle_calls):
    # d up to 100 at n = 100: the default 2**18 cells hold 624 lanes a slice,
    # so 1,300 lanes run in three slices of at most 434
    rng = random.Random(16)
    distances = [rng.randint(50, 100) for _ in range(1300)]
    seeds = [rng.getrandbits(63) for _ in distances]
    assert max(distances) == 100
    assert bits._LANE_CELLS // (bits._lane_outputs(100, 100) + 200) == 624
    sizes = []
    pool_lanes = bits._pool_lanes

    def recorded(n, distances, seeds):
        sizes.append(len(distances))
        return pool_lanes(n, distances, seeds)

    monkeypatch.setattr(bits, "_pool_lanes", recorded)
    assert_pairs_match_oracle(100, distances, seeds)
    assert sizes == [434, 434, 432]
    assert len(oracle_calls) == 1  # the one lane of this seed that fails


@pytest.mark.parametrize("n", [18, 100])
def test_pair_lanes_at_edge_int_seeds_and_text_seeds(n, oracle_calls):
    # ints around the 32- and 64-bit limbs of the seeding key, and beyond it
    int_seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 12345, 3**50] * 10
    # Random.seed hashes a str or bytes seed before seeding, so those pairs take the oracle
    text_seeds = ["ghd", "", b"ghd", bytes(9)]
    rng = random.Random(n)
    seeds = int_seeds + text_seeds
    distances = [rng.randint(n // 2, n) for _ in seeds]
    assert_pairs_match_oracle(n, distances, seeds)
    assert len(int_seeds) >= bits._MIN_LANES
    assert oracle_calls == [(n, d) for d in distances[len(int_seeds) :]]


def test_pair_lanes_edge_inputs(oracle_calls):
    xs, ys = random_pairs_at_distances(16, [], [])
    assert xs.shape == ys.shape == (0, 1) and xs.dtype == ys.dtype == np.uint64
    # fewer than _MIN_LANES pairs go to the oracle
    assert_pairs_match_oracle(16, [3, 4], [1, 2])
    assert len(oracle_calls) == 2
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_pairs_at_distances(0, [0], [1])
    with pytest.raises(ValueError, match="0 <= d <= n"):
        random_pairs_at_distances(8, [3, 9], [1, 2])
    with pytest.raises(ValueError, match="0 <= d <= n"):
        random_pairs_at_distances(8, [-1], [1])
    with pytest.raises(ValueError, match="2 distances but 1 seeds"):
        random_pairs_at_distances(8, [3, 4], [1])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BitString(4, 5).bit(4), IndexError, "position 4 out of range"),
        (lambda: BitString(4, 5).flip([1, -1]), IndexError, "position -1 out of range"),
        (
            lambda: GhdInstance(8, 1, 4, BitString(8, 0), BitString(7, 0)),
            ValueError,
            "input lengths do not match n",
        ),
    ],
    ids=["bit", "flip", "instance-length"],
)
def test_out_of_range_arguments_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
