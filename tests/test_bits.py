import ast
import math
import pickle
import random
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghd import bits, runtime
from ghd.bits import (
    BitString,
    GhdInstance,
    Promise,
    ball_volume,
    hamming_distance,
    log2_ball_volume,
    log2_exact,
    random_pair_at_distance,
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


# Each input rule and cost formula of the package, found by its message
# text (in a raise) or by the shape of its expression, and the one function
# that may state it.  The texts include those of earlier copies.
RULE_TEXTS = {
    "input length": r"input lengths?\b.*\b(does|do) not match",
    "equal lengths": r"unequal length|equal length|length mismatch",
    "gap range": r"gap must satisfy|<= gap <=",
    "radius range": r"radius must satisfy|radius out of range|<= r <= n",
}
RULE_HOMES = {
    "input length": "bits._check_lengths",
    "equal lengths": "bits._check_equal_lengths",
    "gap range": "bits._check_gap",
    "radius range": "bits._check_radius",
    "run budget": "runtime._bit_budget",
    "bitmap run cost": "streaming._bitmap_run_bits",
}


def _is_two_p_minus_one(node) -> bool:
    # 2 * p - 1, with p any expression
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mult)
        and isinstance(node.left.left, ast.Constant)
        and node.left.left.value == 2
    )


def _rule_sites(tree: ast.AST, module: str) -> dict:
    """rule -> the functions (``module.outer.inner``) that state it."""
    sites = {}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        found = []
        if isinstance(node, ast.Raise):
            text = ast.unparse(node)  # an f-string's fields read as {name}
            found += [rule for rule, pattern in RULE_TEXTS.items() if re.search(pattern, text)]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
            if any(getattr(operand, "id", getattr(operand, "attr", None)) == "DEFAULT_BUDGET_FACTOR" for operand in operands):
                found.append("run budget")
            if any(_is_two_p_minus_one(operand) for operand in operands):
                found.append("bitmap run cost")
        for rule in found:
            sites.setdefault(rule, set()).add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return sites


def test_each_input_rule_and_cost_formula_has_one_home():
    sites = {}
    for path in sorted(Path(bits.__file__).parent.glob("*.py")):
        for rule, where in _rule_sites(ast.parse(path.read_text()), path.stem).items():
            sites.setdefault(rule, set()).update(where)
    assert sites == {rule: {home} for rule, home in RULE_HOMES.items()}


def test_the_rule_scan_sees_a_second_copy():
    # the copies the homes replaced, each in its old text
    copied = """
def run(x, y, n, gap, radius, p):
    if x.length != y.length:
        raise ValueError("inputs must have equal length")
    if x.length != n or y.length != n:
        raise ValueError("input lengths do not match n")
    if not 1 <= gap <= n:
        raise ValueError(f"gap must satisfy 1 <= gap <= n, got gap = {gap} for n = {n}")
    if not 0 <= radius <= n:
        raise ValueError("radius out of range")
    return DEFAULT_BUDGET_FACTOR * n * n, (2 * p - 1) * 2 * n + 1
"""
    assert _rule_sites(ast.parse(copied), "copy") == {rule: {"copy.run"} for rule in RULE_HOMES}


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


def _parent_log2_exact(value: int) -> float:
    # the formula before widths of 54 to 63 bits went through math.log2;
    # there it raised (a negative shift)
    bit_length = value.bit_length()
    if bit_length <= 53:
        return math.log2(value)
    shift = bit_length - 64
    return math.log2(value >> shift) + shift


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300).flatmap(lambda width: st.integers(1 << (width - 1), (1 << width) - 1)))
@example((1 << 53) - 1)
@example(1 << 53)
@example((1 << 63) - 1)
@example(1 << 63)
@example((1 << 64) + 1)
@example(ball_volume(54, 27))
@example(ball_volume(64, 20))
def test_log2_exact_matches_mpmath_at_every_width(value):
    with mpmath.workdps(60):
        expected = mpmath.log(mpmath.mpf(value), 2)
        assert abs(mpmath.mpf(log2_exact(value)) - expected) < 1e-9


def test_log2_exact_keeps_the_parent_bits_outside_54_to_63_bits():
    rng = random.Random(30)
    for width in [w for w in range(1, 301) if not 54 <= w <= 63]:
        low, high = 1 << (width - 1), (1 << width) - 1
        for value in {low, high, rng.randint(low, high), rng.randint(low, high)}:
            assert log2_exact(value) == _parent_log2_exact(value), value


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
# The exact sweeps draw a whole class of pairs in numpy lanes, one lane per
# trial seed (runtime._exact_class_values).  The oracle below reads the same
# stream positions one Python int at a time.


def _trial_pair_oracle(seed, n, gap):
    """One trial's close word, far x and far y, from the stream layout in Python ints."""
    limbs = (n + 63) // 64
    raw = [runtime.mix64(seed + position * runtime._GOLDEN) for position in range(1, 2 * limbs + 2 + n)]

    def word(values):  # limbs most significant first, cut to n bits
        return sum(value << 64 * (len(values) - 1 - i) for i, value in enumerate(values)) % (1 << n)

    close, x = word(raw[:limbs]), word(raw[limbs : 2 * limbs])
    d = gap + (raw[2 * limbs] * (n - gap + 1) >> 64)
    b = (n - 1).bit_length()
    keys = sorted((value >> b << b | p, p) for p, value in enumerate(raw[2 * limbs + 1 :]))
    # position p is bit n - 1 - p of the word: the d positions of smallest key flip
    return close, x, x ^ sum(1 << (n - 1 - p) for _, p in keys[:d])


def assert_pairs_match_oracle(n, gap, seeds):
    """The lanes' three limb matrices hold the oracle's words, row by row."""
    values = runtime._exact_class_values(np.array(seeds, dtype=np.uint64), n, gap)
    assert values.dtype == np.uint64 and values.shape == (len(seeds), 3, (n + 63) // 64)
    lanes = [tuple(bits._limb_value(word) for word in row) for row in values]
    expected = [_trial_pair_oracle(seed, n, gap) for seed in seeds]
    assert lanes == expected
    assert all(gap <= (x ^ y).bit_count() <= n for _, x, y in expected)


# lengths around the limb edges and where the key shift (n - 1).bit_length() grows
PAIR_LENGTHS = [1, 2, 16, 18, 21, 22, 31, 32, 33, 64, 65, 100, 130]


@pytest.mark.parametrize("n", PAIR_LENGTHS)
def test_pair_lanes_match_the_oracle(n):
    seeds = runtime._trial_seeds(n, 80).tolist()
    for gap in sorted({1, 2, 5, n // 2, n} & set(range(1, n + 1))):
        assert_pairs_match_oracle(n, gap, seeds)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n), st.lists(st.integers(0, 2**64 - 1), max_size=40))
    )
)
def test_pair_lanes_property(case):
    n, gap, seeds = case
    assert_pairs_match_oracle(n, gap, seeds)


def test_pair_lanes_across_slices_at_the_default_constants(monkeypatch):
    # 2 * 2 + 1 + 100 stream values a trial at n = 100: the default cap of
    # 2**13 coordinates holds 78 lanes a slice, so 1,300 lanes run in 17 slices
    assert runtime._BATCH_COORDINATES // (2 * 2 + 1 + 100) == 78
    sizes = []
    raw_values = runtime._raw_values

    def recorded(seeds, start, count):
        sizes.append(len(seeds))
        return raw_values(seeds, start, count)

    monkeypatch.setattr(runtime, "_raw_values", recorded)
    assert_pairs_match_oracle(100, 50, runtime._trial_seeds(16, 1300).tolist())
    assert sizes == [78] * 16 + [52]


def test_pair_lanes_edge_inputs():
    for n in (16, 65):
        values = runtime._exact_class_values(np.zeros(0, dtype=np.uint64), n, 3)
        assert values.shape == (0, 3, (n + 63) // 64) and values.dtype == np.uint64
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
    assert_pairs_match_oracle(1, 1, seeds)
    for n in (16, 65):  # gap = n flips every bit
        assert_pairs_match_oracle(n, n, seeds)
        values = runtime._exact_class_values(np.array(seeds, dtype=np.uint64), n, n)
        assert all(bits._limb_value(x) ^ bits._limb_value(y) == (1 << n) - 1 for _, x, y in values)
    for n, gap in ((8, 0), (8, 9), (8, -1)):
        with pytest.raises(ValueError, match=rf"^gap must satisfy 1 <= gap <= n, got {gap}$"):
            runtime._exact_class_values(np.array([1], dtype=np.uint64), n, gap)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BitString(4, 5).bit(4), IndexError, "position 4 out of range"),
        (lambda: BitString(4, 5).flip([1, -1]), IndexError, "position -1 out of range"),
        (
            lambda: GhdInstance(8, 1, 4, BitString(8, 0), BitString(7, 0)),
            ValueError,
            "input length 7 does not match n = 8",
        ),
    ],
    ids=["bit", "flip", "instance-length"],
)
def test_out_of_range_arguments_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
