import hashlib
import logging
import math
import random
import re
import tracemalloc
from collections import OrderedDict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ghd import covering, runtime
from ghd.runtime import ContractViolationError
from ghd.bits import BitString, _limb_matrix, ball_volume, random_pair_at_distance
from ghd.covering import (
    _SLOT_TABLE_ENTRIES,
    GREEDY_MAX_N,
    _ball_overlaps,
    CodeConstructionError,
    CoveringCode,
    audit_covering,
    det_complexity_bounds,
    det_protocol,
    det_protocol_params,
    greedy_covering_code,
    load_code,
    popcount_table,
    random_covering_code,
    save_code,
)


def oracle_covered(code: CoveringCode, word: int) -> bool:
    return any((word ^ c).bit_count() <= code.radius for c in code.codewords)


def loop_audit(code: CoveringCode) -> bool:
    """Reference audit: one full-cube distance pass per codeword."""
    table = popcount_table(code.n)
    words = np.arange(1 << code.n, dtype=np.int64)
    covered = np.zeros(1 << code.n, dtype=bool)
    for c in code.codewords:
        covered |= table[words ^ c] <= code.radius
    return bool(covered.all())


def loop_decode_table(code: CoveringCode) -> np.ndarray:
    """Reference decode table: one full-cube pass per codeword, strict improvement."""
    table = popcount_table(code.n)
    words = np.arange(1 << code.n, dtype=np.int64)
    best_dist = np.full(1 << code.n, np.iinfo(np.uint8).max, dtype=np.uint8)
    best_idx = np.zeros(1 << code.n, dtype=np.int64)
    for i, c in enumerate(code.codewords):
        dist = table[words ^ c]
        better = dist < best_dist  # strict: ties stay with the lowest index
        best_dist[better] = dist[better]
        best_idx[better] = i
    return best_idx


def scan_nearest_index(code: CoveringCode, word: int) -> int:
    """Reference decode: scan the codewords, keeping the first strict minimum."""
    best_i = 0
    best_d = (code.codewords[0] ^ word).bit_count()
    for i in range(1, code.size):
        d = (code.codewords[i] ^ word).bit_count()
        if d < best_d:
            best_i, best_d = i, d
    return best_i


def loop_greedy(n: int, radius: int) -> tuple[int, ...]:
    """Reference greedy: after each pick, one full-cube bincount of gain drops."""
    size = 1 << n
    if radius == 0:
        return tuple(range(size))
    table = popcount_table(n)
    offsets = np.flatnonzero(table <= radius).astype(np.int64)
    gain = np.full(size, len(offsets), dtype=np.int64)
    uncovered = np.ones(size, dtype=bool)
    remaining = size
    codewords = []
    chunk_rows = max(1, 8_000_000 // len(offsets))
    while remaining:
        pick = int(np.argmax(gain))
        codewords.append(pick)
        ball = pick ^ offsets
        newly = ball[uncovered[ball]]
        uncovered[newly] = False
        remaining -= len(newly)
        if remaining == 0:
            break
        for start in range(0, len(newly), chunk_rows):
            chunk = newly[start : start + chunk_rows]
            indices = (chunk[:, None] ^ offsets[None, :]).ravel()
            gain -= np.bincount(indices, minlength=size)
    return tuple(codewords)


def assert_kernels_match_loops(code: CoveringCode) -> bool:
    covered = loop_audit(code)
    assert audit_covering(code) == covered
    assert np.array_equal(code._decode_table, loop_decode_table(code))
    return covered


# ------------------------------------------------------------ construction


def test_radius_n_single_codeword():
    code = greedy_covering_code(6, 6)
    assert code.size == 1
    assert audit_covering(code)


def test_radius_zero_is_whole_cube():
    code = greedy_covering_code(4, 0)
    assert code.size == 16
    assert code.codewords == tuple(range(16))
    assert audit_covering(code)


def test_greedy_7_1_example():
    code = greedy_covering_code(7, 1)
    assert 16 <= code.size <= 93  # volume bound below, greedy guarantee above
    assert code.size * ball_volume(7, 1) >= 2**7
    assert all(oracle_covered(code, z) for z in range(2**7))


def test_greedy_rejects_oversized_n():
    with pytest.raises(ValueError):
        greedy_covering_code(23, 1)


def test_greedy_bounds_full_sweep_small():
    for n in range(1, 11):
        for r in range(n + 1):
            code = greedy_covering_code(n, r)
            assert audit_covering(code)
            assert code.size * ball_volume(n, r) >= 2**n
            assert code.size <= (0.694 * n + 1.0) * (1 << n) / ball_volume(n, r)


@pytest.mark.parametrize("n, r", [(14, 5), (17, 3)])
def test_greedy_matches_loop_mid(n, r):
    # (14, 5): V2(14, 5)**2 exceeds the slot-table budget, so slot rows are computed per block
    assert greedy_covering_code(n, r).codewords == loop_greedy_cached(n, r)


@pytest.mark.parametrize("n", range(2, GREEDY_MAX_N + 1))
def test_greedy_radius_n_minus_1_is_two_words_without_set_up(n):
    # word 0's ball misses only the all-ones word, which every other ball
    # holds, so word 1 is next; the set-up took 232 MB of peak at n = 22
    tracemalloc.start()
    try:
        code = greedy_covering_code(n, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.codewords == (0, 1)
    assert peak < 1 << 20
    if n <= 12:
        assert code.codewords == loop_greedy(n, n - 1)


# _DIRECT_NS weights that send every gain update to one rule
GAIN_RULES = {"direct": 0.0, "slot": math.inf}


def greedy_updates(caplog) -> dict[str, int]:
    """The update counts of the last greedy build's DEBUG line."""
    message = [r.getMessage() for r in caplog.records if r.getMessage().startswith("built the greedy")][-1]
    counts = re.search(r"(\d+) direct, (\d+) counted, (\d+) reused", message).groups()
    return dict(zip(("direct", "counted", "reused"), map(int, counts)))


@lru_cache(maxsize=None)
def loop_greedy_cached(n: int, radius: int) -> tuple[int, ...]:
    return loop_greedy(n, radius)


@pytest.mark.parametrize("rule", GAIN_RULES)
@pytest.mark.parametrize("n, r", [(12, 2), (13, 7), (14, 5), (17, 3)])
def test_each_gain_rule_alone_matches_the_loop(monkeypatch, caplog, rule, n, r):
    # (13, 7): the 2r-ball is the whole cube; (14, 5): slot rows computed per block
    monkeypatch.setattr(covering, "_DIRECT_NS", GAIN_RULES[rule])
    caplog.set_level(logging.DEBUG, logger="ghd.covering")
    code = greedy_covering_code(n, r)
    assert code.codewords == loop_greedy_cached(n, r)
    updates = greedy_updates(caplog)
    assert sum(updates.values()) == code.size - 1
    assert (updates["direct"] == code.size - 1) if rule == "direct" else (updates["direct"] == 0)


@pytest.mark.parametrize("rule", GAIN_RULES)
def test_each_gain_rule_alone_keeps_the_18_3_pin(tmp_path, monkeypatch, rule):
    monkeypatch.setattr(covering, "_DIRECT_NS", GAIN_RULES[rule])
    path = tmp_path / "code.txt"
    save_code(greedy_covering_code(18, 3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CODE_DIGESTS[18, 3]


def test_greedy_build_logs_its_updates_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="ghd.covering")
    code = greedy_covering_code(16, 2)
    [message] = [r.getMessage() for r in caplog.records]
    assert re.fullmatch(
        r"built the greedy \(16, 2\) code: 1024 words; \d+ direct, \d+ counted, \d+ reused updates in \d+\.\d{3} s",
        message,
    )
    updates = greedy_updates(caplog)
    assert sum(updates.values()) == code.size - 1  # the last pick updates nothing
    assert min(updates.values()) > 0  # (16, 2) takes each rule
    assert logging.getLogger("ghd.covering").handlers == []


def test_greedy_is_deterministic():
    assert greedy_covering_code(9, 2).codewords == greedy_covering_code(9, 2).codewords


def test_kernels_match_loops_on_greedy_codes():
    # slot rows stored and computed, and a 2r-ball that is the whole cube where 2r >= n
    for n in range(1, 13):
        for r in range(n + 1):
            code = greedy_covering_code(n, r)
            assert code.codewords == loop_greedy(n, r), (n, r)
            assert assert_kernels_match_loops(code)


def test_kernels_match_loops_on_greedy_16_2(tmp_path):
    code = greedy_covering_code(16, 2)
    assert code.codewords == loop_greedy(16, 2)
    assert assert_kernels_match_loops(code)
    path = tmp_path / "code.txt"
    save_code(code, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "5c00bb79bb2df1b30114b896a8fbb34e8b69b09f249ea8a2d555f340835f7b32"


# sha256 of the save_code files, taken from the subtract-only greedy that
# loop_greedy mirrors.  (18, 3) .. (21, 3) store their slot table and reuse
# drops, and (21, 3) is the first whose slots need 32 bits.  The others
# exceed the slot-table budget and compute slot rows per block; the 2r-ball
# of (14, 9..13) is the whole cube.
PINNED_CODE_DIGESTS = {
    (18, 3): "70531f6909ee14aff53b092621336b88471da592214e16fa8c78aca0d7893efa",
    (19, 3): "d054e2306463ca1312a025c1d3062541321fb1747289100645059369a15ddaa0",
    (20, 3): "8287ebd49e86da204fd773e7482192ab08b9c4a3825c3bb0513318f7b4778687",
    (21, 3): "c0c33dd8e27b5cd06e91b83bfc3ff4c82bb6a1b4794651e341f5a3cfc625b4e9",
    (14, 9): "3f774e451a7679eaaab22655f21a11733548c4ec9db7a0ab46decf319f6fd573",
    (14, 10): "9f6d3fea804802e367dff657906da822167b9bf05e3d0fd4c2eed824f9c673eb",
    (14, 11): "4edffe035f86f824e78e9bd4ec43e9bc6e221214b04260db7bf04ec008b2f9d7",
    (14, 12): "a9388d0ecf44bee7ed5be55f8898d59d1a8ec402b700a3d74a4ad19c3d200851",
    (14, 13): "31813b205165a7ad415d538e1dba744353497434d038e42d08167e0766e918f0",
    (15, 6): "d6a896b1a3400febe5f04379587c6bbaff5ca85be24a921c12d6ec096c0c83d1",
    (16, 5): "1d8911a4d43725b681d0f4f705ed461e091d91b59fa12ea71ef32b6db4a94f30",
    (16, 7): "ee201518d1e5b0931a10f8d7c0952982a0b9fc2e37ea1b2c7653cf37397cc3f9",
    (17, 7): "41c04198d7889d2732584b0dc717a33b8f3adc13bd6ca811eb9af389e9c7f93b",
    (20, 4): "36826857ac13244b3bb6a069d2b3169007589ba6d13f5c448db7c503e0c43ea1",
}


@pytest.mark.parametrize("n, r", list(PINNED_CODE_DIGESTS))
def test_greedy_code_files_are_pinned(tmp_path, n, r):
    path = tmp_path / "code.txt"
    save_code(greedy_covering_code(n, r), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CODE_DIGESTS[n, r]


def test_greedy_gains_fit_their_dtype():
    # gains start at V2(n, r) and only fall: int16 when that fits, else int32
    for n in range(1, GREEDY_MAX_N + 1):
        for r in range(n + 1):
            volume = ball_volume(n, r)
            gain = np.int16 if volume < 1 << 15 else np.int32
            assert volume <= np.iinfo(gain).max, (n, r)
            if volume * volume <= _SLOT_TABLE_ENTRIES:
                assert gain == np.int16, (n, r)  # every stored slot table


def test_greedy_slots_fit_their_dtype():
    # slots of the 2r-ball (the whole cube once 2r >= n) in the narrowest dtype that fits them
    widths = {}
    for n in range(1, GREEDY_MAX_N + 1):
        for r in range(n + 1):
            top = ball_volume(n, min(2 * r, n)) - 1
            slot = np.min_scalar_type(top)
            assert slot.kind == "u" and np.iinfo(slot).max >= top, (n, r)
            widths[n, r] = slot.itemsize
    assert (widths[18, 3], widths[19, 3], widths[20, 3]) == (2, 2, 2)
    assert (widths[21, 3], widths[22, 3], widths[18, 4], widths[22, 22]) == (4, 4, 4, 4)
    assert max(widths.values()) == 4


def test_greedy_local_path_working_set_is_bounded():
    # the slot table is the only volume x volume array; its set-up and the
    # drop counts run in row blocks.  A whole-table int64 XOR and the intp
    # casts of whole-table bincounts took this peak to 14 MB.
    greedy_covering_code(18, 3)
    tracemalloc.start()
    try:
        greedy_covering_code(18, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000


@pytest.mark.parametrize("n, r", [(15, 6), (18, 4)])
def test_greedy_working_set_is_bounded_beyond_the_slot_table_budget(n, r):
    # V2(n, r)**2 exceeds the slot-table budget, so slot rows are computed
    # per block.  Whole-cube bincounts of 8M-entry index chunks took these
    # peaks to 123 and 125 MiB.
    greedy_covering_code(n, r)
    tracemalloc.start()
    try:
        greedy_covering_code(n, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 << 20


def test_ball_overlaps_match_brute_force():
    # |B(0, r) & B(s, r)| for every word s of the cube, by its weight
    for n in range(1, 11):
        table = popcount_table(n)
        words = np.arange(1 << n)
        distance = table[words[:, None] ^ words]  # row s: |s ^ a| for every a
        for r in range(n + 1):
            both = ((distance <= r) & (table <= r)).sum(axis=1)
            np.testing.assert_array_equal(_ball_overlaps(n, r)[table], both, err_msg=f"{(n, r)}")


def test_popcount_table_is_read_only():
    # the lru_cached table is shared by every later _ball_offsets and greedy build
    with pytest.raises(ValueError):
        popcount_table(4)[1] = 9
    assert greedy_covering_code(4, 1).codewords == (0, 7, 8, 15)


@pytest.mark.parametrize("n", range(21))
def test_popcount_table_matches_bitwise_count(n):
    table = popcount_table(n)
    assert table.dtype == np.uint8
    np.testing.assert_array_equal(table, np.bitwise_count(np.arange(1 << n, dtype=np.int64)))


@pytest.mark.parametrize("radius, dtype", [(2, np.uint16), (0, np.uint32)])
def test_decode_tables_are_narrow_and_decode_as_the_loop(radius, dtype):
    # the table holds every index and the unset sentinel, size itself
    code = greedy_covering_code(16, radius)
    assert code._decode_table.dtype == dtype
    # the (16, 0) code is every word in order, so each word decodes to itself
    reference = np.arange(1 << 16) if radius == 0 else loop_decode_table(code)
    np.testing.assert_array_equal(code._decode_table, reference)
    words = [0, 1, 0xBEEF, 0xFFFF]
    indices = code.nearest_indices(words)
    assert indices.dtype == np.int64
    assert indices.tolist() == [code.nearest_index(w) for w in words] == [scan_nearest_index(code, w) for w in words]


def test_kernels_match_loops_on_random_codes():
    # duplicates, unsorted words and uncovered gaps, at every radius
    rng = random.Random(14)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        r = rng.randint(0, n)
        size = rng.randint(1, min(64, 1 << n))
        code = CoveringCode(n, r, tuple(rng.getrandbits(n) for _ in range(size)))
        outcomes.add(assert_kernels_match_loops(code))
    assert outcomes == {True, False}


def test_random_code_small_and_mid():
    code = random_covering_code(14, 7, confidence=0.99, seed=1)
    assert audit_covering(code, sample_points=20_000)
    code = random_covering_code(30, 10, confidence=0.99, seed=2)
    assert audit_covering(code, sample_points=20_000, seed=3)


def test_random_code_radius_n_single_word():
    assert random_covering_code(12, 12, seed=4).size == 1


def test_random_code_rejects_radius_zero():
    with pytest.raises(ValueError):
        random_covering_code(10, 0)


def test_random_code_infeasible_radius_raises():
    with pytest.raises(CodeConstructionError):
        random_covering_code(120, 1, seed=5)


# Codewords and default audit verdicts of random codes: the construction
# stops once every point the default audit checks is covered, so the audit
# accepts every code, at n = 70 and 100 beyond one 64-bit limb too.
RANDOM_CODE_CASES = [(14, 7), (30, 10), (24, 8), (40, 14), (70, 28), (100, 42), (17, 5)]
RANDOM_CODE_VERDICTS = [True, True, True, True, True, True, True]
RANDOM_CODE_DIGEST = "71d5100f8289da19441602c8fac465ac7c0935bc81d244878f018af15fe45ae9"


def test_random_codes_and_audit_verdicts_are_pinned():
    digest = hashlib.sha256()
    verdicts = []
    for n, r in RANDOM_CODE_CASES:
        code = random_covering_code(n, r)
        verdicts.append(audit_covering(code))
        digest.update(f"{n} {r} {verdicts[-1]} {','.join(map(str, code.codewords))}\n".encode())
    assert verdicts == RANDOM_CODE_VERDICTS
    assert digest.hexdigest() == RANDOM_CODE_DIGEST


# sha256 of the codewords at n <= 20, taken while the stop rule still
# checked every word by popcount; the ball bitmap must stop at the same batch.
RANDOM_BITMAP_DIGESTS = {
    (19, 5): "f59297a3f6d50f721e4ccf6cb8c48ad1fa9a1e9536bb971506b84f84c49227ed",
    (20, 4): "dbe1e5031284d470a33351c2b8aa08cc565d14d47673adb7dccde032114f30e5",
}


@pytest.mark.parametrize("n, r", list(RANDOM_BITMAP_DIGESTS))
def test_random_codes_by_ball_bitmap_are_pinned(n, r):
    code = random_covering_code(n, r)
    digest = hashlib.sha256(",".join(map(str, code.codewords)).encode()).hexdigest()
    assert digest == RANDOM_BITMAP_DIGESTS[n, r]
    assert audit_covering(code)


def test_random_codes_reload(tmp_path):
    # load_code runs the default audit, which the construction stops on
    for n, r in RANDOM_CODE_CASES:
        code = random_covering_code(n, r)
        path = tmp_path / f"code_{n}_{r}.txt"
        save_code(code, path)
        assert load_code(path) == code


@pytest.mark.parametrize("n", [25, 40, 64, 65, 130])
def test_sampled_audit_matches_a_per_probe_oracle(n):
    # both verdicts at each width, against the probes the audit draws: a
    # False verdict names a probe that no codeword covers
    verdicts = set()
    spread = math.isqrt(n)
    for seed, radius in enumerate(range(n // 2 - spread, n // 2 + spread + 1, max(1, spread // 2))):
        rng = random.Random(1000 * n + seed)
        code = CoveringCode(n, radius, tuple(rng.getrandbits(n) for _ in range(20)))
        probes = random.Random(seed)
        expected = all(oracle_covered(code, probes.getrandbits(n)) for _ in range(300))
        assert audit_covering(code, sample_points=300, seed=seed) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def ball_marking_audit(code: CoveringCode) -> bool:
    """Reference audit: mark the radius-r ball around each codeword in a bool cube."""
    covered = np.zeros(1 << code.n, dtype=bool)
    offsets = covering._ball_offsets(code.n, code.radius)
    for c in code.codewords:
        covered[c ^ offsets] = True
    return bool(covered.all())


@lru_cache(maxsize=None)
def _greedy_words(n, radius):
    return greedy_covering_code(n, radius).codewords


@st.composite
def audited_codes(draw):
    """A greedy code or random words at n = 1..12, and optionally a hole:
    a word whose radius-r ball is cleared of codewords."""
    n = draw(st.integers(1, 12))
    radius = draw(st.integers(0, n))
    if draw(st.booleans()):
        words = list(_greedy_words(n, radius))
    else:
        words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    hole = draw(st.none() | st.integers(0, (1 << n) - 1))
    if hole is not None:
        words = [w for w in words if (w ^ hole).bit_count() > radius]
        assume(words)
    return CoveringCode(n, radius, tuple(words)), hole


@settings(max_examples=300, deadline=None)
@given(audited_codes())
def test_dilation_audit_equals_ball_marking(case):
    # n = 1..5 keep the cube in the low bits of one bitmap entry, 6 fills it
    code, hole = case
    expected = ball_marking_audit(code)
    assert audit_covering(code) == expected
    if hole is not None:
        assert not expected
    elif code.codewords == _greedy_words(code.n, code.radius):
        assert expected


def test_load_rejects_a_code_that_the_old_probes_pass_at_n21(tmp_path):
    # an exact (21, 4) code less one codeword leaves one word uncovered, and
    # none of the 100,000 probes the sampled audit checked up to n = 24 finds it
    exact = random_covering_code(21, 4)
    assert audit_covering(exact)
    dropped = exact.codewords[4491]
    holed = CoveringCode(21, 4, exact.codewords[:4491] + exact.codewords[4492:])
    assert covering._within(covering._audit_points(21), holed._limbs, 4).all()
    ball = [dropped ^ int(offset) for offset in covering._ball_offsets(21, 4)]
    uncovered = [w for w, hit in zip(ball, covering._within(_limb_matrix(ball, 21), holed._limbs, 4)) if not hit]
    assert len(uncovered) == 1 and not oracle_covered(holed, uncovered[0])
    path = tmp_path / "holed.txt"
    save_code(holed, path)
    with pytest.raises(CodeConstructionError, match="fails its covering audit"):
        load_code(path)
    assert covering._parse_code(path, path.read_bytes()) == holed


# ------------------------------------------------------------ decoding


def test_nearest_index_identity_cases():
    code = greedy_covering_code(7, 1)
    for c in code.codewords[:5]:
        word = code.codewords[code.nearest_index(c)]
        assert word == c and (word ^ c).bit_count() == 0
    zero_radius = greedy_covering_code(5, 0)
    for v in range(32):
        word = zero_radius.codewords[zero_radius.nearest_index(v)]
        assert word == v and (word ^ v).bit_count() == 0


def test_nearest_index_within_radius_randomized():
    code = greedy_covering_code(7, 1)
    rng = random.Random(6)
    for _ in range(500):
        x = rng.getrandbits(7)
        assert (code.codewords[code.nearest_index(x)] ^ x).bit_count() <= 1


def test_nearest_index_tie_breaks_to_lowest():
    code = CoveringCode(3, 1, (0b000, 0b011, 0b101, 0b110))
    # 0b111 is at distance 2 from 000 and 1 from each of the others
    assert code.nearest_index(0b111) == 1


def test_permuted_radius_zero_code_decodes_each_word_to_itself():
    code = CoveringCode(2, 0, (3, 2, 1, 0))
    assert audit_covering(code)
    assert [code.nearest_index(v) for v in range(4)] == [3, 2, 1, 0]


def test_decode_table_matches_linear_scan():
    code = greedy_covering_code(8, 2)
    # force the linear path via a copy too large for a table? n=8 has one;
    # compare against a straightforward scan instead
    for v in range(256):
        best = min(range(code.size), key=lambda i: ((code.codewords[i] ^ v).bit_count(), i))
        assert code.nearest_index(v) == best


def test_vector_decode_matches_cube_reference_on_every_word_17_3():
    code = greedy_covering_code(17, 3)
    # loop_decode_table is the scan run over the whole cube at once
    reference = loop_decode_table(code)
    decoded = np.array([code.nearest_index(w) for w in range(1 << 17)])
    assert code._decode_table is None  # one word never pays for a table: the vector path
    np.testing.assert_array_equal(decoded, reference)
    # the whole cube in one batch does, and the table decodes the same
    np.testing.assert_array_equal(code.nearest_indices(range(1 << 17)), reference)
    np.testing.assert_array_equal(code._decode_table, reference)
    rng = random.Random(17)
    for w in rng.sample(range(1 << 17), 300):
        assert reference[w] == scan_nearest_index(code, w)


@pytest.mark.parametrize("n", [18, 19])
def test_vector_decode_matches_scan_on_random_words(n):
    code = greedy_covering_code(n, 3)
    rng = random.Random(n)
    for _ in range(3000):
        w = rng.getrandbits(n)
        assert code.nearest_index(w) == scan_nearest_index(code, w)


def test_vector_decode_matches_scan_on_a_permuted_code():
    words = list(greedy_covering_code(18, 3).codewords)
    random.Random(5).shuffle(words)
    code = CoveringCode(18, 3, tuple(words))
    rng = random.Random(6)
    for _ in range(1000):
        w = rng.getrandbits(18)
        assert code.nearest_index(w) == scan_nearest_index(code, w)


def test_vector_decode_beyond_one_limb():
    rng = random.Random(70)
    single = CoveringCode(70, 70, (rng.getrandbits(70),))
    assert single._limbs.shape == (1, 2)
    assert all(single.nearest_index(rng.getrandbits(70)) == 0 for _ in range(50))
    sampled = CoveringCode(70, 20, tuple(rng.getrandbits(70) for _ in range(300)))
    for i in range(1000):
        if i % 2:  # a few flips from a codeword, so the minimum is often unique
            w = sampled.codewords[rng.randrange(300)]
            for _ in range(rng.randrange(6)):
                w ^= 1 << rng.randrange(70)
        else:
            w = rng.getrandbits(70)
        assert sampled.nearest_index(w) == scan_nearest_index(sampled, w)


@pytest.mark.parametrize("n", [17, 64, 70, 130])
def test_vector_decode_ties_go_to_the_lowest_index(n):
    center = (1 << (n - 1)) | 1
    far = center ^ 0b1110  # distance 3
    # four codewords at distance 2, flipping bits in the top and bottom limbs
    near = [center ^ (1 << a) ^ (1 << b) for a, b in ((1, n - 2), (2, n - 3), (n - 1, 0), (4, 5))]
    code = CoveringCode(n, 2, (far, near[0], far, *near[1:], near[0]))
    assert code.nearest_index(center) == 1 == scan_nearest_index(code, center)
    code = CoveringCode(n, 2, (far, *reversed(near)))
    assert code.nearest_index(center) == 1 == scan_nearest_index(code, center)


@given(
    n=st.integers(17, 140),
    seed=st.integers(0, 2**32),
    size=st.integers(1, 40),
)
def test_vector_decode_matches_scan_property(n, seed, size):
    rng = random.Random(seed)
    # few distinct bits, so ties are common
    pool = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(6)]
    code = CoveringCode(n, 1, tuple(rng.choice(pool) for _ in range(size)))
    for _ in range(20):
        w = rng.choice(pool) ^ (1 << rng.randrange(n)) if rng.random() < 0.5 else rng.getrandbits(n)
        assert code.nearest_index(w) == scan_nearest_index(code, w)


# ------------------------------------------------------------ batch decode


def _flipped(rng: random.Random, n: int, word: int, most: int) -> int:
    for position in rng.sample(range(n), rng.randint(0, min(n, most))):
        word ^= 1 << position
    return word


def limbs(strings, n):
    """The words of ``strings`` as the limb matrix a ``pair_outputs`` hook reads."""
    return _limb_matrix([x.value for x in strings], n)


def assert_pair_outputs_match_runs(params, words, rng):
    """Batch decode and decisions against nearest_index and real runs."""
    code, n = params.code, params.n
    assert code.nearest_indices(words).tolist() == [code.nearest_index(w) for w in words]
    proto = det_protocol(params)
    # partners within a few flips of the decision radius, so both outputs occur
    xs = [BitString(n, w) for w in words]
    ys = [BitString(n, _flipped(rng, n, w, 2 * params.decision_radius + 2)) for w in words]
    expected = [proto.run(x, y, 0).output for x, y in zip(xs, ys)]
    outputs = proto.pair_outputs(n, limbs(xs, n), limbs(ys, n))
    assert outputs.dtype == np.int64 and outputs.tolist() == expected
    return expected


def test_pair_outputs_match_runs_on_every_word_of_small_greedy_codes():
    rng = random.Random(12)
    for n in range(1, 13):
        for gap in range(1, n + 1, 2):  # each radius (gap - 1) // 2 once
            params = det_protocol_params(n, gap)
            assert_pair_outputs_match_runs(params, range(1 << n), rng)


def test_pair_outputs_match_runs_on_the_table_path_16_2():
    params = det_protocol_params(16, 5)
    assert params.code._decode_table is not None
    rng = random.Random(16)
    expected = assert_pair_outputs_match_runs(params, [rng.getrandbits(16) for _ in range(3000)], rng)
    assert 0 < sum(expected) < len(expected)


def recorded_batches(monkeypatch) -> list:
    """The (rows, coordinates) of each batch decode that scans."""
    steps = []
    kernel = runtime._in_batches

    def in_batches(rows, coordinates, step_kernel):
        steps.append((len(rows), coordinates))
        return kernel(rows, coordinates, step_kernel)

    monkeypatch.setattr(covering, "_in_batches", in_batches)
    return steps


@pytest.mark.parametrize("n", [17, 18, 19])
def test_pair_outputs_match_runs_on_the_scan_path(n, monkeypatch):
    params = det_protocol_params(n, 7)
    code = params.code
    # up to n = 18, the largest batch that scans fewer pairs than a table has entries
    count = 2000 if n > covering._BATCH_TABLE_MAX_N else ((1 << n) - 1) // code.size
    steps = recorded_batches(monkeypatch)
    rng = random.Random(n)
    expected = assert_pair_outputs_match_runs(params, [rng.getrandbits(n) for _ in range(count)], rng)
    assert 0 < sum(expected) < len(expected)
    assert code._decode_table is None
    # the working set of one word is one XOR row against every codeword
    assert steps == [(count, code.size)] * 2
    assert runtime._BATCH_COORDINATES // code.size < count


@pytest.mark.parametrize("n", [17, 18])
def test_pair_outputs_match_runs_on_the_batch_table_path(n, monkeypatch):
    params = det_protocol_params(n, 7)
    code = params.code
    count = -(-(1 << n) // code.size)  # the smallest batch that pays for a table
    steps = recorded_batches(monkeypatch)
    rng = random.Random(n)
    words = [rng.getrandbits(n) for _ in range(count)]
    code.nearest_indices(words[1:])
    assert code._decode_table is None and steps == [(count - 1, code.size)]
    expected = assert_pair_outputs_match_runs(params, words, rng)
    assert 0 < sum(expected) < len(expected)
    assert len(steps) == 1  # the batch of count words built the table, and every later decode read it
    np.testing.assert_array_equal(code._decode_table, loop_decode_table(code))
    with pytest.raises(ValueError, match="read-only"):
        code._decode_table[0] = 1


@pytest.mark.parametrize("n", [70, 130])
def test_pair_outputs_match_runs_beyond_one_limb(n):
    rng = random.Random(n)
    code = CoveringCode(n, 20, tuple(rng.getrandbits(n) for _ in range(300)))
    params = det_protocol_params(n, 41, code=code)
    # random words mostly lie beyond the radius of every codeword, so only
    # the decoders take them
    far = [rng.getrandbits(n) for _ in range(300)]
    assert code.nearest_indices(far).tolist() == [code.nearest_index(w) for w in far]
    # the protocol's inputs lie within the radius of a codeword, as it requires
    words = [_flipped(rng, n, rng.choice(code.codewords), 20) for _ in range(600)]
    expected = assert_pair_outputs_match_runs(params, words, rng)
    assert 0 < sum(expected) < len(expected)


@pytest.mark.parametrize("n", [17, 70])
def test_batch_decode_ties_go_to_the_lowest_index(n):
    center = (1 << (n - 1)) | 1
    far = center ^ 0b1110  # distance 3
    near = [center ^ (1 << a) ^ (1 << b) for a, b in ((1, n - 2), (2, n - 3), (n - 1, 0), (4, 5))]
    for codewords in ((far, near[0], far, *near[1:], near[0]), (far, *reversed(near))):
        code = CoveringCode(n, 2, codewords)
        assert code.nearest_indices([center, center, far]).tolist() == [1, 1, 0]
        params = det_protocol_params(n, 5, code=code)
        assert_pair_outputs_match_runs(params, [center, far, near[2]], random.Random(n))


def test_batch_decode_of_a_permuted_radius_zero_code():
    code = CoveringCode(2, 0, (3, 2, 1, 0))
    assert code.nearest_indices(range(4)).tolist() == [3, 2, 1, 0]
    proto = det_protocol(det_protocol_params(2, 1, code=code))
    xs = [BitString(2, v) for v in range(4) for _ in range(4)]
    ys = [BitString(2, v) for _ in range(4) for v in range(4)]
    outputs = proto.pair_outputs(2, limbs(xs, 2), limbs(ys, 2)).tolist()
    assert outputs == [proto.run(x, y, 0).output for x, y in zip(xs, ys)]
    assert outputs == [int(x != y) for x, y in zip(xs, ys)]


def test_det_protocol_refuses_a_word_its_code_does_not_cover():
    # every 3-bit word but 110 lies within 1 of 000, 011 or 101; 110 lies at
    # 2 from each, so Bob would answer 1 to x = y = 110
    code = CoveringCode(3, 1, (0b000, 0b011, 0b101))
    assert [w for w in range(8) if not oracle_covered(code, w)] == [0b110]
    proto = det_protocol(det_protocol_params(3, 3, code=code))
    fault = "word 110 lies at distance 2 from its nearest codeword, beyond the code's radius 1"
    with pytest.raises(ContractViolationError, match=fault):
        proto.run(BitString(3, 0b110), BitString(3, 0b110), 0)
    with pytest.raises(ContractViolationError, match=fault):
        proto.pair_outputs(3, _limb_matrix(range(8), 3), _limb_matrix(range(8), 3))
    covered = [w for w in range(8) if w != 0b110]
    assert [proto.run(BitString(3, w), BitString(3, w), 0).output for w in covered] == [0] * 7
    assert proto.pair_outputs(3, _limb_matrix(covered, 3), _limb_matrix(covered, 3)).tolist() == [0] * 7


@pytest.mark.parametrize("n", [12, 17, 70])
def test_batch_decode_rejects_words_wider_than_n(n):
    code = CoveringCode(n, 1, (0, 1))
    assert code.nearest_indices([]).tolist() == []
    with pytest.raises(ValueError, match=f"word does not fit in {n} bits"):
        code.nearest_indices([3, 1 << n])


@pytest.mark.parametrize("n", [12, 70])
def test_batch_decode_reads_a_one_shot_iterable_once(n):
    rng = random.Random(n)
    code = CoveringCode(n, 3, tuple(rng.getrandbits(n) for _ in range(30)))
    words = [rng.getrandbits(n) for _ in range(40)]
    expected = code.nearest_indices(words).tolist()
    assert expected == [code.nearest_index(w) for w in words]
    assert code.nearest_indices(w for w in words).tolist() == expected
    assert code.nearest_indices(iter(words)).tolist() == expected


# ------------------------------------------------------------ the protocol


def test_det_protocol_diagonal_and_far_examples():
    params = det_protocol_params(10, 4)
    x, _ = random_pair_at_distance(10, 0, seed=7)
    outcome = det_protocol(params).run(x, x, 0)
    assert outcome.output == 0
    assert outcome.ledger.total_bits == params.cost_bits
    far_x, far_y = random_pair_at_distance(10, 4, seed=8)
    assert det_protocol(params).run(far_x, far_y, 0).output == 1


def test_det_protocol_zero_error_randomized():
    params = det_protocol_params(12, 5)
    rng = random.Random(9)
    for _ in range(300):
        x = BitString.random(12, rng)
        assert det_protocol(params).run(x, x, 0).output == 0
        d = rng.randint(5, 12)
        a, b = random_pair_at_distance(12, d, rng.getrandbits(62))
        assert det_protocol(params).run(a, b, 0).output == 1


def test_det_protocol_zero_error_broad_sweep():
    # whole diagonal exhaustively, plus sampled pairs at every far distance
    rng = random.Random(13)
    for n in (6, 9, 12):
        for gap in (2, n // 2, n):
            params = det_protocol_params(n, gap)
            proto = det_protocol(params)
            for value in range(1 << n):
                x = BitString(n, value)
                assert proto.run(x, x, 0).output == 0
            for d in range(gap, n + 1):
                for _ in range(200):
                    a, b = random_pair_at_distance(n, d, rng.getrandbits(62))
                    assert proto.run(a, b, 0).output == 1


def test_det_params_validation():
    with pytest.raises(ValueError):
        det_protocol_params(10, 0)
    with pytest.raises(ValueError):
        det_protocol_params(10, 11)
    code = greedy_covering_code(10, 2)
    with pytest.raises(ValueError):
        det_protocol_params(10, 4, code=code)  # radius 2 != required 1


@pytest.mark.parametrize("n, gap", [(10, 0), (20, 21)])
def test_det_params_refuse_a_bad_gap_before_building_a_code(monkeypatch, n, gap):
    monkeypatch.setattr(covering, "greedy_covering_code", lambda n, radius: pytest.fail("built a code"))
    with pytest.raises(ValueError, match=rf"^gap must satisfy 1 <= gap <= n, got {gap}$"):
        det_protocol_params(n, gap)


def test_gap_equals_n_costs_two_bits():
    # a radius-floor((n-1)/2) code needs two codewords on an odd cube
    params = det_protocol_params(7, 7)
    assert params.code.size == 2
    assert params.cost_bits == 2
    x, _ = random_pair_at_distance(7, 0, seed=10)
    assert det_protocol(params).run(x, x, 0).output == 0
    a = BitString.from_text("1010101")
    assert det_protocol(params).run(a, a.complement(), 0).output == 1


# -------------------------------------------------------------- bounds


def test_bounds_examples():
    lower, upper = det_complexity_bounds(10, 4)
    assert abs(lower - (10 - math.log2(56))) < 1e-12
    assert upper == 10 - math.log2(11) + math.log2(10) + 2
    assert det_complexity_bounds(10, 1).lower == 10.0
    with pytest.raises(ValueError):
        det_complexity_bounds(10, 0)


@pytest.mark.parametrize("n, gap", [(0, 0), (0, 1), (-3, 2)])
def test_bounds_report_n_before_the_gap(n, gap):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        det_complexity_bounds(n, gap)


def test_bounds_hold_at_every_gap_up_to_n200():
    # 1,336 of these pairs, from (54, 54) on, raised when a ball volume of
    # 54 to 63 bits reached log2_exact's top-64-bit path
    for n in range(1, 201):
        for gap in range(1, n + 1):
            lower, upper = det_complexity_bounds(n, gap)
            assert 0.0 <= lower <= n and lower < upper, (n, gap)


def test_worst_case_cost_is_index_width_plus_answer():
    params = det_protocol_params(10, 4)
    pairs = [random_pair_at_distance(10, 0, seed=s) for s in range(10)]
    pairs += [random_pair_at_distance(10, d, seed=d) for d in range(4, 11)]
    protocol = det_protocol(params)
    cost = max(protocol.run(x, y, 0).ledger.total_bits for x, y in pairs)
    assert cost == params.code.index_width + 1 == params.cost_bits


def test_measured_cost_within_bounds_sweep():
    for n in range(1, 13):
        for gap in range(1, n + 1):
            params = det_protocol_params(n, gap)
            lower, upper = det_complexity_bounds(n, gap)
            x, _ = random_pair_at_distance(n, 0, seed=11)
            cost = det_protocol(params).run(x, x, 0).ledger.total_bits
            assert cost == params.cost_bits
            assert lower <= cost <= upper, (n, gap, cost, lower, upper)


# ---------------------------------------------------------- anticodes


def diameter(words):
    """Largest pairwise Hamming distance of a nonempty set of words."""
    return max((a ^ b).bit_count() for a in words for b in words)


def test_ball_diameter_and_anticode_saturation():
    # a radius-r ball has diameter <= 2r and exactly V2(n, r) points
    n, r = 9, 2
    ball = [z for z in range(2**n) if z.bit_count() <= r]
    assert len(ball) == ball_volume(n, r)
    assert diameter(ball) <= 2 * r


def test_anticode_bound_falsification_harness():
    # random sets: whenever diam <= 2r and n >= 2r+1, size <= V2(n, r), the
    # bound behind det_complexity_bounds' lower bound
    rng = random.Random(12)
    n = 8
    checked = 0
    for _ in range(3000):
        center = rng.getrandbits(n)
        radius = rng.randint(0, 3)
        count = rng.randint(1, 40)
        points = {center}
        for _ in range(count):
            offset = 0
            for pos in rng.sample(range(n), rng.randint(0, radius)):
                offset |= 1 << pos
            points.add(center ^ offset)
        r_eff = (diameter(points) + 1) // 2
        if n >= 2 * r_eff + 1:
            checked += 1
            assert len(points) <= ball_volume(n, r_eff)
    assert checked > 1000


# ---------------------------------------------------------- serialization


def test_code_file_round_trip(tmp_path):
    code = greedy_covering_code(10, 1)
    path = tmp_path / "code.txt"
    save_code(code, path)
    loaded = load_code(path)
    assert loaded == code
    header = path.read_text().splitlines()[0]
    assert header == f"10 1 {code.size}"


def test_load_rejects_corrupt_file(tmp_path):
    code = greedy_covering_code(6, 2)
    path = tmp_path / "code.txt"
    save_code(code, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop a codeword
    with pytest.raises(ValueError):
        load_code(path)


def test_loaded_permuted_radius_zero_code_is_zero_error(tmp_path):
    n = 6
    words = list(range(1 << n))
    random.Random(15).shuffle(words)
    path = tmp_path / "perm.txt"
    save_code(CoveringCode(n, 0, tuple(words)), path)
    proto = det_protocol(det_protocol_params(n, 1, code=load_code(path)))
    for value in range(1 << n):
        x = BitString(n, value)
        assert proto.run(x, x, 0).output == 0


@pytest.mark.parametrize(
    "text, line",
    [
        ("16 x 3\n0000\n0001\n0002\n", 1),
        ("4 1 3\n0\n\nzz\n3\n", 4),
        ("8 1 3\n0x0\n11\n0f\n", 2),  # non-canonical rows
        ("8 1 3\n00\n1_1\n0f\n", 3),
        ("8 1 3\n00\n11\n+f\n", 4),
        ("8 1 2\n00\nF0\n", 3),
        ("8 1 2\n00\n0\n", 3),
        ("6 1 2\n00\n7f\n", 3),  # wider than n bits
        ("4 5 1\n0\n", 1),  # radius out of range
        ("+8 0_1 1\n00\n", 1),  # non-canonical header numbers
        ("\u0668 1 1\n00\n", 1),  # Arabic-Indic eight
        (b"8 1 3\n\xff\n", 2),  # not UTF-8
    ],
)
def test_load_errors_name_file_and_line(tmp_path, text, line):
    path = tmp_path / "code.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=rf"code\.txt, line {line}:"):
        load_code(path)


def test_load_audits_covering(tmp_path):
    bad = CoveringCode(6, 1, (0,))
    path = tmp_path / "bad.txt"
    save_code(bad, path)
    with pytest.raises(CodeConstructionError):
        load_code(path)
    assert covering._parse_code(path, path.read_bytes()) == bad


@pytest.fixture
def audits(monkeypatch):
    """An empty load_code cache, and the list of codes audit_covering has checked since."""
    monkeypatch.setattr(covering, "_loaded_codes", OrderedDict())
    checked = []
    audit = covering.audit_covering

    def counted(code, *args, **kwargs):
        checked.append(code)
        return audit(code, *args, **kwargs)

    monkeypatch.setattr(covering, "audit_covering", counted)
    return checked


def test_unchanged_file_reuses_its_audited_code(tmp_path, audits):
    path = tmp_path / "code.txt"
    save_code(greedy_covering_code(10, 1), path)
    first = load_code(path)
    table = first._decode_table
    assert load_code(str(path)) is first  # the same resolved path
    assert load_code(tmp_path / "." / "code.txt") is first
    assert first._decode_table is table
    assert audits == [first]


def test_rewritten_file_is_parsed_and_audited_again(tmp_path, audits):
    path = tmp_path / "code.txt"
    good = greedy_covering_code(6, 1)
    save_code(good, path)
    first = load_code(path)
    save_code(CoveringCode(6, 1, good.codewords[:-1]), path)  # a hole where the last ball was
    for _ in range(2):
        with pytest.raises(CodeConstructionError):
            load_code(path)
    save_code(good, path)
    again = load_code(path)
    assert again == first and again is not first
    assert len(audits) == 4


def test_identical_bytes_at_a_new_path_are_audited_again(tmp_path, audits):
    path, copy = tmp_path / "code.txt", tmp_path / "copy.txt"
    save_code(greedy_covering_code(8, 1), path)
    copy.write_bytes(path.read_bytes())
    first = load_code(path)
    second = load_code(copy)
    assert second == first and second is not first
    assert audits == [first, second]


def test_failing_file_raises_every_time_and_is_never_kept(tmp_path, audits):
    path = tmp_path / "bad.txt"
    save_code(CoveringCode(6, 1, (0,)), path)
    for _ in range(3):
        with pytest.raises(CodeConstructionError):
            load_code(path)
    assert len(audits) == 3
    assert not covering._loaded_codes


def test_loading_more_files_than_the_bound_drops_the_least_recent(tmp_path, audits):
    paths = [tmp_path / f"code-{i}.txt" for i in range(covering._LOADED_CODES_MAX + 1)]
    for i, path in enumerate(paths):
        save_code(CoveringCode(4, 4, (i,)), path)
    codes = [load_code(path) for path in paths[:-1]]
    assert load_code(paths[0]) is codes[0]  # now the most recent
    load_code(paths[-1])
    assert len(covering._loaded_codes) == covering._LOADED_CODES_MAX
    assert load_code(paths[0]) is codes[0]
    assert load_code(paths[2]) is codes[2]
    assert load_code(paths[1]) is not codes[1]  # dropped: audited again
    assert len(audits) == len(paths) + 1


def test_load_code_logs_parse_or_reuse_at_debug(tmp_path, audits, caplog):
    path = tmp_path / "code.txt"
    save_code(greedy_covering_code(6, 1), path)
    caplog.set_level(logging.DEBUG, logger="ghd.covering")
    load_code(path)
    load_code(path)
    assert [r.getMessage() for r in caplog.records] == [
        f"parsed and audited {path}",
        f"reused the audited code of {path}",
    ]
    assert logging.getLogger("ghd.covering").handlers == []


@pytest.mark.parametrize("n, radius", [(12, 2), (17, 3), (70, 30)])
def test_shared_code_arrays_are_read_only(tmp_path, n, radius):
    path = tmp_path / "code.txt"
    save_code(greedy_covering_code(n, radius) if n <= 17 else random_covering_code(n, radius), path)
    code = load_code(path)
    with pytest.raises(ValueError, match="read-only"):
        code._limbs[0, 0] = 1
    if n <= 16:
        with pytest.raises(ValueError, match="read-only"):
            code._decode_table[0] = 1
        np.testing.assert_array_equal(code._decode_table, loop_decode_table(code))
    else:
        words = random.Random(n).sample(range(1 << 17), 50)
        assert code.nearest_indices(words).tolist() == [scan_nearest_index(code, w) for w in words]


@st.composite
def small_codes(draw):
    n = draw(st.integers(0, 12))
    radius = draw(st.integers(0, n))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    return CoveringCode(n, radius, tuple(words))


_FUZZ_TOKENS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="0123456789abcdefABCDEFx_+- ", max_size=6),
    st.integers(-3, 40).map(str),
)
_FIXTURE_PER_EXAMPLE = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(code=small_codes())
@_FIXTURE_PER_EXAMPLE
def test_save_load_round_trip_property(tmp_path, code):
    path = tmp_path / "code.txt"
    save_code(code, path)
    assert covering._parse_code(path, path.read_bytes()) == code


@given(code=small_codes(), data=st.data())
@_FIXTURE_PER_EXAMPLE
def test_load_mutated_file_loads_or_names_file_and_line(tmp_path, code, data):
    path = tmp_path / "code.txt"
    save_code(code, path)
    lines = path.read_text().splitlines()
    target = data.draw(st.integers(0, len(lines) + 1), label="target")
    token = data.draw(_FUZZ_TOKENS, label="token")
    if target <= 2:  # one header field
        fields = lines[0].split()
        fields[target] = token
        lines[0] = " ".join(fields)
    else:  # one row
        lines[target - 2] = token
    path.write_text("\n".join(lines) + "\n")
    try:
        covering._parse_code(path, path.read_bytes())
    except ValueError as exc:
        message = str(exc)
        assert str(path) in message
        if target > 2 and len(token.splitlines()) == 1 and token.strip():
            # the header and every other row are intact: the row is at fault
            assert f"line {target - 1}:" in message


def _load_empty(tmp_path):
    (tmp_path / "empty.txt").write_text("")
    return load_code(tmp_path / "empty.txt")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: CoveringCode(4, 5, (0,)), "radius must satisfy 0 <= r <= n, got r=5, n=4"),
        (lambda tmp: CoveringCode(4, 1, ()), "a code must contain at least one codeword"),
        (lambda tmp: CoveringCode(4, 1, (16,)), "codeword does not fit in n bits"),
        (lambda tmp: random_covering_code(10, 2, confidence=1.0), "confidence must be in (0, 1)"),
        (lambda tmp: covering.DetProtocolParams(8, 3, CoveringCode(7, 1, (0,))), "code length does not match n"),
        (_load_empty, "empty code file: {tmp}/empty.txt"),
    ],
    ids=["radius", "no-codewords", "wide-codeword", "confidence", "code-length", "empty-file"],
)
def test_invalid_codes_and_arguments_raise(tmp_path, call, message):
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert str(info.value) == message.format(tmp=tmp_path)
