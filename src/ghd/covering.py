"""Covering codes and the deterministic gap protocol built on them.

A covering code of radius r is a set of words such that every point of the
cube lies within Hamming distance r of some codeword.  The deterministic
protocol for the promise "x = y or distance >= gap" sends the index of the
codeword nearest to Alice's input (radius ``(gap - 1) // 2``); Bob answers 0
exactly when that codeword is within the same radius of his input.  The
triangle inequality makes this exact on the whole promise, at a total cost of
``index_width + 1`` bits.

Construction is greedy set cover over the full cube (n <= 22): repeatedly
pick the word whose ball covers the most still-uncovered points.  Every pick
covers at least a ``V2(n, r) / 2**n`` fraction of what remains, which yields
the size guarantee ``|C| <= (0.694 * n + 1) * 2**n / V2(n, r)``.  After a
pick newly covers k points, only words in its 2r-ball (the whole cube once
2r >= n) lose gain, and each pick updates the gains by the cheaper of two
exact rules, priced in element counts.  The direct rule takes one gain from
every word of each newly covered point's ball: k * V2(n, r) decrements, in
row blocks.  The slot rule scatters a drop into the V2(n, 2r) words of the
pick's 2r-ball.  The drop bincounts the slots in that ball of the XORs of
the newly covered offsets with all V2(n, r) offsets, or of the stale ones
subtracted from ``|B(0, r) & B(s, r)|`` (a closed form in |s|) when fewer:
O(min(k, V2(n, r) - k) * V2(n, r)) more work.  Greedy picks come in runs of
translates that newly cover the same slots of the ball, so a pick whose
mask repeats the last counted pick's reuses its drop, and a mask that
repeats the previous pick's is counted once for the rest of its run.  So
picks that cover few words go direct, and runs of translates share one
count.  The slot table is stored when 2r < n and its ``V2(n, r)**2``
entries fit an 8,000,000-entry budget, and computed a block of rows at a
time otherwise.  Blocks hold at least 2**16 entries and V2(n, 2r), the
counts a bincount sweeps.  Gains are int16 when ``V2(n, r) < 2**15`` and
int32 otherwise; slots are uint16 or uint32.  Each set-cover build logs
its update counts in one DEBUG line on ``ghd.covering``.  Radius n, n - 1
and 0 need no set-up: their codes are ``(0,)``, ``(0, 1)`` and every word
in order.  The argmax resumes from the last pick: gains only fall, and
every word below a pick held less than it, so the next pick is the first
word after the last one still at the old maximum.  Segments of growing
length are scanned for it, and a full O(2**n) argmax runs only once none is
left.  For larger n, :func:`random_covering_code` samples codewords until
every point the default :func:`audit_covering` checks is covered, so the
code passes that audit and reloads; its size is within the same envelope
with statistical confidence only.

:func:`audit_covering` is exhaustive for n <= 24.  It sets each codeword's
bit in a packed 2**n-bit cube bitmap (64 words to a uint64 entry, 2 MB at
n = 24) and dilates the bitmap r times by all n single-bit flips: a flip of
one of the low six bits of a word moves bits within each entry by a mask
and a shift, and a flip of a higher bit swaps blocks of entries.  That is
O(r * n * 2**n / 64) word operations, whatever the code's size.  Beyond
n = 24 the audit checks sampled points.  Sampled audits and
:func:`random_covering_code` beyond n = 24 share one coverage check that
works at any n: probes and codewords as 64-bit limb matrices, each codeword
marking the probes within radius by a popcount of the XOR.

A code of n <= 16 builds its nearest-codeword table on first use.  At
16 < n <= 18 the first batch whose scan would compare at least as many
word-codeword pairs as the table has entries (``words * size >= 2**n``)
builds it; smaller batches, and every n > 18, scan.  The table is filled
sphere by sphere: at distance d each codeword XORs the weight-d offsets, in
blocks of at most 2**16 entries, and a word still open takes the lowest
index that reaches it.  It holds indices in the narrowest unsigned dtype
that also fits the code's size, its fill sentinel: uint8 or uint16, and
uint32 only for the 2**16 words of (16, 0); building it logs one DEBUG line
on ``ghd.covering``.  :meth:`CoveringCode.nearest_indices` still returns
int64.  A scan takes popcounts of the XOR against the codewords, held as
64-bit limbs, then the first argmin: one row for one word, and slices of
bounded working set for a batch.  The deterministic protocol's
``pair_outputs(n, xs, ys)`` takes both parties' words as limb matrices,
decodes the x rows so and applies Bob's radius test to the whole batch.
Both decoders refuse a word wider than n bits, and the protocol refuses
inputs whose length is not n.  Alice, and ``pair_outputs`` on the whole
batch, raise ``ContractViolationError`` when her codeword lies beyond the
radius: the code leaves her word uncovered.

Cost bounds reported by :func:`det_complexity_bounds`:

* lower: ``n - log2(V2(n, floor(gap/2)))`` — counting argument, no protocol
  can do better;
* upper: ``n - log2(V2(n, floor((gap-1)/2))) + log2(n) + 2`` — the greedy
  construction's cost, since ``ceil(log2 |C|) + 1 <= log2 |C| + 2`` and
  ``log2(0.694 n + 1) <= log2 n`` for n >= 4 (checked empirically below
  that).

Code file format: a header line ``n radius size`` followed by one lowercase
hex codeword per line, zero-padded to ``ceil(n / 4)`` digits.
:func:`load_code` reads the file on every call, but keeps the audited codes
of the last ``_LOADED_CODES_MAX`` (8) files it read.  An unchanged file at the
same path gets the same :class:`CoveringCode` object back, with the limbs
and decode table it has already built; new bytes or a new path are parsed
and audited again.  A code's limbs and decode table are read-only arrays,
since every sweep in the process may share them.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence
import random

import numpy as np

from .bits import BitString, _check_gap, _check_lengths, _check_limb_pairs, _check_radius, _limb_matrix, _limb_value, _decode_text, _parse_decimal, log2_ball_volume
from .runtime import RECV, ContractViolationError, Protocol, Send, StreamReader, _in_batches

__all__ = [
    "CoveringCode",
    "DetProtocolParams",
    "CodeConstructionError",
    "greedy_covering_code",
    "random_covering_code",
    "audit_covering",
    "det_protocol_params",
    "det_protocol",
    "det_complexity_bounds",
    "ComplexityBounds",
    "save_code",
    "load_code",
]

GREEDY_MAX_N = 22
_SLOT_TABLE_ENTRIES = 8_000_000  # largest volume x volume slot table greedy stores
_SLOT_BLOCK_ENTRIES = 1 << 16  # least slot entries per block of greedy's set-up and drops
# greedy's price per entry, in ns, of a direct decrement, a counted slot and a
# scattered drop; fitted to per-pick timings of (16, 2) .. (21, 3) builds
_DIRECT_NS, _COUNTED_NS, _SCATTERED_NS = 3.0, 2.0, 3.1
_ARGMAX_FIRST_SEGMENT = 1 << 12  # gains in the first segment of a resumed argmax
_EXHAUSTIVE_AUDIT_MAX_N = 24
_TABLE_MAX_N = 16  # a code this short builds its decode table on first use
_BATCH_TABLE_MAX_N = 18  # ... and up to here, on the first batch that would scan as many pairs
_TABLE_BLOCK_ENTRIES = 1 << 16  # most codeword-offset XORs one step of a table build holds
_HEX_DIGITS = frozenset("0123456789abcdef")
_LOADED_CODES_MAX = 8  # audited code files load_code keeps, least recently used out first
_loaded_codes: OrderedDict[Path, tuple[bytes, CoveringCode]] = OrderedDict()
_log = logging.getLogger(__name__)


class CodeConstructionError(RuntimeError):
    pass


@lru_cache(maxsize=8)
def popcount_table(n: int) -> np.ndarray:
    """Popcounts of all words of width n (n <= 22)."""
    table = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        # words 2**i .. 2**(i + 1) - 1 are the words below 2**i with bit i set
        np.add(table[: 1 << i], 1, out=table[1 << i : 2 << i])
    table.flags.writeable = False  # cached: every later caller shares it
    return table


def _ball_offsets(n: int, radius: int) -> np.ndarray:
    """The radius-r Hamming ball around 0 (words of popcount <= r), ascending.

    ``c ^ _ball_offsets(n, r)`` is the ball around codeword c.
    """
    return np.flatnonzero(popcount_table(n) <= radius).astype(np.int64)


def _ball_overlaps(n: int, radius: int) -> np.ndarray:
    """``|B(0, r) & B(s, r)|`` for each weight ``|s|`` = 0 .. n, as int64.

    A word in both balls has i ones inside the support of s and j outside
    it, so ``j <= min(n - |s|, r - max(i, |s| - i))``.
    """
    comb = math.comb
    return np.array(
        [sum(comb(w, i) * comb(n - w, j) for i in range(w + 1) for j in range(min(n - w, radius - max(i, w - i)) + 1)) for w in range(n + 1)],
        dtype=np.int64,
    )


def _within(points: np.ndarray, codewords: np.ndarray, radius: int) -> np.ndarray:
    """For each row of ``points``, whether some row of ``codewords`` lies within ``radius``.

    Both are :func:`_limb_matrix` arrays of one width.
    """
    hit = np.zeros(len(points), dtype=bool)
    rest = np.arange(len(points))  # the points no row has reached yet
    for row in codewords:
        near = np.bitwise_count(points[rest] ^ row).sum(axis=1) <= radius
        hit[rest[near]] = True
        rest = rest[~near]
    return hit


@dataclass(frozen=True)
class CoveringCode:
    """An ordered codeword set with its transmission index width."""

    n: int
    radius: int
    codewords: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_radius(self.n, self.radius)
        if not self.codewords:
            raise ValueError("a code must contain at least one codeword")
        if any(not 0 <= c < (1 << self.n) for c in self.codewords):
            raise ValueError("codeword does not fit in n bits")

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def index_width(self) -> int:
        return (self.size - 1).bit_length()

    @cached_property
    def _decode_table(self) -> np.ndarray | None:
        # None while the code scans; _table_for may still build one up to n = 18
        return self._build_decode_table() if self.n <= _TABLE_MAX_N else None

    def _table_for(self, words: int) -> np.ndarray | None:
        """The decode table for a batch of ``words`` words, or None to scan.

        Up to n = 16 the table is built on first use.  Up to n = 18 it is
        built by the first batch whose scan would compare at least as many
        word-codeword pairs, ``words * size``, as the table has entries.
        """
        table = self._decode_table
        if table is None and self.n <= _BATCH_TABLE_MAX_N and words * self.size >= 1 << self.n:
            table = vars(self)["_decode_table"] = self._build_decode_table()
        return table

    def _build_decode_table(self) -> np.ndarray:
        began = time.perf_counter()
        size = 1 << self.n
        codewords = np.array(self.codewords, dtype=np.int64)
        unset = self.size  # never a codeword index
        index = np.min_scalar_type(unset)  # uint32 only for the 2**16 words of (16, 0)
        best = np.full(size, unset, dtype=index)
        weights = popcount_table(self.n)
        # Growing spheres: a word still open at distance d lies at distance
        # exactly d from every codeword whose weight-d sphere reaches it, and
        # at more from all others, so its nearest codeword is the lowest
        # index among those hits.
        for d in range(self.n + 1):
            offsets = np.flatnonzero(weights == d)
            still_open = best == unset
            rows = _TABLE_BLOCK_ENTRIES // len(offsets)  # a sphere at n <= 18 holds at most C(18, 9) < 2**16
            for start in range(0, self.size, rows):
                block = (codewords[start : start + rows, None] ^ offsets).ravel()
                hit = np.flatnonzero(still_open[block])  # row i is codeword start + i
                np.minimum.at(best, block[hit], (start + hit // len(offsets)).astype(index))
            if not (best == unset).any():
                break
        best.flags.writeable = False
        _log.debug(
            "built the decode table of (%d, %d): %d entries of %s in %.3f s",
            self.n, self.radius, size, best.dtype, time.perf_counter() - began,
        )
        return best

    @cached_property
    def _limbs(self) -> np.ndarray:
        limbs = _limb_matrix(self.codewords, self.n)
        limbs.flags.writeable = False
        return limbs

    def _check_width(self, word: int) -> None:
        # word >> n is nonzero exactly when word lies outside [0, 2**n); the
        # bitwise OR of many words lies outside when one of them does
        if word >> self.n:
            raise ValueError(f"word does not fit in {self.n} bits")

    def nearest_index(self, word: int) -> int:
        """Index of the closest codeword, ties broken by lowest index.

        A word wider than n bits raises ``ValueError``.
        """
        self._check_width(word)
        table = self._table_for(1)
        if table is not None:
            return int(table[word])
        return int(np.bitwise_count(self._limbs ^ _limb_matrix([word], self.n)).sum(axis=1).argmin())

    def nearest_indices(self, words: Iterable[int]) -> np.ndarray:
        """:meth:`nearest_index` of each word, as an int64 array.

        A table lookup where :meth:`_table_for` gives a table (always up to
        n = 16, for large enough batches up to n = 18); otherwise the
        popcount argmin, over slices of words whose XOR against every
        codeword stays within the batch working set.  A word wider than n
        bits raises ``ValueError``.
        """
        words = list(words)  # read twice: the width check, then the limbs
        self._check_width(reduce(or_, words, 0))
        return self._nearest_rows(_limb_matrix(words, self.n))

    def _nearest_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`nearest_indices` of the n-bit words of a limb matrix."""
        table = self._table_for(len(rows))
        if table is not None:
            # n <= 18: a row holds one limb, so its sum is the word
            return table[rows.sum(axis=1, dtype=np.int64)].astype(np.int64)
        matrix = self._limbs
        return _in_batches(
            rows,
            matrix.size,
            lambda chunk: np.bitwise_count(chunk[:, None, :] ^ matrix).sum(axis=2).argmin(axis=1),
        )


def _resume_argmax(gain: np.ndarray, start: int, best: int) -> int:
    """The first word of greatest gain, when no word holds more than ``best``
    and none below ``start`` holds as much.

    Greedy's gains only fall, and every word below a pick held less than the
    pick, so the next pick is the first word from the last one on that still
    holds ``best``.  Segments of growing length are scanned for it, and only
    when none is left does a full argmax find the new, lower maximum.
    """
    step = _ARGMAX_FIRST_SEGMENT
    while start < len(gain):
        segment = gain[start : start + step]
        i = int(segment.argmax())
        if segment[i] == best:
            return start + i
        start += step
        step *= 2
    return int(gain.argmax())


def greedy_covering_code(n: int, radius: int) -> CoveringCode:
    """Greedy max-coverage covering code over the exhaustive cube (n <= 22).

    Deterministic: maximum-gain ties go to the lowest word.  The resulting
    size is at most ``(0.694 n + 1) * 2**n / V2(n, r)``, the set-cover
    guarantee in the module docstring.  After each pick the gains
    fall by the cheaper of two exact rules (see the module docstring):
    direct decrements around each newly covered word, or a drop scattered
    over the pick's 2r-ball, counted or reused from the last count.  Both
    give the same integers, so the code does not depend on the choice.
    """
    if n > GREEDY_MAX_N:
        raise ValueError(
            f"n = {n} exceeds the exhaustive-construction limit {GREEDY_MAX_N}; "
            "use random_covering_code instead"
        )
    _check_radius(n, radius)
    if radius == n:
        # word 0's ball is the whole cube: greedy picks it and stops
        return CoveringCode(n, n, (0,))
    if radius == n - 1:
        # word 0's ball misses only the all-ones word, which lies in every
        # other word's ball: each gain is then 1 but word 0's, and the lowest
        # such word, 1, is next
        return CoveringCode(n, radius, (0, 1))
    size = 1 << n
    if radius == 0:
        # each word only covers itself; greedy picks them in word order
        return CoveringCode(n, 0, tuple(range(size)))

    began = time.perf_counter()
    offsets = _ball_offsets(n, radius)
    volume = len(offsets)
    # A gain never exceeds volume; int16 halves argmax's pass and the
    # update's gather and scatter wherever it holds one.
    gain = np.full(size, volume, dtype=np.int16 if volume < 1 << 15 else np.int32)
    uncovered = np.ones(size, dtype=bool)
    remaining = size
    codewords: list[int] = []
    # A point pick ^ a newly covered by a pick takes one gain from each
    # candidate pick ^ a ^ b (b in offsets).  a ^ b has popcount <= 2r, so
    # only pick ^ reach is touched: the whole cube once 2r >= n.  The slot
    # of offsets[i] ^ offsets[j] in reach is held in the narrowest dtype
    # that fits a slot, and counted a block of rows at a time.  Each
    # bincount sweeps len(reach) counts, so a block holds at least as many.
    reach = _ball_offsets(n, 2 * radius)
    slot = np.min_scalar_type(len(reach) - 1)
    position = np.zeros(size, dtype=slot)
    position[reach] = np.arange(len(reach), dtype=slot)
    block_rows = max(1, max(_SLOT_BLOCK_ENTRIES, len(reach)) // volume)
    # The volume x volume slot table is stored when it fits its budget and
    # 2r < n.  Where 2r >= n greedy makes few picks, and their rows cost less
    # to compute than the table does to fill.
    pairs = None
    if 2 * radius < n and volume * volume <= _SLOT_TABLE_ENTRIES:
        pairs = np.empty((volume, volume), dtype=slot)
        for start in range(0, volume, block_rows):
            np.take(position, offsets[start : start + block_rows, None] ^ offsets, out=pairs[start : start + block_rows])
        position = None
    # whole[s] = |B(0, r) & B(reach[s], r)|: the drop when the pick's whole ball is fresh
    whole = _ball_overlaps(n, radius).astype(gain.dtype)[popcount_table(n)[reach]]
    # The drop depends only on fresh, the newly covered slots of the ball,
    # and greedy picks come in runs of translates that share it.
    last_fresh = previous = None

    def count_drop(fresh: np.ndarray, complement: bool) -> np.ndarray:
        """The drop at each slot of reach, counted over the fresh rows, or
        over the stale ones and subtracted from ``whole`` (``complement``)."""
        rows = np.flatnonzero(~fresh if complement else fresh)
        # The first block's counts start the sum: most drops fit one
        # block, and a zeroed sum would add a pass over reach to each.
        counts = 0
        for start in range(0, len(rows), block_rows):
            part = rows[start : start + block_rows]
            block = np.take(position, offsets[part, None] ^ offsets) if pairs is None else pairs[part]
            part_counts = np.bincount(block.ravel(), minlength=len(reach))
            if start:
                counts += part_counts
            else:
                counts = part_counts
        return (whole - counts if complement else counts).astype(gain.dtype)

    # The direct rule takes one gain for each entry of its row blocks;
    # ufunc.at keeps its fast path only for a value of the gain dtype.
    one = gain.dtype.type(1)
    updates = {"direct": 0, "counted": 0, "reused": 0}

    pick, best = -1, volume
    while remaining:
        pick = _resume_argmax(gain, pick + 1, best)
        best = gain[pick]
        codewords.append(pick)
        ball = pick ^ offsets
        fresh = uncovered[ball]
        newly = ball[fresh]
        uncovered[newly] = False
        remaining -= len(newly)
        if remaining == 0:
            break
        # Both rules are exact; each pick takes the cheaper by element counts.
        # Direct: every newly covered word takes one gain from each word of
        # its ball, k * V decrements.  Slot: scatter the drop into the pick's
        # 2r-ball, after counting it over the fewer of the fresh and the
        # stale rows unless fresh repeats the last counted pick's.  Once
        # fresh repeats the previous pick's, a run of translates has begun,
        # and one count serves the rest of the run, so it is counted.
        direct = _DIRECT_NS * len(newly) * volume
        scatter = _SCATTERED_NS * len(reach)
        if direct <= scatter:
            rule = "direct"
        elif np.array_equal(fresh, last_fresh):
            rule = "reused"
        elif direct <= scatter + _COUNTED_NS * min(len(newly), volume - len(newly)) * volume and not np.array_equal(fresh, previous):
            rule = "direct"
        else:
            rule = "counted"
        previous = fresh
        updates[rule] += 1
        if rule == "direct":
            for start in range(0, len(newly), block_rows):
                # unnamed, so no block outlives its call into the next count
                np.subtract.at(gain, (newly[start : start + block_rows, None] ^ offsets).ravel(), one)
            continue
        if rule == "counted":
            drop, last_fresh = count_drop(fresh, 2 * len(newly) > volume), fresh
        # np.subtract.at runs faster here than gain[pick ^ reach] -= drop
        np.subtract.at(gain, pick ^ reach, drop)
    _log.debug(
        "built the greedy (%d, %d) code: %d words; %d direct, %d counted, %d reused updates in %.3f s",
        n, radius, len(codewords), updates["direct"], updates["counted"], updates["reused"], time.perf_counter() - began,
    )
    return CoveringCode(n, radius, tuple(codewords))


def _audit_points(n: int, count: int = 100_000, seed: int = 0) -> np.ndarray:
    """The probes the sampled :func:`audit_covering` checks beyond n = 24,
    as a :func:`_limb_matrix`: ``count`` words from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return _limb_matrix([rng.getrandbits(n) for _ in range(count)], n)


# Entry e of a cube bitmap holds words 64 e .. 64 e + 63, word w at bit w % 64.
# Flipping bit i < 6 of the words moves the bits p with bit i of p clear,
# _LOW_HALVES[i] (0x5555..., 0x3333..., ...), up by 2**i and the others down.
_LOW_HALVES = [np.uint64(sum(1 << p for p in range(64) if not p >> i & 1)) for i in range(6)]


def _covers_cube(n: int, radius: int, codewords: Sequence[int]) -> bool:
    """Whether every n-bit word lies within ``radius`` of some codeword.

    Sets each codeword's bit in a packed cube bitmap, then dilates it
    ``radius`` times, each time OR-ing in the bitmap's n single-bit flips:
    below bit 6 by mask and shift within each entry, from bit 6 up by
    swapping the two halves of each block of ``2**(i - 6)``-entry pairs.
    Below n = 6 the one entry holds ``2**n`` words and its other bits stay
    clear.
    """
    bitmap = np.zeros(max(1, (1 << n) >> 6), dtype=np.uint64)
    words = np.array(codewords, dtype=np.uint64)
    np.bitwise_or.at(bitmap, words >> np.uint64(6), np.uint64(1) << (words & np.uint64(63)))
    source, moved = np.empty_like(bitmap), np.empty_like(bitmap)
    for _ in range(radius):
        np.copyto(source, bitmap)
        for i in range(min(n, 6)):
            shift, low = np.uint64(1 << i), _LOW_HALVES[i]
            np.bitwise_and(source, low, out=moved)
            moved <<= shift
            bitmap |= moved
            np.right_shift(source, shift, out=moved)
            moved &= low
            bitmap |= moved
        for i in range(6, n):
            pairs = bitmap.reshape(-1, 2, 1 << (i - 6))
            pairs |= source.reshape(pairs.shape)[:, ::-1]
    full = np.uint64((1 << (1 << n)) - 1 if n < 6 else (1 << 64) - 1)
    return bool((bitmap == full).all())


def random_covering_code(n: int, radius: int, confidence: float = 0.99, seed: int = 0) -> CoveringCode:
    """Sampled covering code for n beyond the exhaustive limit.

    Draws uniform codewords in growing batches until every point that the
    default :func:`audit_covering` checks is covered, starting from the volume
    lower bound ``2**n / V2(n, r)``.  Covering is exact for n <= 24, where the
    audit checks every word.  Beyond that the construction stops once the
    audit's 100,000 probes are covered, and nothing is claimed for the other
    words.  ``confidence`` only sets the size cap, twice the union-bound size
    ``ln(2**n / (1 - confidence)) * 2**n / V2(n, r)``, at which
    :class:`CodeConstructionError` is raised.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1 for the sampled construction")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    rng = random.Random(seed)
    if radius >= n:
        return CoveringCode(n, min(radius, n), (rng.getrandbits(n),))

    log_ratio = n - log2_ball_volume(n, radius)
    if log_ratio > 24:
        raise CodeConstructionError(
            f"2**n / V2(n, r) is about 2**{log_ratio:.1f}; sampled construction "
            "is infeasible at this radius"
        )
    ratio = 2.0**log_ratio
    delta = 1.0 - confidence
    union_bound = ratio * (n * math.log(2.0) + math.log(1.0 / delta))
    cap = math.ceil(2.0 * union_bound) + 16

    # every word up to n = 24, the audit's probes beyond
    exhaustive = n <= _EXHAUSTIVE_AUDIT_MAX_N
    if not exhaustive:
        points = _audit_points(n)
        covered = np.zeros(len(points), dtype=bool)

    codewords: list[int] = []
    seen: set[int] = set()
    batch = max(1, math.ceil(ratio))
    while True:
        fresh = []
        for w in [rng.getrandbits(n) for _ in range(batch)]:
            if w not in seen:
                seen.add(w)
                fresh.append(w)
        codewords.extend(fresh)
        if exhaustive:
            done = _covers_cube(n, radius, codewords)
        else:
            open_idx = np.flatnonzero(~covered)
            covered[open_idx[_within(points[open_idx], _limb_matrix(fresh, n), radius)]] = True
            done = covered.all()
        if done:
            return CoveringCode(n, radius, tuple(codewords))
        if len(codewords) >= cap:
            raise CodeConstructionError(
                f"audit still failing at the size cap ({cap} codewords)"
            )
        batch = max(1, math.ceil(len(codewords) * 0.6))


def audit_covering(
    code: CoveringCode,
    sample_points: int = 100_000,
    seed: int = 0,
) -> bool:
    """True when the covering property holds on the audited point set.

    Exhaustive over the cube for n <= 24 (by bitmap dilation, see the module
    docstring); otherwise a sampled audit of ``sample_points`` uniform probes.
    """
    n, r = code.n, code.radius
    if n <= _EXHAUSTIVE_AUDIT_MAX_N:
        return _covers_cube(n, r, code.codewords)
    return bool(_within(_audit_points(n, sample_points, seed), code._limbs, r).all())


@dataclass(frozen=True)
class DetProtocolParams:
    """Parameters of the deterministic protocol for one (n, gap) promise."""

    n: int
    gap: int
    code: CoveringCode

    def __post_init__(self) -> None:
        _det_radius(self.n, self.gap)  # a bad gap is refused first
        if self.code.n != self.n:
            raise ValueError("code length does not match n")
        if self.code.radius != self.decision_radius:
            raise ValueError(
                f"code radius {self.code.radius} != required {self.decision_radius}"
            )

    @property
    def decision_radius(self) -> int:
        return _det_radius(self.n, self.gap)

    @property
    def cost_bits(self) -> int:
        return self.code.index_width + 1


def _det_radius(n: int, gap: int) -> int:
    """The det protocol's covering and decision radius, ``(gap - 1) // 2``;
    a gap outside ``[1, n]`` raises ``ValueError``."""
    _check_gap(n, gap)
    return (gap - 1) // 2


def det_protocol_params(n: int, gap: int, code: CoveringCode | None = None) -> DetProtocolParams:
    """The protocol's parameters; a bad gap is refused before any code is built."""
    radius = _det_radius(n, gap)
    if code is None:
        code = greedy_covering_code(n, radius)
    return DetProtocolParams(n, gap, code)


def det_protocol(params: DetProtocolParams) -> Protocol:
    code = params.code
    width = code.index_width
    radius = params.decision_radius

    def check_cover(word: int, distance: int) -> None:
        if distance > radius:  # the protocol is exact only within the radius
            message = f"word {word:0{code.n}b} lies at distance {distance} from its nearest codeword"
            raise ContractViolationError(f"{message}, beyond the code's radius {radius}")

    def decides_far(distance):
        # Bob's rule on his distance to Alice's codeword (or an array of them)
        return distance > radius

    def alice(x: BitString, reader: StreamReader):
        _check_lengths(code.n, x.length)
        index = code.nearest_index(x.value)
        check_cover(x.value, (code.codewords[index] ^ x.value).bit_count())
        if width > 0:
            yield Send(index, width)
        answer, _ = yield RECV
        return answer

    def bob(y: BitString, reader: StreamReader):
        _check_lengths(code.n, y.length)
        index = 0
        if width > 0:
            index, _ = yield RECV
        decision = int(decides_far((code.codewords[index] ^ y.value).bit_count()))
        yield Send(decision, 1)
        return decision

    def pair_outputs(n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        _check_lengths(code.n, n)
        _check_limb_pairs(n, xs, ys)
        chosen = code._limbs[code._nearest_rows(xs)]
        reach = np.bitwise_count(chosen ^ xs).sum(axis=1)
        beyond = np.flatnonzero(reach > radius)
        if len(beyond):
            check_cover(_limb_value(xs[beyond[0]]), int(reach[beyond[0]]))
        return decides_far(np.bitwise_count(chosen ^ ys).sum(axis=1)).astype(np.int64)

    return Protocol(
        name="deterministic-covering",
        alice=alice,
        bob=bob,
        cost_bits=params.cost_bits,
        pair_outputs=pair_outputs,
    )


class ComplexityBounds(NamedTuple):
    lower: float
    upper: float


def det_complexity_bounds(n: int, gap: int) -> ComplexityBounds:
    """Bit bounds for the deterministic promise problem at (n, gap).

    See the module docstring for the provenance of the upper-bound constants
    (log2 n + 2 on top of the volume term).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    radius = _det_radius(n, gap)
    lower = n - log2_ball_volume(n, gap // 2)
    upper = n - log2_ball_volume(n, radius) + math.log2(n) + 2.0
    return ComplexityBounds(lower, upper)


def save_code(code: CoveringCode, path: str | Path) -> None:
    digits = (code.n + 3) // 4
    lines = [f"{code.n} {code.radius} {code.size}"]
    lines.extend(f"{c:0{digits}x}" for c in code.codewords)
    Path(path).write_text("\n".join(lines) + "\n")


def load_code(path: str | Path) -> CoveringCode:
    """Load a code file and audit its covering property.

    A malformed file raises ``ValueError`` naming the file, and the line when
    one line is at fault.  The header and rows must be exactly as
    :func:`save_code` writes them.  A code that fails :func:`audit_covering`
    raises :class:`CodeConstructionError`.

    The file's bytes are read on every call, and the last
    ``_LOADED_CODES_MAX`` files that passed are kept by resolved path: when
    the bytes at that path are the ones that passed, the same code object
    comes back, decode table included, with no parse or audit.  New bytes
    or a new path are parsed and audited again.
    """
    data = Path(path).read_bytes()
    key = Path(path).resolve()
    digest = hashlib.sha256(data).digest()
    cached = _loaded_codes.pop(key, None)
    if cached is not None and cached[0] == digest:
        _loaded_codes[key] = cached
        _log.debug("reused the audited code of %s", path)
        return cached[1]
    code = _parse_code(path, data)
    if not audit_covering(code):
        raise CodeConstructionError(f"{path}: loaded code fails its covering audit")
    _loaded_codes[key] = (digest, code)
    if len(_loaded_codes) > _LOADED_CODES_MAX:
        _loaded_codes.popitem(last=False)
    _log.debug("parsed and audited %s", path)
    return code


def _parse_code(path: str | Path, data: bytes) -> CoveringCode:
    """The code a file's bytes hold; see :func:`load_code`."""
    lines = _decode_text(path, data).splitlines()
    if not lines:
        raise ValueError(f"empty code file: {path}")
    header = lines[0].split()
    try:
        n, radius, size = (_parse_decimal(v) for v in header)
    except ValueError:
        raise ValueError(f"{path}, line 1: malformed header {lines[0]!r}") from None
    _check_radius(n, radius, f"{path}, line 1: ")
    if size < 1:
        raise ValueError(f"{path}, line 1: a code must contain at least one codeword")
    rows = [(lineno, row.strip()) for lineno, row in enumerate(lines[1:], start=2) if row.strip()]
    if len(rows) != size:
        raise ValueError(f"{path}: header declares {size} codewords, found {len(rows)}")
    digits = max(1, (n + 3) // 4)  # save_code writes at least one digit
    codewords = []
    for lineno, row in rows:
        if len(row) != digits or not _HEX_DIGITS.issuperset(row):
            raise ValueError(
                f"{path}, line {lineno}: not a {digits}-digit lowercase hex codeword: {row!r}"
            )
        codeword = int(row, 16)
        if codeword >> n:
            raise ValueError(f"{path}, line {lineno}: codeword does not fit in n bits: {row!r}")
        codewords.append(codeword)
    return CoveringCode(n, radius, tuple(codewords))
