"""Bit strings, Hamming geometry, and exact Hamming-ball volumes.

The shared vocabulary of every protocol module: fixed-length binary words
packed into Python integers (arbitrary precision, hardware popcount via
``int.bit_count``), promise instances, exact combinatorial volumes, and the
word format's one home: three inverse pairs convert, bits most significant
first, between a word and its bit vector, words and limb rows, and limb rows
and bit rows.

Random pairs at a given distance come from :func:`random_pair_at_distance`,
one seeded ``random.Random`` per pair; the exact sweeps draw theirs for a
whole class at once from the runtime's counter-based stream instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "BitString",
    "Promise",
    "GhdInstance",
    "hamming_distance",
    "ball_volume",
    "log2_ball_volume",
    "log2_exact",
    "random_pair_at_distance",
]


@dataclass(frozen=True, slots=True)
class BitString:
    """Fixed-length binary word packed into a single integer.

    Position 0 is the leftmost character of the textual form, so
    ``BitString.from_text("10110").bit(0) == 1``.  All bits beyond the
    declared length are zero by construction.
    """

    length: int
    value: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value does not fit in {self.length} bits")

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls(length, (1 << length) - 1)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse a most-significant-first 0/1 string, e.g. ``"10110"``."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a 0/1 string: {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def random(cls, length: int, rng: random.Random) -> "BitString":
        return cls(length, rng.getrandbits(length))

    def bit(self, position: int) -> int:
        if not 0 <= position < self.length:
            raise IndexError(f"position {position} out of range")
        return (self.value >> (self.length - 1 - position)) & 1

    def complement(self) -> "BitString":
        return BitString(self.length, self.value ^ ((1 << self.length) - 1))

    def flip(self, positions) -> "BitString":
        mask = 0
        for p in positions:
            if not 0 <= p < self.length:
                raise IndexError(f"position {p} out of range")
            mask |= 1 << (self.length - 1 - p)
        return BitString(self.length, self.value ^ mask)

    def bit_array(self) -> np.ndarray:
        """The positions as a uint8 vector, index 0 = position 0."""
        return _int_bits(self.value, self.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")


def hamming_distance(x: BitString, y: BitString) -> int:
    """Number of positions where two equal-length bit strings differ."""
    _check_equal_lengths(x, y)
    return (x.value ^ y.value).bit_count()


class Promise(Enum):
    """Which side of the gap promise an instance falls on."""

    CLOSE = 0
    FAR = 1
    VIOLATED = 2


@dataclass(frozen=True)
class GhdInstance:
    """A pair of n-bit inputs with a (close_bound, far_bound) gap promise.

    The promise holds when the Hamming distance is <= close_bound (answer 0)
    or >= far_bound (answer 1); anything strictly between violates it.
    """

    n: int
    close_bound: int
    far_bound: int
    x: BitString
    y: BitString

    def __post_init__(self) -> None:
        _check_promise(self.n, self.close_bound, self.far_bound)
        _check_lengths(self.n, self.x.length, self.y.length)

    @property
    def distance(self) -> int:
        return hamming_distance(self.x, self.y)

    @property
    def promise(self) -> Promise:
        d = self.distance
        if d <= self.close_bound:
            return Promise.CLOSE
        if d >= self.far_bound:
            return Promise.FAR
        return Promise.VIOLATED

    def truth_bit(self) -> int:
        """The required protocol output; rejects promise violations."""
        p = self.promise
        if p is Promise.VIOLATED:
            raise ValueError("instance violates the promise; no ground truth")
        return p.value

    @classmethod
    def at_distance(
        cls,
        n: int,
        close_bound: int,
        far_bound: int,
        distance: int,
        seed: int,
    ) -> "GhdInstance":
        x, y = random_pair_at_distance(n, distance, seed)
        return cls(n, close_bound, far_bound, x, y)


def _check_promise(
    n: int, close_bound: int, far_bound: int, error_exponent: float | None = None
) -> None:
    """Reject gap bounds outside ``0 <= close_bound < far_bound <= n``, and an
    error exponent (when given) that is not positive and finite."""
    if not 0 <= close_bound < far_bound <= n:
        raise ValueError(
            f"need 0 <= close_bound < far_bound <= n, got "
            f"({close_bound}, {far_bound}, n={n})"
        )
    if error_exponent is None:
        return
    if error_exponent <= 0:
        raise ValueError("error_exponent must be positive")
    if not math.isfinite(error_exponent):  # inf, or nan
        raise ValueError("error_exponent must be finite")


def _check_lengths(n: int, *lengths: int) -> None:
    """Reject an input length that is not n."""
    for length in lengths:
        if length != n:
            raise ValueError(f"input length {length} does not match n = {n}")


def _check_equal_lengths(x: BitString, y: BitString) -> None:
    if x.length != y.length:
        raise ValueError(f"inputs of unequal length: {x.length} and {y.length} bits")


def _check_gap(n: int, gap: int) -> None:
    if not 1 <= gap <= n:
        raise ValueError(f"gap must satisfy 1 <= gap <= n, got {gap}")


def _check_radius(n: int, r: int, prefix: str = "") -> None:
    if not 0 <= r <= n:
        raise ValueError(f"{prefix}radius must satisfy 0 <= r <= n, got r={r}, n={n}")


def _int_bits(value: int, count: int) -> np.ndarray:
    """The ``count`` bits of a nonnegative int below ``2**count``, most significant first, as a uint8 0/1 vector."""
    nbytes = (count + 7) // 8
    return np.unpackbits(np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8))[8 * nbytes - count :]


def _bits_int(bits: np.ndarray) -> int:
    """The int whose bits, most significant first, are the 0/1 vector ``bits``."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


def _limb_matrix(words, n: int) -> np.ndarray:
    """Each word as a row of ``ceil(n / 64)`` big-endian uint64 limbs; ``OverflowError`` if one does not fit."""
    if n <= 64:
        # numpy raises OverflowError below 0 and from 2**64 up
        return np.array(words, dtype=np.uint64).reshape(-1, 1)
    limbs = (n + 63) // 64
    raw = b"".join(word.to_bytes(8 * limbs, "big") for word in words)
    return np.frombuffer(raw, dtype=">u8").reshape(-1, limbs).astype(np.uint64)


def _limb_value(row: np.ndarray) -> int:
    """The word one row of a :func:`_limb_matrix` holds."""
    return int.from_bytes(row.astype(">u8").tobytes(), "big")


# Both directions unpack or pack whole limbs as one flat byte run: numpy's
# one-dimensional path beats its per-row one on short rows.


def _limb_bits(limbs: np.ndarray, n: int) -> np.ndarray:
    """The n-bit words of a limb matrix as rows of :func:`_int_bits`."""
    pad = 64 * limbs.shape[1] - n  # the top limb's unused high bits
    return np.unpackbits(limbs.astype(">u8").view(np.uint8)).reshape(len(limbs), n + pad)[:, pad:]


def _bits_limbs(rows: np.ndarray) -> np.ndarray:
    """The limb matrix whose :func:`_limb_bits` are the 0/1 rows ``rows``."""
    width = rows.shape[1]
    padded = np.zeros((len(rows), width + -width % 64), dtype=np.uint8)
    padded[:, padded.shape[1] - width :] = rows
    return np.packbits(padded).view(">u8").reshape(len(rows), padded.shape[1] // 64).astype(np.uint64)


def _check_limb_pairs(n: int, xs: np.ndarray, ys: np.ndarray) -> None:
    """Reject pair matrices that are not :func:`_limb_matrix` rows of n-bit
    words: a wrong dtype or limb count, unequal row counts, or a word wider
    than n bits."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    limbs = (n + 63) // 64
    for matrix in (xs, ys):
        if matrix.dtype != np.uint64 or matrix.ndim != 2 or matrix.shape[1] != limbs:
            raise ValueError(f"need {limbs} uint64 limbs a row for n = {n}, got {matrix.dtype} of shape {matrix.shape}")
        # the top limb holds n - 64 (limbs - 1) bits of the word
        if n % 64 and (matrix[:, 0] >> np.uint64(n % 64)).any():
            raise ValueError(f"word does not fit in {n} bits")
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x rows but {len(ys)} y rows")


def _parse_decimal(text: str) -> int:
    """A non-negative ASCII decimal with no sign, underscore or leading zero."""
    if not (text.isascii() and text.isdigit()) or text != str(int(text)):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return int(text)


def _read_text(path: str | Path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise ``ValueError``.

    The error names the file and the line of the first bad byte.
    """
    return _decode_text(path, Path(path).read_bytes())


def _decode_text(path: str | Path, data: bytes) -> str:
    """:func:`_read_text` of a file whose bytes were read as ``data``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None


def _partial_binomial_sum(n: int, r: int) -> int:
    # sum_{i<=r} C(n, i), exact, by the multiplicative recurrence
    term = 1
    total = 1
    for i in range(1, r + 1):
        term = term * (n - i + 1) // i
        total += term
    return total


def ball_volume(n: int, r: int) -> int:
    """Exact number of points within Hamming distance r of a fixed center.

    Always an exact integer (sum of binomial coefficients); valid for any n
    Python can hold, in particular n up to 10**6 and beyond.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_radius(n, r)
    if r == n:
        return 1 << n
    if 2 * r > n:
        # complement of the shell above r: 2^n - sum_{i>r} C(n,i)
        return (1 << n) - _partial_binomial_sum(n, n - r - 1)
    return _partial_binomial_sum(n, r)


def log2_exact(value: int) -> float:
    """log2 of a positive integer, computed from its exact representation.

    Up to 64 bits this is ``math.log2(value)``.  Wider integers use the bit
    length plus a correction from the top 64 significant bits, so the result
    is accurate to well under 1e-9 even when the integer is far too large
    for float conversion.
    """
    if value <= 0:
        raise ValueError("value must be positive")
    bit_length = value.bit_length()
    if bit_length <= 64:
        return math.log2(value)
    shift = bit_length - 64
    return math.log2(value >> shift) + shift


def log2_ball_volume(n: int, r: int) -> float:
    """log2 of the exact Hamming-ball volume (never a floating-point sum)."""
    return log2_exact(ball_volume(n, r))


def random_pair_at_distance(n: int, d: int, seed: int) -> tuple[BitString, BitString]:
    """A uniformly random x and a y at Hamming distance exactly d from it.

    The d flipped positions are a uniform size-d subset; fully deterministic
    given the seed.  They are set in one bit vector, which becomes the mask
    in a single conversion.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= d <= n:
        raise ValueError(f"distance must satisfy 0 <= d <= n, got {d}")
    rng = random.Random(seed)
    x = BitString.random(n, rng)
    mask = np.zeros(n, dtype=np.uint8)
    mask[rng.sample(range(n), d)] = 1
    return x, BitString(n, x.value ^ _bits_int(mask))
