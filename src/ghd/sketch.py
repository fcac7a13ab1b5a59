"""One-sided-error random-projection sketch protocol.

The inputs are padded with zeros, split into ``block_count`` blocks of length
``block_length``, and each block is projected onto a shared uniform unit
sphere vector.  Alice quantizes her projections to the grid
``{m / n**3 : m integer}`` and transmits the grid indices; Bob compares the
received values against his own projections and outputs 1 exactly when

    sum_i (r_i - <beta_i, U_i>)**2  >  close_bound + 5/n.

On inputs with distance <= close_bound the statistic never crosses the
threshold, so the protocol never errs on the 0 side; on inputs with distance
>= far_bound it misses with probability at most exp(-s), provided the
exponent satisfies ``s >= (close_bound + 10/n)**3 / far_bound**2``.  Below
that floor the guarantee is void and parameter derivation refuses unless
explicitly overridden.

Wire format
-----------
A sketch message is ``block_count`` fixed-width sign-magnitude integers in
the word format of :mod:`ghd.bits`, concatenated.  Each word, ``word_width``
bits, is one sign bit (1 = negative) and ``word_width - 1`` magnitude bits.
``word_width = ceil(log2(2 * floor(sqrt(block_length)) * n**3 + 1)) + 1``,
wide enough for every reachable grid index, so the serialized length is
exactly ``block_count * word_width`` bits and transcripts replay across
implementations.  The decoder rejects a word with the sign bit set on
magnitude 0 (never sent) and a magnitude above
:attr:`SketchParams.max_grid_index`.

When ``block_count`` would exceed n the whole exercise is pointless and the
protocol degenerates to Alice sending her input verbatim (n + 1 bits total);
such parameter sets are flagged ``trivial_mode``.

Batch scoring
-------------
The Monte Carlo batch hook decides a close pair (distance d <= close_bound)
by proof, without drawing: ``sketch_protocol`` computes once a float that is
at least Bob's float64 statistic on every close pair and every draw, and
when that float is not above the threshold, every trial of a close pair is
scored 0.  With u = 2**-53, gamma_k = k u / (1 - k u), a = block_length and
B = block_count, the bound follows each rounding of Bob's float64
computation.  It is evaluated in 60-digit decimal arithmetic that rounds
every operation up, and the result is rounded up to a float.  Every
operation is a sum, product or quotient of positive quantities, and every
divisor is an exact integer, so no rounding can lower the result: the
decimal value is at least the exact bound.  For that, its differences are
written as integer ratios: 1 / (1 - gamma_a) = (2**53 - a) / (2**53 - 2a),
1 / (1 - u) = 2**53 / (2**53 - 1) and 1 + gamma_k = 2**53 / (2**53 - k).  A
float sum of k + 1 terms, in any order, is within gamma_k times the sum of
their magnitudes of the exact sum (Higham, "The accuracy of floating point
summation", SIAM J. Sci. Comput. 14, 1993).

* Unit vectors.  A row is fl(g_j / fl(sqrt(sum of fl(g_j**2)))).  A nonzero
  Box-Muller coordinate exceeds 2**-81 in magnitude, so no square or
  quotient underflows, and the row's Euclidean norm is at most
  c = (1 + u) / ((1 - gamma_a) (1 - u)).
* Projections.  A block's projection is the float sum of the vector entries
  at its 1 bits (each product with a bit is exact).  It is within
  gamma_{a-1} sqrt(a) c of that sum taken exactly, and at most
  A = sqrt(a) c (1 + gamma_{a-1}) in magnitude.
* Quantization.  Alice sends q = rint(fl(p * n**3)) and Bob reads
  r = fl(q / n**3), which is within 1/(2 n**3) + u A + u (A (1 + u) +
  1/(2 n**3)) + 2**-1074 of p (the last term covers an underflowing
  product).
* Cauchy-Schwarz.  The exact projections of the two blocks differ by at most
  sqrt(d_i) c, so Bob's difference is at most sqrt(d_i) c + e, where e sums
  the two projection errors and the quantization error.
* Subtraction and square.  Each rounds once, so a term is at most
  (1 + u)**3 (sqrt(d_i) c + e)**2 + 2**-1074.
* Block sum.  The terms are nonnegative, so their float sum is at most
  (1 + gamma_{B-1}) times their exact sum, and sum_i (sqrt(d_i) c + e)**2 <=
  c**2 d + 2 c e sqrt(d B) + B e**2, since sum_i sqrt(d_i) <= sqrt(d B).

The bound grows with d, so its value at d = close_bound covers every close
pair.  Its excess over d = close_bound is about (d (B + 2a) + 4 a sqrt(d B)) u,
against the threshold's margin of 5/n.  Derivation keeps sqrt(a) n**3 below
2**53, which keeps the excess below the margin at every accepted parameter
set: the largest share, about a fifth, is at n = 208,063, where only block
length 1 is accepted, and at the largest accepted block length (36,178, one
block) it is under a hundredth.  Real runs, the audited trials among them,
still draw.

Every other pair is scored in two stages.  The head stage sums the
statistic's terms over the first ``ceil(block_count / 16)`` blocks, and the
full stage sums every block, as Bob does, for the trials the head stage left
open.  A trial is decided far on its head when its head sum times
``1 - 2**-30`` exceeds the threshold.  That decision is Bob's: the terms are
nonnegative and bit-identical to his, and by the summation bound above a
float sum of m nonnegative terms lies within a factor
``(1 +- 2**-53)**(m - 1)`` of their exact sum.  So Bob's statistic is at
least ``(1 - 2**-53)**(B - 1) / (1 + 2**-53)**(B - 1)`` times the head sum,
and the rounded product of the head sum and ``1 - 2**-30`` is at most
``(1 - 2**-30) * (1 + 2**-53)`` times it.  So Bob's statistic is at least
that product whenever ``(1 - 2**-53)**(B - 1) / (1 + 2**-53)**B >=
1 - 2**-30``, which holds for every B <= n < 2**(53/3), the n that
derivation accepts (grid indices stay below 2**53).  A deflated head sum
above the threshold thus proves Bob's statistic is above it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

from .bits import BitString, _bits_int, _bits_limbs, _check_lengths, _check_promise, _int_bits, _limb_bits
from .runtime import (
    RECV,
    Protocol,
    Send,
    SharedRandomness,
    StreamReader,
    _as_shared,
    _in_batches,
    _sum_last,
    _unit_vector_values,
)

__all__ = [
    "SketchParams",
    "SketchMessage",
    "SketchStatistics",
    "GuaranteeFloorError",
    "guarantee_floor",
    "derive_sketch_params",
    "quantize_projection",
    "alice_sketch",
    "bob_decide",
    "sketch_statistics",
    "sketch_cost",
    "sketch_protocol",
]

_log = logging.getLogger(__name__)

# The head stage scores the first ceil(block_count / _HEAD_DIVISOR) blocks;
# a head sum times _HEAD_DEFLATION above the threshold decides far (module
# docstring, Batch scoring).
_HEAD_DIVISOR = 16
_HEAD_DEFLATION = 1.0 - 2.0**-30
# The close certificate's arithmetic: every decimal operation rounds toward
# +inf (module docstring, Batch scoring).
_UPWARD = Context(prec=60, rounding=ROUND_CEILING)


class GuaranteeFloorError(ValueError):
    """The requested exponent is below the regime where the bound is proved."""


def guarantee_floor(n: int, close_bound: int, far_bound: int) -> float:
    """Smallest error exponent for which the one-sided bound is guaranteed, as a float.

    :func:`derive_sketch_params` compares the exponent with the exact value.
    """
    return (close_bound + 10.0 / n) ** 3 / far_bound**2


@dataclass(frozen=True)
class SketchParams:
    """Derived sketch parameters; construct via :func:`derive_sketch_params`."""

    n: int
    close_bound: int
    far_bound: int
    error_exponent: float
    block_count: int
    block_length: int | None
    padded_length: int | None
    word_width: int | None
    trivial_mode: bool

    @property
    def threshold(self) -> float:
        return self.close_bound + 5.0 / self.n

    @property
    def grid_denominator(self) -> int:
        # quantization grid step is 1 / n**3
        return self.n**3

    @property
    def max_grid_index(self) -> int:
        """Largest |grid index| the quantizer can produce on these parameters.

        A projection of a 0/1 block onto a unit vector is at most
        a = sqrt(block_length) in exact arithmetic, so its index is at most
        round(a * n**3) <= floor(a * n**3) + 1.  The float64 projection and
        product add at most (2 * block_length + 4) units in 2**53 of it.
        """
        exact = math.isqrt(self.block_length * self.n**6) + 1
        return exact - (-exact * (2 * self.block_length + 4) >> 53)


def derive_sketch_params(
    n: int,
    close_bound: int,
    far_bound: int,
    error_exponent: float,
    allow_void_guarantee: bool = False,
) -> SketchParams:
    """Derive block structure and word width for the sketch protocol.

    ``block_count = ceil(4 * n * (s / far_bound)**(1/3))``; when that exceeds
    n the parameters are flagged trivial.  Exponents below
    :func:`guarantee_floor` are rejected unless ``allow_void_guarantee`` is
    set (the error bound is then void, for experimentation only); the test
    is exact, ``Fraction(str(s)) < ((n L + 10) / n)**3 / U**2``, reading s as
    the decimal string it was written as.  Raises
    ``ValueError`` when grid indices would reach 2**53 (from about
    n = 2**17), beyond the integers float64 holds exactly.
    """
    _check_promise(n, close_bound, far_bound, error_exponent)
    exact_floor = Fraction(n * close_bound + 10, n) ** 3 / far_bound**2
    if Fraction(str(error_exponent)) < exact_floor and not allow_void_guarantee:
        raise GuaranteeFloorError(
            f"error exponent {error_exponent} is below the guaranteed regime "
            f"(needs >= {guarantee_floor(n, close_bound, far_bound):.6g}); "
            "pass allow_void_guarantee=True to proceed"
        )
    block_count = math.ceil(4 * n * (error_exponent / far_bound) ** (1.0 / 3.0))
    trivial_mode = block_count > n
    block_length = padded_length = word_width = None
    if not trivial_mode:
        block_length = -(-n // block_count)
        padded_length = block_length * block_count
        max_index = math.isqrt(block_length * n**6)  # floor(sqrt(a) * n**3)
        if max_index >= 2**53:
            raise ValueError(
                f"n = {n}, block_length = {block_length}: grid indices reach "
                f"floor(sqrt(block_length) * n**3) >= 2**53, beyond float64's exact integers"
            )
        word_width = (2 * max_index).bit_length() + 1  # ceil(log2(2M+1)) + 1
    return SketchParams(
        n, close_bound, far_bound, error_exponent, block_count, block_length, padded_length, word_width, trivial_mode
    )


def quantize_projection(values, n: int) -> np.ndarray:
    """Nearest grid indices m with m / n**3 closest to each value, ties to even.

    Returns int64 indices in the shape of ``values`` (0-d for a scalar).
    """
    values = np.asarray(values, dtype=np.float64)
    largest = float(np.abs(values).max(initial=0.0))
    if not largest <= math.sqrt(n) + 1e-9:  # also rejects nan
        raise ValueError(
            f"|value| = {largest} exceeds sqrt(n); not a 0/1-block projection"
        )
    return np.rint(values * float(n**3)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class SketchMessage:
    """Quantized projections as transmitted: signed grid indices.

    ``grid_indices`` is held as a read-only int64 array (a tuple or list is
    converted); messages compare and hash by value.
    """

    grid_indices: np.ndarray
    word_width: int

    def __post_init__(self) -> None:
        indices = np.array(self.grid_indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("grid indices must be one-dimensional")
        indices.flags.writeable = False
        object.__setattr__(self, "grid_indices", indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SketchMessage):
            return NotImplemented
        return (
            self.word_width == other.word_width
            and self.grid_indices.tobytes() == other.grid_indices.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.word_width, self.grid_indices.tobytes()))

    @property
    def bit_length(self) -> int:
        return len(self.grid_indices) * self.word_width

    def to_payload(self) -> int:
        width = self.word_width
        values = self.grid_indices
        largest = max(values.max(initial=0), -values.min(initial=0))
        if not 1 < width <= 64 or largest >> (width - 1):
            raise ValueError(f"grid indices do not fit {width}-bit sign-magnitude words")
        encoded = np.where(values < 0, -values | (1 << (width - 1)), values)
        return _bits_int(_limb_bits(encoded.astype(np.uint64)[:, None], width).ravel())

    @classmethod
    def from_payload(cls, payload: int, params: SketchParams) -> "SketchMessage":
        """Decode a payload; rejects negative zero and unreachable magnitudes.

        Raises ``ValueError`` naming the first block whose word has the sign
        bit set on magnitude 0, or a magnitude above
        :attr:`SketchParams.max_grid_index`.
        """
        width = params.word_width
        total = params.block_count * width
        if not 0 <= payload < (1 << total):
            raise ValueError("payload does not fit the declared message length")
        encoded = _bits_limbs(_int_bits(payload, total).reshape(-1, width))[:, 0].astype(np.int64)
        sign = 1 << (width - 1)
        magnitudes = encoded & (sign - 1)
        limit = params.max_grid_index
        if magnitudes.max(initial=0) > limit or (encoded == sign).any():
            block = int(np.flatnonzero((magnitudes > limit) | (encoded == sign))[0])
            magnitude = int(magnitudes[block])
            fault = f"magnitude {magnitude} exceeds {limit}" if magnitude else "negative zero"
            raise ValueError(f"sketch payload block {block}: {fault}")
        return cls(np.where(encoded >= sign, -magnitudes, magnitudes), width)


@dataclass(frozen=True)
class SketchStatistics:
    """Decision statistic and (in instrumented runs) its unquantized twin.

    ``received_statistic`` is what Bob thresholds; ``exact_statistic`` is the
    same sum with Alice's exact projections in place of the transmitted grid
    values.  It requires both inputs, so it is only available from
    :func:`sketch_statistics`, never inside the protocol itself.
    """

    exact_statistic: float | None
    received_statistic: float
    decision: int


def _project(x: BitString, params: SketchParams, vectors: np.ndarray) -> np.ndarray:
    """Per-block projections of the zero-padded input onto the shared vectors.

    ``vectors`` holds the vectors of the first ``vectors.shape[-2]`` blocks
    and may carry leading axes (one per trial of a batch).
    """
    rows = vectors.shape[-2]
    padded = _int_bits(x.value << (params.padded_length - x.length), params.padded_length)
    return _sum_last(padded[: rows * params.block_length].reshape(rows, params.block_length) * vectors)


def _statistic(received: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Sum over blocks of the squared differences (over the last axis)."""
    return ((received - own) ** 2).sum(axis=-1)


def _decides_far(params: SketchParams, statistic):
    """Bob's rule on a statistic (or an array of them): far exactly when T > L + 5/n."""
    return statistic > params.threshold


def _ratio(numerator: int, denominator: int) -> Decimal:
    """``numerator / denominator`` in the current decimal context."""
    return Decimal(numerator) / Decimal(denominator)


def _sqrt_up(value: int) -> Decimal:
    """At least sqrt(value): ``(isqrt(value * 2**128) + 1) / 2**64``, rounded up."""
    return _ratio(math.isqrt(value << 128) + 1, 1 << 64)


def _close_statistic_decimal(params: SketchParams) -> Decimal:
    """The close certificate's bound, every operation rounded up in :data:`_UPWARD`.

    At least the bound's exact value; the module docstring (Batch scoring)
    derives each term.
    """
    with localcontext(_UPWARD):
        one = 2**53  # 1 / u
        u, tiny = _ratio(1, one), _ratio(1, 2**1074)
        length, count, distance = params.block_length, params.block_count, params.close_bound
        half_step = _ratio(1, 2 * params.grid_denominator)
        # (1 + u) / ((1 - gamma_a) (1 - u)) and gamma_{a-1}
        norm = (1 + u) * _ratio(one - length, one - 2 * length) * _ratio(one, one - 1)
        projection = _ratio(length - 1, one - (length - 1)) * _sqrt_up(length) * norm
        largest = _sqrt_up(length) * norm + projection
        e = 2 * projection + half_step + u * largest + u * (largest * (1 + u) + half_step) + tiny
        terms = norm * norm * distance + 2 * norm * e * _sqrt_up(distance * count) + count * e * e
        # 1 + gamma_{B-1}
        return _ratio(one, one - (count - 1)) * ((1 + u) * (1 + u) * (1 + u) * terms + count * tiny)


def _close_statistic_bound(params: SketchParams) -> float:
    """A float at least Bob's float64 statistic on every pair at distance <= close_bound."""
    bound = _close_statistic_decimal(params)
    rounded = float(bound)  # correctly rounded, so at most one step below
    return rounded if Decimal(rounded) >= bound else math.nextafter(rounded, math.inf)


def _projections_and_statistic(
    x: BitString, y: BitString, params: SketchParams, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alice's and Bob's projections and the statistic Bob computes from them.

    The statistic uses Alice's quantized projections, exactly as transmitted;
    ``vectors`` may carry leading axes, which every result keeps.
    """
    alice_proj = _project(x, params, vectors)
    bob_proj = _project(y, params, vectors)
    received = quantize_projection(alice_proj, params.n) / float(params.grid_denominator)
    return alice_proj, bob_proj, _statistic(received, bob_proj)


def _check_inputs(params: SketchParams, *inputs: BitString) -> None:
    if params.trivial_mode:
        raise ValueError("trivial-mode parameters have no projections: inputs go verbatim")
    _check_lengths(params.n, *(x.length for x in inputs))


def _shared_vectors(params: SketchParams, reader: StreamReader, *inputs: BitString) -> np.ndarray:
    # Fresh projection vectors per run; both parties read the same positions.
    _check_inputs(params, *inputs)
    return reader.unit_vectors(params.block_count, params.block_length)


def alice_sketch(x: BitString, params: SketchParams, reader: StreamReader) -> SketchMessage:
    """Project, quantize, and package Alice's side of the sketch."""
    projections = _project(x, params, _shared_vectors(params, reader, x))
    return SketchMessage(quantize_projection(projections, params.n), params.word_width)


def bob_decide(
    y: BitString,
    message: SketchMessage,
    params: SketchParams,
    reader: StreamReader,
) -> tuple[int, SketchStatistics]:
    """Bob's threshold decision from the received grid indices.

    The returned statistics carry ``exact_statistic=None``: the production
    decision uses the received statistic alone.
    """
    own = _project(y, params, _shared_vectors(params, reader, y))
    received = message.grid_indices / float(params.grid_denominator)
    statistic = float(_statistic(received, own))
    decision = int(_decides_far(params, statistic))
    return decision, SketchStatistics(None, statistic, decision)


def sketch_statistics(
    x: BitString,
    y: BitString,
    params: SketchParams,
    shared: SharedRandomness | int,
) -> SketchStatistics:
    """Instrumented run: both statistics, bit-identical to a protocol run.

    Draws the projection vectors once and reproduces exactly the floating
    point operations both parties perform, so the decision here matches the
    protocol decision for the same seed.
    """
    vectors = _shared_vectors(params, _as_shared(shared).reader(), x, y)
    alice_proj, bob_proj, statistic = _projections_and_statistic(x, y, params, vectors)
    exact = float(_statistic(alice_proj, bob_proj))
    quantized = float(statistic)
    return SketchStatistics(exact, quantized, int(_decides_far(params, quantized)))


def sketch_cost(params: SketchParams) -> int:
    """Exact ledger total of one run: message bits plus the answer bit."""
    if params.trivial_mode:
        return params.n + 1
    return params.block_count * params.word_width + 1


def sketch_protocol(params: SketchParams) -> Protocol:
    if params.trivial_mode:

        def alice(x: BitString, reader: StreamReader):
            _check_lengths(params.n, x.length)
            yield Send(x.value, params.n)
            answer, _ = yield RECV
            return answer

        def bob(y: BitString, reader: StreamReader):
            _check_lengths(params.n, y.length)
            payload, width = yield RECV
            distance = (payload ^ y.value).bit_count()
            decision = 1 if distance > params.close_bound else 0
            yield Send(decision, 1)
            return decision

        return Protocol(
            name="sketch-trivial", alice=alice, bob=bob, cost_bits=sketch_cost(params)
        )

    def alice(x: BitString, reader: StreamReader):
        message = alice_sketch(x, params, reader)
        yield Send(message.to_payload(), message.bit_length)
        answer, _ = yield RECV
        return answer

    def bob(y: BitString, reader: StreamReader):
        payload, width = yield RECV
        if width != params.block_count * params.word_width:
            raise ValueError("unexpected sketch message length")
        message = SketchMessage.from_payload(payload, params)
        decision, _ = bob_decide(y, message, params, reader)
        yield Send(decision, 1)
        return decision

    # Bob's statistic on a close pair is at most the bound, whatever the draws
    close_certified = not _decides_far(params, _close_statistic_bound(params))

    def batch_outputs(x: BitString, y: BitString, seeds: np.ndarray) -> np.ndarray:
        # Bob's decision for each seed: 0 on a certified close pair, else the
        # two strategies on a leading seed axis, first on the head blocks,
        # then on every block for the trials the head left open (module
        # docstring, Batch scoring).
        _check_inputs(params, x, y)
        if close_certified and (x.value ^ y.value).bit_count() <= params.close_bound:
            _log.debug("decided %d of %d close trials by the one-sided bound", len(seeds), len(seeds))
            return np.zeros(len(seeds), dtype=np.int64)
        count, length = params.block_count, params.block_length
        head = -(-count // _HEAD_DIVISOR)

        def statistics(chunk: np.ndarray, rows: int) -> np.ndarray:
            vectors = _unit_vector_values(chunk, rows, length, count)
            return _projections_and_statistic(x, y, params, vectors)[2]

        outputs = _in_batches(
            seeds, head * length, lambda chunk: _decides_far(params, statistics(chunk, head) * _HEAD_DEFLATION)
        ).astype(np.int64)
        open_trials = np.flatnonzero(outputs == 0)
        if len(open_trials):  # _in_batches would project on no seeds
            outputs[open_trials] = _in_batches(
                seeds[open_trials], params.padded_length, lambda chunk: _decides_far(params, statistics(chunk, count))
            )
        _log.debug(
            "decided %d of %d trials on the first %d of %d blocks",
            len(seeds) - len(open_trials), len(seeds), head, count,
        )
        return outputs

    return Protocol(
        name="sketch",
        alice=alice,
        bob=bob,
        cost_bits=sketch_cost(params),
        batch_outputs=batch_outputs,
    )
