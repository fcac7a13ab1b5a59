"""Reduction from the gap promise to deterministic distinct-count streaming.

Each party encodes its n-bit input as a token stream over the universe
{1, ..., 2n}: position i (1-indexed, in the word format of :mod:`ghd.bits`)
carries token ``n * bit_i + i``, so the concatenated stream has exactly
``n + H(x, y)`` distinct tokens.  A p-pass deterministic algorithm with
memory S can then decide "x = y or distance >= gap" with at most ``2 p S``
bits of communication: the parties shuttle state snapshots at every stream
boundary (2p - 1 handoffs) and Bob thresholds the final estimate at
``n + gap``.

Algorithm plug-in contract
--------------------------
Subclass :class:`StreamingAlgorithm` with five behaviors:

* ``start_pass(pass_index)`` — called once at the start of each pass by
  whichever party holds the state;
* ``consume(token)`` — process one token (a Python int);
* ``snapshot() -> StateSnapshot`` — serialize the complete evolving state as
  a byte string with an explicit bit length; ``restore(snapshot)`` must
  reproduce subsequent behavior bit for bit;
* ``estimate() -> int`` — the output E after the final pass.

The runs hand a whole pass of tokens to ``consume_all(tokens)``, a
one-dimensional int64 array.  Its default calls ``consume`` once per token,
in order; an algorithm may override it with a batch update that leaves the
same state.

Sweeps score many streams at once through ``final_estimates(token_rows)``:
for each row of a two-dimensional int64 token array, the estimate after
``passes`` passes over that row, each run from the machine's state at the
call, as an int64 array.  Its default uses only the five behaviors above: it
takes one snapshot, and for each row restores it, runs every pass
(``start_pass`` then ``consume_all``) and reads ``estimate()``.  An
algorithm may override it with a batch kernel that returns the same
estimates; the state it leaves is unspecified.  The reduction's
single-machine check is a one-row call.

The metered memory S is the largest snapshot in the run's ledger: every
message but Bob's final one-bit decision is one snapshot at its exact bit
length, so S is exactly what the reduction communicates per handoff.
Algorithms must be deterministic; the harness replays every run and raises
on any divergence.

Stream fixture format: one token per line, a positive decimal with no sign,
underscore or leading zero.

Two algorithms ship with the module, sharing one bitmap implementation:
:class:`ExactBitmapF0` (a presence bitmap over the universe, S = 2n, exact)
and its subclass :class:`TruncatedBitmapF0` (a deliberately undersized
bitmap for the falsification harness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .bits import BitString, _bits_int, _check_lengths, _check_limb_pairs, _int_bits, _limb_bits, _parse_decimal, _read_text, hamming_distance, random_pair_at_distance
from .covering import det_complexity_bounds
from .runtime import (
    RECV,
    ChannelLedger,
    ContractViolationError,
    Protocol,
    ProtocolOutcome,
    Send,
    StreamReader,
    _in_batches,
    derive_seed,
)

__all__ = [
    "StateSnapshot",
    "StreamingAlgorithm",
    "ExactBitmapF0",
    "TruncatedBitmapF0",
    "encode_streams",
    "exact_f0",
    "ReductionRun",
    "RunMeter",
    "ghd_via_streaming",
    "streaming_protocol",
    "stream_gap",
    "SpaceBound",
    "space_lower_bound",
    "CounterexampleReport",
    "search_counterexample",
    "write_stream_fixture",
    "read_stream_fixture",
]


def _check_factor(approx_factor: float) -> None:
    if not 1.0 < approx_factor < 2.0:
        raise ValueError("c must lie strictly between 1 and 2")


@lru_cache(maxsize=256)
def stream_gap(n: int, approx_factor: float) -> int:
    """The promise gap ``ceil(n * (approx_factor - 1))``, computed exactly.

    The factor is read as the decimal it prints as, so ``1.1`` means 11/10:
    in float arithmetic ``10 * (1.1 - 1.0)`` exceeds 1 and the ceiling would
    come out one too large.  Cached because every protocol run asks for it.
    """
    _check_factor(approx_factor)
    return math.ceil(n * (Fraction(str(approx_factor)) - 1))


@dataclass(frozen=True)
class StateSnapshot:
    data: bytes
    bit_length: int

    def __post_init__(self) -> None:
        if self.bit_length < 1:
            raise ValueError("snapshot bit length must be >= 1")
        if len(self.data) * 8 < self.bit_length:
            raise ValueError("snapshot data shorter than its declared bit length")


class StreamingAlgorithm:
    """Base class for deterministic p-pass streaming algorithms."""

    passes: int = 1

    def start_pass(self, pass_index: int) -> None:
        raise NotImplementedError

    def consume(self, token: int) -> None:
        raise NotImplementedError

    def consume_all(self, tokens: np.ndarray) -> None:
        """Consume a one-dimensional int64 token array in order."""
        for token in tokens.tolist():
            self.consume(token)

    def snapshot(self) -> StateSnapshot:
        raise NotImplementedError

    def restore(self, snapshot: StateSnapshot) -> None:
        raise NotImplementedError

    def estimate(self) -> int:
        raise NotImplementedError

    def final_estimates(self, token_rows: np.ndarray) -> np.ndarray:
        """The estimate after ``passes`` passes over each row, from the current state."""
        start = self.snapshot()
        estimates = np.zeros(len(token_rows), dtype=np.int64)
        for row, tokens in enumerate(token_rows):
            self.restore(start)
            for pass_index in range(self.passes):
                self.start_pass(pass_index)
                self.consume_all(tokens)
            estimates[row] = self.estimate()
        return estimates


class ExactBitmapF0(StreamingAlgorithm):
    """Presence bitmap over the whole universe: exact, S = universe_size bits.

    Bit ``token - 1`` records a token; only the first ``capacity_bits``
    tokens of the universe are recorded (all of them here).
    """

    def __init__(self, universe_size: int, passes: int = 1) -> None:
        if universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        if passes < 1:
            raise ValueError("passes must be >= 1")
        self.universe_size = universe_size
        self.capacity_bits = universe_size
        self.passes = passes
        self._bitmap = 0

    def start_pass(self, pass_index: int) -> None:
        pass  # the bitmap accumulates across passes

    def consume(self, token: int) -> None:
        if not 1 <= token <= self.universe_size:
            raise ValueError(f"token {token} outside universe [1, {self.universe_size}]")
        if token <= self.capacity_bits:
            self._bitmap |= 1 << (token - 1)

    def _check_tokens(self, tokens: np.ndarray) -> None:
        outside = (tokens < 1) | (tokens > self.universe_size)
        if outside.any():
            token = int(tokens.flat[outside.argmax()])
            raise ValueError(f"token {token} outside universe [1, {self.universe_size}]")

    def consume_all(self, tokens: np.ndarray) -> None:
        self._check_tokens(tokens)
        present = np.zeros(self.universe_size, dtype=bool)
        present[tokens - 1] = True
        # bit token - 1, up to the capacity: the presence vector read backwards
        self._bitmap |= _bits_int(present[: self.capacity_bits][::-1])

    def final_estimates(self, token_rows: np.ndarray) -> np.ndarray:
        # Every pass sets the same bits, so one presence matrix over the rows,
        # merged with the bits already held and cut at the capacity, counts
        # each row's final bitmap.
        self._check_tokens(token_rows)
        present = np.zeros((len(token_rows), self.universe_size), dtype=bool)
        present[np.arange(len(token_rows))[:, None], token_rows - 1] = True
        held = _int_bits(self._bitmap, self.capacity_bits)[::-1].view(bool)
        return (present[:, : self.capacity_bits] | held).sum(axis=1, dtype=np.int64)

    def snapshot(self) -> StateSnapshot:
        return _wire_to_snapshot(self._bitmap, self.capacity_bits)

    def restore(self, snapshot: StateSnapshot) -> None:
        if snapshot.bit_length != self.capacity_bits:
            raise ValueError("snapshot does not match this bitmap's size")
        self._bitmap = int.from_bytes(snapshot.data, "big")

    def estimate(self) -> int:
        return self._bitmap.bit_count()


class TruncatedBitmapF0(ExactBitmapF0):
    """Bitmap over only the first capacity_bits tokens: deliberately unsound.

    Tokens above the capacity are dropped, so the estimate undercounts;
    useful as a known-bad candidate for the falsification harness.
    """

    def __init__(self, universe_size: int, capacity_bits: int, passes: int = 1) -> None:
        super().__init__(universe_size, passes)
        if not 1 <= capacity_bits <= universe_size:
            raise ValueError("capacity must be in [1, universe_size]")
        self.capacity_bits = capacity_bits


def _bitmap_run_bits(capacity_bits: int, passes: int) -> int:
    """A bitmap reduction run's ledger total: 2p - 1 snapshots and Bob's bit."""
    return (2 * passes - 1) * capacity_bits + 1


def encode_streams(x: BitString, y: BitString, n: int) -> tuple[list[int], list[int]]:
    """Token streams ``u_i = n * x_i + i`` and ``v_i = n * y_i + i`` (i from 1)."""
    _check_lengths(n, x.length, y.length)
    return _tokens(x.bit_array()).tolist(), _tokens(y.bit_array()).tolist()


def _tokens(bits: np.ndarray) -> np.ndarray:
    """The tokens ``n * bit_i + i`` (i from 1) of an n-bit word's bits, or of each row of bits."""
    n = bits.shape[-1]
    # int64 before the product: n * bit in uint8 would wrap for n >= 256
    return bits.astype(np.int64) * n + np.arange(1, n + 1, dtype=np.int64)


def exact_f0(stream: Iterable[int]) -> int:
    """Exact distinct-token count (the oracle the harness is checked against)."""
    return len(set(stream))


class ReductionRun(NamedTuple):
    n: int
    approx_factor: float
    gap: int
    distinct_count: int
    estimate: int
    state_bits: int
    passes: int
    communication_bits: int
    output: int
    ledger: ChannelLedger


def _snapshot_to_wire(snapshot: StateSnapshot) -> tuple[int, int]:
    payload = int.from_bytes(snapshot.data, "big")
    if payload >= (1 << snapshot.bit_length):
        raise ContractViolationError(
            "snapshot has set bits beyond its declared bit length"
        )
    return payload, snapshot.bit_length


def _wire_to_snapshot(payload: int, width: int) -> StateSnapshot:
    return StateSnapshot(payload.to_bytes((width + 7) // 8, "big"), width)


@dataclass
class RunMeter:
    """Side-channel record of a reduction run: Bob's final estimate (S is in the ledger)."""

    estimates: list[int] = field(default_factory=list)


def streaming_protocol(
    algorithm_factory: Callable[[], StreamingAlgorithm],
    approx_factor: float,
    meter: RunMeter | None = None,
) -> Protocol:
    """The reduction as a two-party protocol with snapshot handoffs.

    ``algorithm_factory`` builds one machine per party; state travels over
    the channel as snapshots, charged at their exact bit length.  When a
    ``meter`` is given it records Bob's final estimate.  ``pair_outputs(n,
    xs, ys)`` takes the n-bit words of both parties as limb matrices and
    decides each pair from one machine's ``final_estimates`` over the
    concatenated streams, a fresh machine per slice of pairs.
    """
    _check_factor(approx_factor)

    def decides_far(n: int, estimate):
        # Bob's rule on a final estimate (or an array of them)
        return estimate >= n + stream_gap(n, approx_factor)

    def alice(x: BitString, reader: StreamReader):
        machine = algorithm_factory()
        tokens = _tokens(x.bit_array())
        passes = machine.passes
        for pass_index in range(passes):
            if pass_index == 0:
                machine.start_pass(0)
            else:
                payload, width = yield RECV
                machine.restore(_wire_to_snapshot(payload, width))
                machine.start_pass(pass_index)
            machine.consume_all(tokens)
            yield Send(*_snapshot_to_wire(machine.snapshot()))
        answer, _ = yield RECV
        return answer

    def bob(y: BitString, reader: StreamReader):
        machine = algorithm_factory()
        tokens = _tokens(y.bit_array())
        passes = machine.passes
        for pass_index in range(passes):
            payload, width = yield RECV
            machine.restore(_wire_to_snapshot(payload, width))
            machine.consume_all(tokens)
            if pass_index < passes - 1:
                yield Send(*_snapshot_to_wire(machine.snapshot()))
        estimate = machine.estimate()
        if meter is not None:
            meter.estimates.append(estimate)
        decision = int(decides_far(y.length, estimate))
        yield Send(decision, 1)
        return decision

    def pair_outputs(n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        _check_limb_pairs(n, xs, ys)

        def decide(pairs: np.ndarray) -> np.ndarray:
            # row i: x's tokens, then y's
            tokens = _tokens(_limb_bits(pairs.reshape(-1, pairs.shape[2]), n)).reshape(len(pairs), 2 * n)
            estimates = algorithm_factory().final_estimates(tokens)
            return decides_far(n, estimates).astype(np.int64)

        return _in_batches(np.stack((xs, ys), axis=1), 2 * n, decide)

    return Protocol(name="streaming-reduction", alice=alice, bob=bob, pair_outputs=pair_outputs)


def ghd_via_streaming(
    algorithm_factory: Callable[[], StreamingAlgorithm],
    approx_factor: float,
    x: BitString,
    y: BitString,
    check_determinism: bool = True,
) -> tuple[int, ReductionRun]:
    """Decide the promise through a plugged streaming algorithm.

    Outputs 0 exactly when the final estimate is below ``n + gap`` with
    ``gap = ceil(n * (approx_factor - 1))``.  Communication is asserted to
    stay within ``2 * passes * S`` where S is the largest snapshot in the
    ledger.  With ``check_determinism`` the whole exchange is replayed and
    any transcript divergence raises :class:`ContractViolationError`.  A
    plug-in that declares fewer than one pass raises ``ValueError`` before
    the run, as the run does for inputs of unequal length.
    """
    n = x.length
    gap = stream_gap(n, approx_factor)
    # the declared p, not the ledger's: a check against the ledger always passes
    passes = algorithm_factory().passes
    if passes < 1:
        raise ValueError(f"streaming plug-in declares passes = {passes!r}; it must be >= 1")

    def run_once() -> tuple[ProtocolOutcome, int]:
        meter = RunMeter()
        outcome = streaming_protocol(algorithm_factory, approx_factor, meter).run(x, y, 0)
        return outcome, meter.estimates[-1]

    outcome, estimate = run_once()
    if check_determinism:
        replay, replay_estimate = run_once()
        if (
            replay.ledger.messages != outcome.ledger.messages
            or replay.output != outcome.output
            or replay_estimate != estimate
        ):
            raise ContractViolationError(
                "streaming algorithm is not deterministic: replay diverged"
            )
        # reference: one machine over the concatenated stream
        tokens = np.concatenate((_tokens(x.bit_array()), _tokens(y.bit_array())))
        if algorithm_factory().final_estimates(tokens[None, :])[0] != estimate:
            raise ContractViolationError(
                "snapshot round-trip broke the run: the handoff execution and "
                "a single-machine execution disagree"
            )

    # every message but the final one-bit decision is one snapshot
    state_max = max(m.width for m in outcome.ledger.messages[:-1])
    communication = outcome.ledger.total_bits
    if communication > 2 * passes * state_max:
        raise ContractViolationError(
            f"communication {communication} exceeds 2*p*S = {2 * passes * state_max}"
        )

    run = ReductionRun(
        n=n,
        approx_factor=approx_factor,
        gap=gap,
        distinct_count=n + hamming_distance(x, y),
        estimate=estimate,
        state_bits=state_max,
        passes=passes,
        communication_bits=communication,
        output=outcome.output,
        ledger=outcome.ledger,
    )
    return outcome.output, run


class SpaceBound(NamedTuple):
    gap: int
    state_bits_floor: float
    asymptotic: float


def space_lower_bound(n: int, approx_factor: float, passes: int) -> SpaceBound:
    """Memory floor implied by the reduction for a sound algorithm.

    ``state_bits_floor`` is the lower bound of :func:`~ghd.covering.det_complexity_bounds`
    at ``gap = ceil(n * (approx_factor - 1))`` over ``2 * passes``, since a
    p-pass algorithm with S state bits is a 2pS-bit protocol: any correct
    deterministic approximation within the factor needs that many state bits
    up to an O(log n) term.  ``asymptotic`` is the familiar
    ``n * (2 - approx_factor)**2 / passes`` shape, for comparison.
    """
    gap = stream_gap(n, approx_factor)
    if passes < 1:
        raise ValueError("passes must be >= 1")
    precursor = det_complexity_bounds(n, gap).lower / (2.0 * passes)
    asymptotic = n * (2.0 - approx_factor) ** 2 / passes
    return SpaceBound(gap, precursor, asymptotic)


class CounterexampleReport(NamedTuple):
    found: bool
    x: BitString | None
    y: BitString | None
    expected: int | None
    output: int | None
    trials: int


def search_counterexample(
    algorithm_factory: Callable[[], StreamingAlgorithm],
    approx_factor: float,
    n: int,
    trials: int,
    seed: int,
) -> CounterexampleReport:
    """Hunt for a promise pair the plugged algorithm decides incorrectly.

    Intended for candidates whose metered memory falls below the space floor:
    finding an erring pair is then expected.  Not finding one is inconclusive
    and reported as such (found=False).
    """
    gap = stream_gap(n, approx_factor)
    for trial in range(trials):
        trial_seed = derive_seed(seed, trial)
        if trial % 2 == 0:
            x, _ = random_pair_at_distance(n, 0, trial_seed)
            y = x
            expected = 0
        else:
            d = gap + (trial_seed % (n - gap + 1))
            x, y = random_pair_at_distance(n, d, trial_seed)
            expected = 1
        output, _ = ghd_via_streaming(
            algorithm_factory, approx_factor, x, y, check_determinism=False
        )
        if output != expected:
            return CounterexampleReport(True, x, y, expected, output, trial + 1)
    return CounterexampleReport(False, None, None, None, None, trials)


def write_stream_fixture(tokens: Sequence[int], path: str | Path) -> None:
    """One decimal token per line."""
    Path(path).write_text("\n".join(str(t) for t in tokens) + "\n")


def read_stream_fixture(path: str | Path) -> list[int]:
    """Tokens of a fixture: positive plain decimals, one per line.

    A bad line raises ``ValueError`` naming the file and the line.
    """
    tokens = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            token = _parse_decimal(line.strip())
            if token < 1:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"{path}, line {lineno}: not a positive decimal token: {line!r}"
            ) from None
        tokens.append(token)
    return tokens
