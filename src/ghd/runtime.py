"""Two-party protocol runtime: shared randomness, instrumented channel, bit ledger.

A protocol is a pair of message-passing strategies rather than an explicit
decision tree; the worst-case total of the bit ledger plays the role of the
protocol depth, and the ledger also records the round structure.

Strategy contract
-----------------
A strategy is a callable ``strategy(own_input, reader) -> generator`` where
``own_input`` is that party's :class:`~ghd.bits.BitString` and ``reader`` is a
private cursor over the shared random stream.  The generator communicates with
the runtime by yielding commands:

* ``Send(payload, width)`` — transmit ``width`` bits (``payload`` is the bits
  as an integer, most significant bit first, in the word format of
  :mod:`ghd.bits`).  The generator is resumed with ``None``.
* ``Recv()`` — block until the peer's next message arrives; the generator is
  resumed with the ``(payload, width)`` pair.
* ``return bit`` — terminate with this party's output.

Both parties must terminate with the same output bit.  The two inputs have
equal length: :func:`run_protocol` refuses others with ``ValueError`` before
either party starts, and a protocol built for a fixed n refuses an input of
another length the same way.  A strategy sees only
its own input, its reader, and the bits it receives, so input isolation holds
by construction; the runtime additionally rejects deadlocks, disagreeing
outputs, and runs that exceed the bit budget (default ``64 * n**2``).  A
protocol may declare its exact cost (``Protocol.cost_bits``): a declared cost
above the budget is refused before either party starts, and a ledger total
that differs from it is a contract violation.

Shared randomness is a counter-based pseudorandom stream: position ``i`` holds
a 64-bit value computed by a splitmix-style mix of ``seed`` and ``i``, so both
parties can lazily read identical positions without coordination.  Gaussian
coordinates consume exactly two stream positions each (Box-Muller, cosine
branch).

A draw of unit vectors is a pure function of (seed, position, rows, dim), so
the readers of one :class:`SharedRandomness` share a memo of them: within a
run the first party to ask computes the vectors, the second gets the same
read-only array, and each reader's cursor advances by exactly the positions
the draw used.  A :class:`StreamReader` built directly has no memo.  The
draw kernels take an array of seeds, so one call computes the same values for
many streams at once; a reader's array draws call them with its one seed from
its cursor.  The array mix (``_mix64_array``) works in place on a temporary
its caller builds, and the Gaussians are formed in place, one operation at a
time in the order of ``sqrt(-2 log u1) * cos(2 pi u2)``.

Batched trials
--------------
A protocol may set one of two batch hooks, each returning int64 outputs that
must equal the real runs' outputs exactly:

* ``Protocol.batch_outputs(x, y, seeds)``: for an array of uint64 seeds, the
  output of ``run(x, y, seed)`` for each (Monte Carlo protocols);
* ``Protocol.pair_outputs(n, xs, ys)``: for two limb matrices of n-bit
  words (row i of ``xs`` and of ``ys`` one pair, each row the word's
  big-endian 64-bit limbs), the output of ``run`` on the two words of
  each row as n-bit inputs and seed 0 (protocols that read no shared
  randomness).

:func:`estimate_error_rate` uses ``batch_outputs``, and the exact sweeps of
:mod:`ghd.experiments` use ``pair_outputs``.  Both score every trial from the
batch and run real ledgers only on audited trials: trial 0 before the batch
(so a declared cost above the budget raises before anything is allocated)
and the first trial the batch scores as an error.  A batch output that
differs from its audited run is a contract violation.  A protocol without a
batch hook goes through the same scorer (:func:`_audited_errors`), which
then runs every trial.  Each batch kernel works through its trials in
slices of bounded size (:func:`_in_batches`).

Transcript dump format (debugging): one line per message,
``direction bitcount hex-payload``, e.g. ``a->b 4 c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Generator, Iterable, NamedTuple, Sequence

import numpy as np

from .bits import BitString, GhdInstance

__all__ = [
    "MASK64",
    "mix64",
    "derive_seed",
    "SharedRandomness",
    "StreamReader",
    "Send",
    "Recv",
    "Message",
    "ChannelLedger",
    "ProtocolOutcome",
    "Protocol",
    "ProtocolError",
    "ContractViolationError",
    "BudgetExceededError",
    "run_protocol",
    "measure_worst_case_cost",
    "estimate_error_rate",
    "ErrorEstimate",
    "DEFAULT_BUDGET_FACTOR",
]

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

DEFAULT_BUDGET_FACTOR = 64


def mix64(z: int) -> int:
    """Finalizer of the splitmix64 generator (bijective 64-bit mix)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and an index path.

    Documented derivation so that parallel and serial sweeps agree:
    fold each path component into the state with the splitmix finalizer.
    """
    state = mix64(master)
    for index in path:
        state = mix64(state ^ (((index + 1) * _GOLDEN) & MASK64))
    return state


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every entry of a uint64 array, in place.

    ``z`` is overwritten and returned: callers pass a temporary.
    """
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


# Working-set cap of one batch step: trials per step times coordinates per
# trial stays at most this (at least one trial per step).
_BATCH_COORDINATES = 1 << 13


def _raw_values(seeds: np.ndarray, start: int, count: int, step: int = 1) -> np.ndarray:
    """Stream values at positions start + 1, start + 1 + step, ... of each uint64 seed.

    Shape ``(len(seeds), count)``; ``count`` positions per seed.
    """
    positions = np.arange(start + 1, start + step * count + 1, step, dtype=np.uint64)
    return _mix64_array(seeds[:, None] + positions * np.uint64(_GOLDEN))


def _gaussian_values(seeds: np.ndarray, start: int, count: int) -> np.ndarray:
    """Box-Muller Gaussians (cosine branch) of each seed from position ``start``.

    Coordinate k uses positions (start + 2k, start + 2k + 1); shape
    ``(len(seeds), count)``.  The two positions of every coordinate are
    mixed as two contiguous arrays, and each factor is formed in place in
    the order ``sqrt(-2 log u1) * cos(2 pi u2)`` takes.
    """
    u1 = (_raw_values(seeds, start, count, 2) >> np.uint64(11)).astype(np.float64)
    u1 += 1.0
    u1 *= 2.0**-53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 = (_raw_values(seeds, start + 1, count, 2) >> np.uint64(11)).astype(np.float64)
    u2 *= 2.0**-53
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def _sum_last(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of a float array, bit for bit.

    Numpy sums fewer than 8 terms left to right from +0.0, so a short last
    axis is summed by column adds in that order, one pass per column; from
    8 terms up numpy's pairwise order applies and its own sum is used.
    """
    length = a.shape[-1]
    if not 0 < length < 8:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0  # +0.0 first, as numpy's sum: -0.0 + 0.0 is +0.0
    for j in range(1, length):
        out += a[..., j]
    return out


def _row_norms(g: np.ndarray) -> np.ndarray:
    norms = _sum_last(g * g)
    return np.sqrt(norms, out=norms)


def _unit_vector_values(seeds: np.ndarray, rows: int, dim: int, total: int) -> np.ndarray:
    """The first ``rows`` rows of ``unit_vectors(total, dim)`` from a fresh reader of each seed.

    Shape ``(len(seeds), rows, dim)``, for ``rows <= total``; only those rows
    are drawn.  Row k reads its positions before any redraw does, so it
    depends on ``total`` only through a zero-norm row: a seed whose first
    ``rows`` rows hold one is redrawn through its own :class:`StreamReader`
    as the whole ``total``-row draw, whose redraws start past all of it.
    """
    g = _gaussian_values(seeds, 0, rows * dim).reshape(len(seeds), rows, dim)
    norms = _row_norms(g)
    redraw = (norms == 0.0).any(axis=1)
    norms[redraw] = 1.0
    g /= norms[..., None]
    for trial in np.flatnonzero(redraw):
        g[trial] = StreamReader(int(seeds[trial])).unit_vectors(total, dim)[:rows]
    return g


def _indices_below(raw: np.ndarray, bound: int) -> np.ndarray:
    """``(raw * bound) >> 64`` for every stream value, exactly.

    Below 2**32 from the 32-bit halves of ``raw`` (no product reaches
    2**64); from 2**32 up with Python ints.
    """
    if bound < 1 << 32:
        b = np.uint64(bound)
        high, low = raw >> np.uint64(32), raw & np.uint64(0xFFFFFFFF)
        return ((high * b + ((low * b) >> np.uint64(32))) >> np.uint64(32)).astype(np.int64)
    wide = [(int(value) * bound) >> 64 for value in raw.ravel()]
    return np.array(wide, dtype=np.int64 if bound <= 1 << 63 else object).reshape(raw.shape)


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError("bound must be >= 1")


def _indices_below_values(seeds: np.ndarray, bound: int, count: int, start: int = 0) -> np.ndarray:
    """``indices_below(bound, count)`` of a reader of each seed at position ``start``."""
    _check_bound(bound)
    return _indices_below(_raw_values(seeds, start, count), bound)


def _in_batches(rows: Sequence, coordinates: int, kernel) -> np.ndarray:
    """``kernel`` over consecutive slices of ``rows``, outputs concatenated.

    ``rows`` holds one trial per entry (a seed, a word, or a pair of inputs).
    Each slice holds ``max(1, _BATCH_COORDINATES // coordinates)`` trials,
    where ``coordinates`` is the working set of one trial.
    """
    step = max(1, _BATCH_COORDINATES // coordinates)
    parts = [kernel(rows[i : i + step]) for i in range(0, len(rows), step)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class SharedRandomness:
    """A public random source identified by its 64-bit seed.

    Not charged to communication.  Each party obtains its own
    :class:`StreamReader`; readers of the same stream observe identical
    values at identical positions.
    """

    seed: int
    # (position, rows, dim) -> (read-only unit vectors, end position)
    _draws: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def value_at(self, position: int) -> int:
        """Random-access 64-bit value at a stream position."""
        return StreamReader(self.seed, position).next_raw()

    def reader(self) -> "StreamReader":
        return StreamReader(self.seed, draws=self._draws)


class StreamReader:
    """Sequential cursor over a shared counter-based random stream."""

    def __init__(self, seed: int, position: int = 0, draws: dict | None = None) -> None:
        self.seed = seed & MASK64
        self.position = position
        self._draws = draws

    @cached_property
    def _seeds(self) -> np.ndarray:
        """The seed as the one-element array the draw kernels take; built on
        the first draw, since most readers (det, stream) never draw."""
        return np.array([self.seed], dtype=np.uint64)

    def next_raw(self) -> int:
        value = mix64((self.seed + (self.position + 1) * _GOLDEN) & MASK64)
        self.position += 1
        return value

    def next_unit(self) -> float:
        """Uniform float in (0, 1] from the top 53 bits of one position."""
        return ((self.next_raw() >> 11) + 1) * 2.0**-53

    def index_below(self, bound: int) -> int:
        """Near-uniform integer in [0, bound) via 64-bit multiply-shift."""
        _check_bound(bound)
        return (self.next_raw() * bound) >> 64

    def indices_below(self, bound: int, count: int) -> np.ndarray:
        """``count`` successive :meth:`index_below` draws as one int64 array."""
        values = _indices_below_values(self._seeds, bound, count, self.position)[0]
        self.position += count
        return values

    def gaussians(self, count: int) -> np.ndarray:
        """Standard normal draws; exactly two stream positions per coordinate.

        Box-Muller cosine branch: coordinate k uses positions
        (cursor + 2k, cursor + 2k + 1).
        """
        values = _gaussian_values(self._seeds, self.position, count)[0]
        self.position += 2 * count
        return values

    def unit_vectors(self, rows: int, dim: int) -> np.ndarray:
        """``rows`` independent uniform unit vectors in R^dim (one per row).

        Normalized Gaussian vectors; an all-zero draw (probability zero in
        exact arithmetic) is redrawn from the following stream positions.
        A reader from :meth:`SharedRandomness.reader` returns the memoized
        read-only array when a reader of the same stream drew it already.
        """
        if dim < 1:
            raise ValueError("dim must be >= 1")
        key = (self.position, rows, dim)
        hit = self._draws.get(key) if self._draws is not None else None
        if hit is not None:
            vectors, self.position = hit
            return vectors
        g = self.gaussians(rows * dim).reshape(rows, dim)
        norms = _row_norms(g)
        while (norms == 0.0).any():
            bad = norms == 0.0
            g[bad] = self.gaussians(int(bad.sum()) * dim).reshape(-1, dim)
            norms = _row_norms(g)
        g /= norms[..., None]
        if self._draws is not None:
            g.flags.writeable = False
            self._draws[key] = (g, self.position)
        return g


@dataclass(frozen=True)
class Send:
    payload: int
    width: int


@dataclass(frozen=True)
class Recv:
    pass


RECV = Recv()


@dataclass(frozen=True)
class Message:
    direction: str  # "a->b" or "b->a"
    payload: int
    width: int


@dataclass
class ChannelLedger:
    """Transcript-level record of every bit sent, by direction and round."""

    messages: list[Message] = field(default_factory=list)

    @property
    def bits_alice_to_bob(self) -> int:
        return sum(m.width for m in self.messages if m.direction == "a->b")

    @property
    def bits_bob_to_alice(self) -> int:
        return sum(m.width for m in self.messages if m.direction == "b->a")

    @property
    def total_bits(self) -> int:
        return sum(m.width for m in self.messages)

    @property
    def rounds(self) -> int:
        """Direction switches + 1 (0 when nothing was sent)."""
        if not self.messages:
            return 0
        switches = sum(
            1
            for prev, cur in zip(self.messages, self.messages[1:])
            if prev.direction != cur.direction
        )
        return switches + 1

    def dump(self) -> str:
        """One line per message: ``direction bitcount hex-payload``."""
        lines = []
        for m in self.messages:
            digits = max(1, (m.width + 3) // 4)
            lines.append(f"{m.direction} {m.width} {m.payload:0{digits}x}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ProtocolOutcome:
    output: int
    ledger: ChannelLedger


class ProtocolError(Exception):
    pass


class ContractViolationError(ProtocolError):
    pass


class BudgetExceededError(ProtocolError):
    pass


Strategy = Callable[[BitString, StreamReader], Generator]


@dataclass(frozen=True)
class Protocol:
    """A named pair of strategies runnable over the instrumented channel.

    ``cost_bits``, when given, is the exact ledger total of every run, which
    :func:`run_protocol` enforces.  ``batch_outputs(x, y, seeds)``, when
    given, returns for each uint64 seed exactly the output of
    ``run(x, y, seed)`` as an int64 array; ``pair_outputs(n, xs, ys)``
    returns for each row i of the two limb matrices exactly the output of
    ``run`` on the n-bit words of row i with seed 0 (see the module
    docstring).
    """

    name: str
    alice: Strategy
    bob: Strategy
    cost_bits: int | None = None
    batch_outputs: Callable[[BitString, BitString, np.ndarray], np.ndarray] | None = None
    pair_outputs: Callable[[int, np.ndarray, np.ndarray], np.ndarray] | None = None

    def run(
        self,
        x: BitString,
        y: BitString,
        shared: "SharedRandomness | int",
        bit_budget: int | None = None,
    ) -> ProtocolOutcome:
        return run_protocol(
            self.alice, self.bob, x, y, shared, bit_budget=bit_budget, cost_bits=self.cost_bits
        )


def _as_shared(shared: SharedRandomness | int) -> SharedRandomness:
    if isinstance(shared, SharedRandomness):
        return shared
    return SharedRandomness(int(shared) & MASK64)


# party states in run_protocol; party 0 is Alice, party 1 is Bob
_READY, _WAITING, _DONE = 0, 1, 2
_PARTY = ("a", "b")
_DIRECTION = ("a->b", "b->a")


def run_protocol(
    alice_strategy: Strategy,
    bob_strategy: Strategy,
    x: BitString,
    y: BitString,
    shared: SharedRandomness | int,
    bit_budget: int | None = None,
    *,
    cost_bits: int | None = None,
) -> ProtocolOutcome:
    """Execute a two-party protocol and account for every bit exchanged.

    Fully deterministic given (x, y, shared seed).  Raises
    :class:`ContractViolationError` on deadlock, malformed messages,
    disagreeing outputs, or a ledger total other than a declared
    ``cost_bits``, and :class:`BudgetExceededError` once more than
    ``bit_budget`` bits have been sent (default ``64 * n**2``), or before
    either party starts when ``cost_bits`` exceeds the budget.  Inputs of
    unequal length raise ``ValueError`` before either party starts.
    """
    if x.length != y.length:
        raise ValueError(f"inputs of unequal length: {x.length} and {y.length} bits")
    shared = _as_shared(shared)
    if bit_budget is None:
        bit_budget = DEFAULT_BUDGET_FACTOR * x.length * x.length
    if cost_bits is not None and cost_bits > bit_budget:
        raise BudgetExceededError(
            f"declared cost {cost_bits} bits exceeds the bit budget {bit_budget} bits"
        )

    gens = (alice_strategy(x, shared.reader()), bob_strategy(y, shared.reader()))
    state = [_READY, _READY]
    inbox = ([], [])  # (payload, width) pairs not yet received, oldest first
    outputs = [0, 0]
    messages: list[Message] = []
    total_bits = 0
    side = 0

    while True:
        if state[side] == _DONE or (state[side] == _WAITING and not inbox[side]):
            other = 1 - side
            if state[other] == _READY or (state[other] == _WAITING and inbox[other]):
                side = other
                continue
            if state[side] == state[other] == _DONE:
                break
            if _DONE in state:
                waiting = side if state[other] == _DONE else other
                raise ContractViolationError(
                    f"party {_PARTY[waiting]!r} is waiting for a message but its peer terminated"
                )
            raise ContractViolationError("deadlock: both parties waiting to receive")

        try:
            # send(None) also starts a fresh generator
            command = gens[side].send(inbox[side].pop(0) if state[side] == _WAITING else None)
        except StopIteration as stop:
            output = stop.value
            if output not in (0, 1):
                raise ContractViolationError(
                    f"party {_PARTY[side]!r} returned {output!r}, expected a bit"
                ) from None
            outputs[side] = output
            state[side] = _DONE
            continue

        if isinstance(command, Send):
            width = command.width
            if width < 1:
                raise ContractViolationError("message width must be >= 1")
            if not 0 <= command.payload < (1 << width):
                raise ContractViolationError(f"payload does not fit in {width} bits")
            total_bits += width
            if total_bits > bit_budget:
                raise BudgetExceededError(
                    f"bit budget exceeded: {total_bits} > {bit_budget}"
                )
            messages.append(Message(_DIRECTION[side], command.payload, width))
            inbox[1 - side].append((command.payload, width))
            state[side] = _READY
        elif isinstance(command, Recv):
            state[side] = _WAITING
        else:
            raise ContractViolationError(f"unknown strategy command: {command!r}")

    if outputs[0] != outputs[1]:
        raise ContractViolationError(
            f"parties disagree at termination: alice={outputs[0]} bob={outputs[1]}"
        )
    if cost_bits is not None and total_bits != cost_bits:
        raise ContractViolationError(
            f"ledger total {total_bits} bits differs from the declared cost {cost_bits} bits"
        )
    return ProtocolOutcome(output=outputs[0], ledger=ChannelLedger(messages))


def measure_worst_case_cost(
    protocol: Protocol,
    instances: Iterable[GhdInstance | tuple[BitString, BitString]],
    shared: SharedRandomness | int = 0,
) -> int:
    """Max ledger total over an instance set (the measured protocol depth)."""
    worst = None
    for instance in instances:
        if isinstance(instance, GhdInstance):
            x, y = instance.x, instance.y
        else:
            x, y = instance
        cost = protocol.run(x, y, shared).ledger.total_bits
        if worst is None or cost > worst:
            worst = cost
    if worst is None:
        raise ValueError("instance set must be nonempty")
    return worst


class ErrorEstimate(NamedTuple):
    error_rate: float
    halfwidth: float


def estimate_error_rate(
    protocol: Protocol,
    instance: GhdInstance,
    trials: int,
    seed: int,
) -> ErrorEstimate:
    """Fraction of seeds on which the protocol output differs from the truth.

    The halfwidth is the 3-sigma Monte Carlo term ``3*sqrt(p*(1-p)/trials)``.
    Instances that violate the promise are rejected (no ground truth).
    """
    return _error_trials(protocol, instance, trials, seed)[0]


def _trial_seeds(seed: int, trials: int) -> np.ndarray:
    """``derive_seed(seed, trial)`` for trial 0 .. trials - 1, as uint64."""
    steps = np.arange(1, trials + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix64_array(steps ^ np.uint64(mix64(seed)))


def _error_trials(
    protocol: Protocol, instance: GhdInstance, trials: int, seed: int
) -> tuple[ErrorEstimate, list]:
    """The error estimate and the runs made.

    Every trial is run unless the protocol has ``batch_outputs``; then only
    the audited trials are (see the module docstring).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x, y = instance.x, instance.y
    seeds = _trial_seeds(seed, trials)
    batch = protocol.batch_outputs
    errors, runs = _audited_errors(
        trials,
        instance.truth_bit(),
        lambda trial: protocol.run(x, y, int(seeds[trial])),
        None if batch is None else lambda: batch(x, y, seeds),
        lambda trial: f"trial {trial} (seed {seeds[trial]})",
    )
    rate = errors / trials
    halfwidth = 3.0 * math.sqrt(rate * (1.0 - rate) / trials)
    return ErrorEstimate(rate, halfwidth), runs


def _audited_errors(trials: int, truth: int, run, score, where) -> tuple[int, list]:
    """Errors of a batch-scored trial set, and the audited runs.

    ``run(trial)`` makes a real run (an object with ``output`` and
    ``ledger``), ``score()`` returns the batch's int64 outputs, and
    ``where(trial)`` names a trial in errors.  Trial 0 runs before the batch
    is scored, then the first trial the batch scores as an error.  With
    ``score=None`` (a protocol without a batch hook) every trial is run, and
    every run is returned.
    """
    if score is None:
        runs = [run(trial) for trial in range(trials)]
        return sum(outcome.output != truth for outcome in runs), runs
    audited = {0: run(0)}
    outputs = score()
    if outputs.shape != (trials,):
        raise ContractViolationError(
            f"batch returned outputs of shape {outputs.shape} for {trials} trials"
        )
    wrong = np.flatnonzero(outputs != truth)
    first_error = int(wrong[0]) if wrong.size else 0
    if first_error not in audited:
        audited[first_error] = run(first_error)
    for trial, outcome in audited.items():
        if outputs[trial] != outcome.output:
            raise ContractViolationError(
                f"batch output {outputs[trial]} differs from the audited run's "
                f"{outcome.output} at {where(trial)}"
            )
    return int(wrong.size), list(audited.values())
