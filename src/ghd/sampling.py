"""Coordinate-sampling baseline protocol.

Both parties pick shared random coordinates (free under the public-coin
model), Alice sends her bit at each sampled coordinate, and Bob votes the
mismatch fraction against the midpoint threshold (close_bound + far_bound)
/ (2n).  Total cost is exactly trial_count + 1 bits on every run.

The sampled coordinates come off the shared stream as one array
(:meth:`~ghd.runtime.StreamReader.indices_below`); Alice packs her bits at
them, and Bob counts mismatches with one XOR and sum.  For Monte Carlo
sweeps, ``batch_outputs`` draws the indices of many seeds as one array and
scores every trial with the same vote.

The default trial count is the Hoeffding-derived
``ceil(2 * s * n**2 / (far_bound - close_bound)**2)``, which provably gives
two-sided error at most ``exp(-s)``.  An optional "linear" rate
``ceil(C * s * n * far_bound / (far_bound - close_bound)**2)`` is exposed for
experiments; its constant is not backed by a proof here and is validated
empirically only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString, _bits_int, _check_lengths, _check_promise, _int_bits
from .runtime import RECV, Protocol, Send, StreamReader, _in_batches, _indices_below_values

__all__ = [
    "SamplingParams",
    "derive_sampling_params",
    "sampling_protocol",
]


@dataclass(frozen=True)
class SamplingParams:
    n: int
    close_bound: int
    far_bound: int
    error_exponent: float
    trial_count: int

    @property
    def threshold(self) -> float:
        return (self.close_bound + self.far_bound) / (2 * self.n)

    @property
    def cost_bits(self) -> int:
        return self.trial_count + 1


def derive_sampling_params(
    n: int,
    close_bound: int,
    far_bound: int,
    error_exponent: float,
    rate: str = "hoeffding",
    linear_rate_constant: float = 8.0,
) -> SamplingParams:
    """Choose the trial count for a target error exponent.

    ``rate="hoeffding"`` (default) uses the provable quadratic count;
    ``rate="linear"`` uses the n * far_bound numerator with the given
    constant (finite and positive), for empirical comparison only.  Raises
    ``ValueError`` when the count overflows float64.
    """
    _check_promise(n, close_bound, far_bound, error_exponent)
    gap = far_bound - close_bound
    if rate == "hoeffding":
        trials = 2.0 * error_exponent * n * n / (gap * gap)
    elif rate == "linear":
        if not 0 < linear_rate_constant < math.inf:  # also rejects nan
            raise ValueError(
                f"linear_rate_constant must be finite and positive, got {linear_rate_constant}"
            )
        trials = linear_rate_constant * error_exponent * n * far_bound / (gap * gap)
    else:
        raise ValueError(f"unknown rate {rate!r}")
    if not math.isfinite(trials):
        raise ValueError(f"trial count {trials} is not finite")
    return SamplingParams(n, close_bound, far_bound, error_exponent, max(1, math.ceil(trials)))


def _votes_far(params: SamplingParams, mismatches):
    """Bob's vote on a mismatch count (or an array of them).

    Integer form of "mismatch fraction > (close_bound + far_bound) / (2n)":
    for an integer count k, 2n k > m (L + U) exactly when k > floor(m (L + U) / 2n).
    """
    limit = params.trial_count * (params.close_bound + params.far_bound) // (2 * params.n)
    return mismatches > limit


def sampling_protocol(params: SamplingParams) -> Protocol:
    # Sampling with replacement; indices come off the shared stream, so both
    # parties see the same array at zero communication cost.
    m = params.trial_count

    def alice(x: BitString, reader: StreamReader):
        _check_lengths(params.n, x)
        yield Send(_bits_int(x.bit_array()[reader.indices_below(params.n, m)]), m)
        answer, _ = yield RECV
        return answer

    def bob(y: BitString, reader: StreamReader):
        _check_lengths(params.n, y)
        indices = reader.indices_below(params.n, m)
        payload, _ = yield RECV
        mismatches = int((_int_bits(payload, m) ^ y.bit_array()[indices]).sum())
        decision = int(_votes_far(params, mismatches))
        yield Send(decision, 1)
        return decision

    def batch_outputs(x: BitString, y: BitString, seeds: np.ndarray) -> np.ndarray:
        # Bob's decision for each seed: the two strategies on a leading seed axis.
        _check_lengths(params.n, x, y)
        differ = x.bit_array() ^ y.bit_array()

        def decide(chunk: np.ndarray) -> np.ndarray:
            mismatches = differ[_indices_below_values(chunk, params.n, m)].sum(axis=1)
            return _votes_far(params, mismatches).astype(np.int64)

        return _in_batches(seeds, m, decide)

    return Protocol(
        name="sampling",
        alice=alice,
        bob=bob,
        cost_bits=params.cost_bits,
        batch_outputs=batch_outputs,
    )
