"""Coordinate-sampling baseline protocol.

Both parties pick shared random coordinates (free under the public-coin
model), Alice sends her bit at each sampled coordinate, and Bob votes the
mismatch fraction against the midpoint threshold (close_bound + far_bound)
/ (2n).  Total cost is exactly trial_count + 1 bits on every run.

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

from .bits import BitString, _check_promise
from .runtime import RECV, Protocol, Send, StreamReader

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


def _sample_indices(params: SamplingParams, reader: StreamReader) -> list[int]:
    # Sampling with replacement; indices come off the shared stream, so both
    # parties see the same list at zero communication cost.
    return [reader.index_below(params.n) for _ in range(params.trial_count)]


def sampling_protocol(params: SamplingParams) -> Protocol:
    m = params.trial_count
    # Integer form of "mismatch fraction > (close_bound + far_bound) / (2n)".
    vote_scale = 2 * params.n
    vote_limit = m * (params.close_bound + params.far_bound)

    def alice(x: BitString, reader: StreamReader):
        indices = _sample_indices(params, reader)
        payload = 0
        for i in indices:
            payload = (payload << 1) | x.bit(i)
        yield Send(payload, m)
        answer, _ = yield RECV
        return answer

    def bob(y: BitString, reader: StreamReader):
        indices = _sample_indices(params, reader)
        payload, width = yield RECV
        mismatches = 0
        for j, i in enumerate(indices):
            alice_bit = (payload >> (width - 1 - j)) & 1
            mismatches += alice_bit ^ y.bit(i)
        decision = 1 if vote_scale * mismatches > vote_limit else 0
        yield Send(decision, 1)
        return decision

    return Protocol(name="sampling", alice=alice, bob=bob, cost_bits=params.cost_bits)

