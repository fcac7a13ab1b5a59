import dataclasses
import math

import numpy as np
import pytest

from ghd import sampling
from ghd.bits import GhdInstance, random_pair_at_distance
from ghd.runtime import (
    BudgetExceededError,
    SharedRandomness,
    StreamReader,
    derive_seed,
    estimate_error_rate,
)
from ghd.sampling import derive_sampling_params, sampling_protocol


def test_derived_trial_counts():
    assert derive_sampling_params(100, 0, 100, 1).trial_count == 2
    assert derive_sampling_params(100, 40, 60, 1).trial_count == 50
    assert derive_sampling_params(100, 40, 60, 1).threshold == 0.5


def test_linear_rate_mode():
    params = derive_sampling_params(100, 40, 60, 1, rate="linear", linear_rate_constant=8.0)
    assert params.trial_count == math.ceil(8 * 1 * 100 * 60 / 400)
    with pytest.raises(ValueError):
        derive_sampling_params(100, 40, 60, 1, rate="bogus")


@pytest.mark.parametrize(
    "s, rate, constant, reason",
    [
        (1e308, "hoeffding", 8.0, "trial count inf is not finite"),
        (1e308, "linear", 8.0, "trial count inf is not finite"),
        (1.0, "linear", math.inf, "linear_rate_constant must be finite and positive"),
        (1.0, "linear", math.nan, "linear_rate_constant must be finite and positive"),
        (1.0, "linear", 0.0, "linear_rate_constant must be finite and positive"),
        (1.0, "linear", -2.0, "linear_rate_constant must be finite and positive"),
    ],
)
def test_trial_count_faults_raise_value_error(s, rate, constant, reason):
    with pytest.raises(ValueError, match=reason):
        derive_sampling_params(64, 2, 40, s, rate=rate, linear_rate_constant=constant)


def test_huge_finite_trial_count_is_exact_ceiling():
    params = derive_sampling_params(64, 2, 40, 1e300)
    assert params.trial_count == math.ceil(2.0 * 1e300 * 64 * 64 / 38**2)


def forbid_index_draws(monkeypatch):
    """Make every sampling index draw, per run or batched, fail at once."""

    def no_draw(*args):
        raise AssertionError("sampling indices were drawn")

    monkeypatch.setattr(StreamReader, "index_below", no_draw)
    monkeypatch.setattr(StreamReader, "indices_below", no_draw)
    monkeypatch.setattr(sampling, "_indices_below_values", no_draw)


def test_huge_trial_count_run_raises_before_any_draw(monkeypatch):
    params = derive_sampling_params(64, 2, 40, 1e300)
    proto = sampling_protocol(params)
    assert proto.cost_bits == params.cost_bits == params.trial_count + 1

    forbid_index_draws(monkeypatch)
    x, y = random_pair_at_distance(64, 2, seed=1)
    with pytest.raises(
        BudgetExceededError,
        match=rf"^declared cost {params.cost_bits} bits exceeds the bit budget 262144 bits$",
    ):
        proto.run(x, y, 0)


def test_huge_trial_count_estimate_raises_before_any_draw(monkeypatch):
    proto = sampling_protocol(derive_sampling_params(64, 2, 40, 1e300))
    forbid_index_draws(monkeypatch)
    close = GhdInstance.at_distance(64, 2, 40, 2, seed=1)
    with pytest.raises(BudgetExceededError, match="^declared cost .* exceeds the bit budget 262144 bits$"):
        estimate_error_rate(proto, close, 100, 0)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        derive_sampling_params(100, 60, 60, 1)
    with pytest.raises(ValueError):
        derive_sampling_params(100, 0, 101, 1)
    with pytest.raises(ValueError):
        derive_sampling_params(100, 0, 100, 0)


def test_equal_inputs_always_answer_zero():
    params = derive_sampling_params(64, 8, 40, 1)
    x, _ = random_pair_at_distance(64, 0, seed=0)
    for seed in range(50):
        assert sampling_protocol(params).run(x, x, seed).output == 0


def test_complement_inputs_always_answer_one():
    params = derive_sampling_params(64, 8, 40, 1)
    x, _ = random_pair_at_distance(64, 0, seed=1)
    y = x.complement()
    for seed in range(50):
        assert sampling_protocol(params).run(x, y, seed).output == 1


def test_cost_is_exactly_m_plus_one_every_run():
    params = derive_sampling_params(50, 5, 30, 1.5)
    x, y = random_pair_at_distance(50, 17, seed=2)
    for seed in range(30):
        outcome = sampling_protocol(params).run(x, y, seed)
        assert outcome.ledger.total_bits == params.trial_count + 1
        assert outcome.ledger.bits_alice_to_bob == params.trial_count
        assert outcome.ledger.bits_bob_to_alice == 1


def test_error_rates_within_hoeffding_bound():
    params = derive_sampling_params(100, 10, 90, 2)
    proto = sampling_protocol(params)
    bound = math.exp(-2)
    trials = 2000
    slack = 3 * math.sqrt(bound / trials)
    close = GhdInstance.at_distance(100, 10, 90, 10, seed=3)
    rate, _ = estimate_error_rate(proto, close, trials, seed=4)
    assert rate <= bound + slack
    far = GhdInstance.at_distance(100, 10, 90, 90, seed=5)
    rate, _ = estimate_error_rate(proto, far, trials, seed=6)
    assert rate <= bound + slack


def test_mismatch_count_monotone_under_extra_flip():
    # flipping a sampled agreeing coordinate can only push the vote toward 1
    params = derive_sampling_params(32, 4, 20, 1)
    shared = SharedRandomness(77)
    reader = shared.reader()
    indices = [reader.index_below(params.n) for _ in range(params.trial_count)]
    x, y = random_pair_at_distance(32, 6, seed=7)
    agreeing = [i for i in indices if x.bit(i) == y.bit(i)]
    if not agreeing:
        pytest.skip("no sampled agreeing coordinate for this seed")

    def mismatches(yy):
        outcome = sampling_protocol(params).run(x, yy, shared)
        payload = outcome.ledger.messages[0].payload
        width = outcome.ledger.messages[0].width
        return sum(
            ((payload >> (width - 1 - j)) & 1) ^ yy.bit(i) for j, i in enumerate(indices)
        )

    base = mismatches(y)
    bumped = mismatches(y.flip([agreeing[0]]))
    assert bumped >= base


def test_deterministic_given_seed():
    params = derive_sampling_params(40, 5, 25, 1)
    x, y = random_pair_at_distance(40, 25, seed=8)
    a = sampling_protocol(params).run(x, y, 123)
    b = sampling_protocol(params).run(x, y, 123)
    assert a.output == b.output
    assert a.ledger.messages == b.ledger.messages


def _bitwise_reference(params, x, y, seed):
    """The payload and decision of the coordinate-by-coordinate protocol."""
    reader = SharedRandomness(seed).reader()
    indices = [reader.index_below(params.n) for _ in range(params.trial_count)]
    payload = 0
    for i in indices:
        payload = (payload << 1) | x.bit(i)
    mismatches = sum(x.bit(i) ^ y.bit(i) for i in indices)
    decision = 1 if 2 * params.n * mismatches > params.trial_count * (params.close_bound + params.far_bound) else 0
    return payload, decision


@pytest.mark.parametrize(
    "point, rate", [((50, 5, 30, 1.5), "hoeffding"), ((512, 4, 256, 200), "hoeffding"), ((100, 30, 60, 1), "linear")]
)
def test_array_strategies_match_the_bitwise_protocol(point, rate):
    params = derive_sampling_params(*point, rate=rate)
    n = params.n
    for seed in range(12):
        x, y = random_pair_at_distance(n, (seed * 7) % (n + 1), seed=seed)
        outcome = sampling_protocol(params).run(x, y, seed)
        payload, decision = _bitwise_reference(params, x, y, seed)
        assert outcome.ledger.messages[0].payload == payload
        assert outcome.output == outcome.ledger.messages[1].payload == decision


@pytest.mark.parametrize(
    "point, rate, distances",
    [
        ((512, 4, 256, 2), "hoeffding", (4, 130, 256)),  # the mc_sweep points
        ((512, 4, 256, 3), "hoeffding", (0, 130, 300)),
        ((2048, 8, 1024, 2), "hoeffding", (8, 520, 1024)),
        ((512, 4, 256, 2), "linear", (4, 40, 256)),
        ((100, 30, 60, 1), "hoeffding", (30, 45, 60)),
    ],
)
def test_batch_outputs_equal_protocol_runs(point, rate, distances):
    params = derive_sampling_params(*point, rate=rate)
    proto = sampling_protocol(params)
    seeds = np.array([derive_seed(point[0], trial) for trial in range(300)], dtype=np.uint64)
    split = False
    for d in distances:
        x, y = random_pair_at_distance(params.n, d, seed=d)
        outputs = proto.batch_outputs(x, y, seeds)
        assert outputs.dtype == np.int64
        assert outputs.tolist() == [proto.run(x, y, int(seed)).output for seed in seeds]
        split |= 0 < outputs.sum() < len(seeds)
    assert split


def test_batched_error_rate_matches_the_run_loop():
    proto = sampling_protocol(derive_sampling_params(100, 30, 60, 1))
    far = GhdInstance.at_distance(100, 30, 60, 60, seed=2)
    unbatched = dataclasses.replace(proto, batch_outputs=None)
    assert estimate_error_rate(proto, far, 500, 3) == estimate_error_rate(unbatched, far, 500, 3)
