import math

import pytest

from ghd.bits import GhdInstance, random_pair_at_distance
from ghd.runtime import BudgetExceededError, SharedRandomness, StreamReader, estimate_error_rate
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


def test_huge_trial_count_run_raises_before_any_draw(monkeypatch):
    params = derive_sampling_params(64, 2, 40, 1e300)
    proto = sampling_protocol(params)
    assert proto.cost_bits == params.cost_bits == params.trial_count + 1

    def no_draw(self, bound):
        raise AssertionError("a party started drawing indices")

    monkeypatch.setattr(StreamReader, "index_below", no_draw)
    x, y = random_pair_at_distance(64, 2, seed=1)
    with pytest.raises(
        BudgetExceededError,
        match=rf"^declared cost {params.cost_bits} bits exceeds the bit budget 262144 bits$",
    ):
        proto.run(x, y, 0)


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
