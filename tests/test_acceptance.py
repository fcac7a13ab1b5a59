"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from ghd.bits import BitString, ball_volume, hamming_distance, random_pair_at_distance
from ghd.covering import (
    det_complexity_bounds,
    det_protocol,
    det_protocol_params,
    greedy_covering_code,
    audit_covering,
)
from ghd.runtime import derive_seed
from ghd.sampling import derive_sampling_params, sampling_protocol
from ghd.sketch import (
    derive_sketch_params,
    guarantee_floor,
    sketch_cost,
    sketch_protocol,
    sketch_statistics,
)
from ghd.streaming import ExactBitmapF0, encode_streams, exact_f0, ghd_via_streaming, stream_gap

REFERENCE = dict(n=512, close_bound=4, far_bound=256)
TRIALS = 10_000

# criteria 1-2 accumulate the per-run statistic checks consumed by criterion 3
_chain = {"checked": 0, "stat_bound_violations": 0, "closeness_violations": 0}


def _report(number: int, passed: bool, description: str) -> None:
    print(f"criterion {number:2d} {'PASS' if passed else 'FAIL'}: {description}")


def _check_run_chain(stats, distance: int, n: int) -> None:
    _chain["checked"] += 1
    if stats.exact_statistic > distance + 1e-6:
        _chain["closeness_violations"] += 1
    if abs(stats.exact_statistic - stats.received_statistic) > 5.0 / n + 1e-6:
        _chain["stat_bound_violations"] += 1


@pytest.fixture(scope="module")
def code_cache():
    cache = {}

    def get(n, radius):
        if (n, radius) not in cache:
            cache[(n, radius)] = greedy_covering_code(n, radius)
        return cache[(n, radius)]

    return get


def test_criterion_01_one_sidedness():
    """(512, 4, 256, 2): 10^4 runs with distance <= 4 all answer 0."""
    n, lo, hi = REFERENCE["n"], REFERENCE["close_bound"], REFERENCE["far_bound"]
    params = derive_sketch_params(n, lo, hi, 2.0)
    assert guarantee_floor(n, lo, hi) <= 2.0  # about 0.001, so s = 2 is admissible
    proto = sketch_protocol(params)
    start = time.time()
    wrong = 0
    for trial in range(TRIALS):
        d = trial % (lo + 1)
        x, y = random_pair_at_distance(n, d, derive_seed(101, trial))
        seed = derive_seed(102, trial)
        outcome = proto.run(x, y, seed)
        stats = sketch_statistics(x, y, params, seed)
        assert outcome.output == stats.decision
        _check_run_chain(stats, d, n)
        wrong += outcome.output != 0
    elapsed = time.time() - start
    passed = wrong == 0
    _report(1, passed, f"one-sidedness 0/{TRIALS} close-side errors ({elapsed:.0f}s)")
    assert passed, f"{wrong} close-side errors observed"
    assert elapsed < 120.0


def test_criterion_02_error_exponent():
    """Distance exactly 256: error <= exp(-s) + 3*sqrt(exp(-s)/10^4) for s in 1..3."""
    n, lo, hi = REFERENCE["n"], REFERENCE["close_bound"], REFERENCE["far_bound"]
    start = time.time()
    results = []
    all_ok = True
    for s in (1.0, 2.0, 3.0):
        params = derive_sketch_params(n, lo, hi, s)
        proto = sketch_protocol(params)
        wrong = 0
        for trial in range(TRIALS):
            x, y = random_pair_at_distance(n, hi, derive_seed(201, int(s), trial))
            seed = derive_seed(202, int(s), trial)
            outcome = proto.run(x, y, seed)
            stats = sketch_statistics(x, y, params, seed)
            assert outcome.output == stats.decision
            _check_run_chain(stats, hi, n)
            wrong += outcome.output != 1
        bound = math.exp(-s) + 3.0 * math.sqrt(math.exp(-s) / TRIALS)
        ok = wrong / TRIALS <= bound
        all_ok = all_ok and ok
        results.append(f"s={s:g}: {wrong / TRIALS:.4f}<={bound:.4f}")
    elapsed = time.time() - start
    _report(2, all_ok, f"far-side error rates {'; '.join(results)} ({elapsed:.0f}s)")
    assert all_ok
    assert elapsed < 600.0


def test_criterion_03_numeric_bound_chain():
    """Every criterion 1-2 run satisfied T <= H + 1e-6 and |T - T'| <= 5/n + 1e-6."""
    checked = _chain["checked"]
    passed = (
        checked >= 4 * TRIALS
        and _chain["closeness_violations"] == 0
        and _chain["stat_bound_violations"] == 0
    )
    _report(3, passed, f"bound chain held on all {checked} instrumented runs")
    assert passed, _chain


def test_criterion_04_projection_mean():
    """Distance 64 at block length 2: mean statistic within 5 SE of 64/2."""
    params = derive_sketch_params(**{
        "n": REFERENCE["n"],
        "close_bound": REFERENCE["close_bound"],
        "far_bound": REFERENCE["far_bound"],
        "error_exponent": 2.0,
    })
    assert params.block_length == 2
    x, y = random_pair_at_distance(params.n, 64, seed=401)
    samples = np.empty(TRIALS)
    for trial in range(TRIALS):
        samples[trial] = sketch_statistics(x, y, params, derive_seed(402, trial)).exact_statistic
    expected = 64 / params.block_length
    stderr = samples.std(ddof=1) / math.sqrt(TRIALS)
    deviation = abs(samples.mean() - expected)
    passed = deviation < 5 * stderr
    _report(4, passed, f"mean statistic {samples.mean():.3f} vs {expected} (5SE={5 * stderr:.3f})")
    assert passed


def test_criterion_05_cost_envelope():
    """Measured bits <= 40 * (s/U)^(1/3) * n * log2(n) over the sweep grid."""
    measured_points = 0
    worst_ratio = 0.0
    all_ok = True
    for n in (128, 256, 512, 1024):
        hi_options = (n // 4, n // 2)
        for hi in hi_options:
            for lo in (0, 4):
                for s in (hi / 2048, hi / 512, hi / 64, 2.0):
                    if lo >= hi or s < guarantee_floor(n, lo, hi):
                        continue
                    params = derive_sketch_params(n, lo, hi, s)
                    proto = sketch_protocol(params)
                    x, y = random_pair_at_distance(n, lo, derive_seed(501, measured_points))
                    bits = proto.run(x, y, derive_seed(502, measured_points)).ledger.total_bits
                    assert bits == sketch_cost(params)
                    envelope = 40.0 * (s / hi) ** (1.0 / 3.0) * n * math.log2(n)
                    ratio = bits / envelope
                    worst_ratio = max(worst_ratio, ratio)
                    all_ok = all_ok and bits <= envelope
                    measured_points += 1
    passed = all_ok and measured_points >= 20
    _report(
        5,
        passed,
        f"{measured_points} grid points, empirical constant "
        f"{40.0 * worst_ratio:.2f} of the allowed 40",
    )
    assert passed


def test_criterion_06_ball_volume_oracle():
    """Exact volumes match brute-force cube enumeration for all n <= 16."""
    ok = ball_volume(10, 3) == 176
    for n in range(1, 17):
        counts = [0] * (n + 1)
        for word in range(1 << n):
            counts[word.bit_count()] += 1
        total = 0
        for r in range(n + 1):
            total += counts[r]
            ok = ok and ball_volume(n, r) == total
    _report(6, ok, "ball volumes equal brute-force enumeration, n <= 16")
    assert ok


def test_criterion_07_deterministic_exactness(code_cache):
    """n=10, gap=4: exhaustive diagonal plus every pair at distances 4..10."""
    start = time.time()
    params = det_protocol_params(10, 4, code=code_cache(10, 1))
    proto = det_protocol(params)
    errors = 0
    runs = 0
    for value in range(1 << 10):
        x = BitString(10, value)
        errors += proto.run(x, x, 0).output != 0
        runs += 1
    masks_by_weight = {d: [] for d in range(4, 11)}
    for mask in range(1 << 10):
        w = mask.bit_count()
        if w >= 4:
            masks_by_weight[w].append(mask)
    for d in range(4, 11):
        assert 1024 * len(masks_by_weight[d]) <= 10**6  # exhaustive everywhere
        for value in range(1 << 10):
            x = BitString(10, value)
            for mask in masks_by_weight[d]:
                y = BitString(10, value ^ mask)
                errors += proto.run(x, y, 0).output != 1
                runs += 1
    elapsed = time.time() - start
    passed = errors == 0
    _report(7, passed, f"deterministic protocol: 0 errors over {runs} runs ({elapsed:.0f}s)")
    assert passed
    assert elapsed < 300.0


def test_criterion_08_cost_sandwich(code_cache):
    """Measured cost within [volume lower bound, greedy upper bound], n <= 14."""
    all_ok = True
    worst = None
    for n in range(1, 15):
        for gap in range(1, n + 1):
            params = det_protocol_params(n, gap, code=code_cache(n, (gap - 1) // 2))
            proto = det_protocol(params)
            x, _ = random_pair_at_distance(n, 0, derive_seed(801, n, gap))
            a, b = random_pair_at_distance(n, gap, derive_seed(802, n, gap))
            cost = max(
                proto.run(x, x, 0).ledger.total_bits,
                proto.run(a, b, 0).ledger.total_bits,
            )
            lower, upper = det_complexity_bounds(n, gap)
            ok = lower <= cost <= upper
            all_ok = all_ok and ok
            if not ok:
                worst = (n, gap, cost, lower, upper)
    step_ok = all(
        ball_volume(n, t // 2) <= (1 + n) * ball_volume(n, (t - 1) // 2)
        for n in range(1, 65)
        for t in range(1, n + 1)
    )
    passed = all_ok and step_ok
    _report(8, passed, "cost in [lower, upper] for all n <= 14; step inequality exact to n = 64")
    assert passed, worst


def test_criterion_09_greedy_guarantee(code_cache):
    """|C| <= (0.694 n + 1) 2^n / V2(n, r) with exhaustive covering audit."""
    all_ok = True
    worst = None
    for n in range(1, 15):
        for r in range(n + 1):
            code = code_cache(n, r)
            bound = (0.694 * n + 1.0) * (1 << n) / ball_volume(n, r)
            ok = (
                code.size <= bound
                and code.size * ball_volume(n, r) >= (1 << n)
                and audit_covering(code)
            )
            all_ok = all_ok and ok
            if not ok:
                worst = (n, r, code.size, bound)
    _report(9, all_ok, "greedy size bound and covering audit, all n <= 14, all radii")
    assert all_ok, worst


def test_criterion_10_reduction_identity():
    """Distinct count of the concatenated streams equals n + distance."""
    ok = True
    for n in range(1, 7):
        for xv in range(1 << n):
            for yv in range(1 << n):
                x, y = BitString(n, xv), BitString(n, yv)
                u, v = encode_streams(x, y, n)
                ok = ok and exact_f0(u + v) == n + hamming_distance(x, y)
    for trial in range(1000):
        d = trial % 101
        x, y = random_pair_at_distance(100, d, derive_seed(1001, trial))
        u, v = encode_streams(x, y, 100)
        ok = ok and exact_f0(u + v) == 100 + d
    _report(10, ok, "identity exhaustive to n = 6 plus 10^3 random pairs at n = 100")
    assert ok


def test_criterion_11_streaming_budget():
    """Exact bitmap, p in {1,2,3}: communication <= 2pS and zero decision errors."""
    n, c = 100, 1.5
    gap = stream_gap(n, c)
    all_ok = True
    details = []
    for p in (1, 2, 3):
        make = lambda: ExactBitmapF0(2 * n, passes=p)
        errors = 0
        worst_comm = 0
        for trial in range(1000):
            x, _ = random_pair_at_distance(n, 0, derive_seed(1101, p, trial))
            output, run = ghd_via_streaming(make, c, x, x, check_determinism=False)
            errors += output != 0
            worst_comm = max(worst_comm, run.communication_bits)
            assert run.state_bits == 2 * n
            d = gap + derive_seed(1102, p, trial) % (n - gap + 1)
            a, b = random_pair_at_distance(n, d, derive_seed(1103, p, trial))
            output, run = ghd_via_streaming(make, c, a, b, check_determinism=False)
            errors += output != 1
            worst_comm = max(worst_comm, run.communication_bits)
        budget = 2 * p * 2 * n
        ok = errors == 0 and worst_comm <= budget
        all_ok = all_ok and ok
        details.append(f"p={p}: {worst_comm}<={budget}, {errors} errors")
    _report(11, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_12_sampling_baseline():
    """(100, 10, 90, 2): both-class error <= exp(-2) + 3 sigma, cost m + 1 exact."""
    params = derive_sampling_params(100, 10, 90, 2.0)
    proto = sampling_protocol(params)
    bound = math.exp(-2.0) + 3.0 * math.sqrt(math.exp(-2.0) / TRIALS)
    all_ok = True
    details = []
    for label, d, truth in (("close", 10, 0), ("far", 90, 1)):
        wrong = 0
        cost_ok = True
        for trial in range(TRIALS):
            x, y = random_pair_at_distance(100, d, derive_seed(1201, truth, trial))
            outcome = proto.run(x, y, derive_seed(1202, truth, trial))
            wrong += outcome.output != truth
            cost_ok = cost_ok and outcome.ledger.total_bits == params.trial_count + 1
        rate = wrong / TRIALS
        ok = rate <= bound and cost_ok
        all_ok = all_ok and ok
        details.append(f"{label}: {rate:.4f}<={bound:.4f}")
    _report(12, all_ok, f"m={params.trial_count}; " + "; ".join(details))
    assert all_ok
