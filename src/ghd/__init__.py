"""Gap Hamming Distance protocols with exact bit-level communication accounting.

Two parties hold n-bit strings promised to be either close (distance <=
close_bound) or far (distance >= far_bound).  This package implements and
measures four ways of deciding which:

* :mod:`ghd.sampling` — the public-coin coordinate-sampling baseline;
* :mod:`ghd.sketch` — the one-sided-error random-projection sketch;
* :mod:`ghd.covering` — the deterministic covering-code protocol for the
  "equal or far" promise, with its cost-bound calculators;
* :mod:`ghd.streaming` — the reduction to deterministic distinct-element
  streaming with bit-exact state metering.

:mod:`ghd.runtime` executes any of them over an instrumented channel with an
exact ledger of every bit exchanged, and :mod:`ghd.experiments` drives
Monte Carlo sweeps producing machine-readable reports.
"""

from .bits import (
    BitString,
    GhdInstance,
    Promise,
    ball_volume,
    hamming_distance,
    log2_ball_volume,
    random_pair_at_distance,
    random_pairs_at_distances,
)
from .runtime import (
    ChannelLedger,
    Protocol,
    ProtocolOutcome,
    SharedRandomness,
    derive_seed,
    estimate_error_rate,
    run_protocol,
)
from .sampling import SamplingParams, derive_sampling_params, sampling_protocol
from .sketch import (
    SketchMessage,
    SketchParams,
    SketchStatistics,
    alice_sketch,
    bob_decide,
    derive_sketch_params,
    sketch_cost,
    sketch_protocol,
    sketch_statistics,
)
from .covering import (
    CoveringCode,
    DetProtocolParams,
    det_complexity_bounds,
    det_protocol,
    det_protocol_params,
    greedy_covering_code,
    random_covering_code,
)
from .streaming import (
    ExactBitmapF0,
    StreamingAlgorithm,
    TruncatedBitmapF0,
    encode_streams,
    exact_f0,
    ghd_via_streaming,
    space_lower_bound,
)
from .experiments import ExperimentConfig, compare_bounds, run_experiment

__version__ = "0.1.0"
