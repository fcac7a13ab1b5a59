"""Batch experiment driver: parameter sweeps, error rates, cost-vs-bound tables.

Configs are key-value text files::

    protocol = sketch          # sampling | sketch | det | stream
    trials = 10000             # Monte Carlo seeds (or instances) per class
    seed = 7                   # master seed; per-point seeds are derived
    format = csv               # csv | json
    rate = hoeffding           # sampling only: hoeffding | linear
    linear_rate_constant = 8.0 # sampling only, used when rate = linear
    code_dir = codes/          # det only: directory of code files, built when missing
    point n=512 L=4 U=256 s=2  # one grid point per line
    point n=512 L=4 U=256 s=3

Point keys by protocol: sampling/sketch use n, L, U, s; det uses n, t;
stream uses n, c, p.  Points that violate a protocol precondition are
reported as skipped with the reason, never silently dropped; so is a point
with a key its protocol does not read.  A key repeated on one point line is
a parse error.

Every record carries the same fixed column set (unused columns are empty):
the grid parameters, the derived quantities (m, block_count, block_length,
word_width, trivial_mode, code_size, index_width, state_bits, t for the
derived stream gap), the measured worst-case bits next to the expected
formula value, empirical error rates per class with 3-sigma halfwidths, the
theoretical bound (exact zero where the guarantee is one-sided or
deterministic), and ok-flags.  ``err_close`` is the error rate on the
output-0 class, ``err_far`` on the output-1 class.  A CSV cell holding a
comma, quote or newline (a skip reason may) is quoted.

A det point whose n or t is out of range is skipped before any code is
built or read.  A det point with a ``code_dir`` reads
``code-n{n}-r{radius}.txt`` there through :func:`ghd.covering.load_code`,
after :func:`prepare_codes` has built and saved any file that is missing.  Within one process an unchanged
file at the same path reuses its audited code and decode table (at most 8
files are kept); new bytes or a new path are parsed and audited again.

Per-point seeds are derived from the master seed by a documented
splitmix-style derivation (:func:`ghd.runtime.derive_seed`), so parallel and
serial sweeps produce byte-identical reports.  ``run_experiment`` starts at
most one worker per grid point.

The det and stream sweeps score both classes from the protocol's
``pair_outputs`` batch, the Monte Carlo sweeps from ``batch_outputs``, and
all make real protocol runs only on audited trials: trial 0 of each class
and the first trial the batch scores as an error (see :mod:`ghd.runtime`).
Every sweep's ``measured_bits`` (and the stream's ``state_bits``) comes from
the audited ledgers, which is exact: sampling, sketch and det declare their
cost and every run's ledger must equal it, and every bitmap snapshot is
``capacity_bits`` wide, so every stream run sends ``(2p - 1) * 2n + 1`` bits.
A stream point whose bitmap cost exceeds the run budget ``64 n**2`` is
skipped before any run, and so is a sampling point whose m sample indices,
8 m bytes, would exceed 256 MiB, or a det or stream point whose classes,
estimated at ``32 * trials * ceil(n / 64)`` bytes, would.

Both exact sweeps draw their instances from one ``random.Random`` per point:
per trial a close word x = y, a distance in [gap, n] and a 63-bit pair seed.
The far pairs are then drawn all at once by
:func:`ghd.bits.random_pairs_at_distances`, which reproduces
``random_pair_at_distance`` pair for pair (CPython's ``Random.sample`` pool
branch and ``_randbelow``, run in numpy lanes), so every report is the one
the per-pair draws give.  Each class is held as limb matrices (rows of
big-endian 64-bit limbs), which ``pair_outputs(n, xs, ys)`` reads as they
are; ``BitString`` inputs are built only for the audited runs.

Progress goes to the ``ghd.experiments`` logger: one INFO line per finished
point with its index, status, seconds and audited runs.  The package
configures no handler, so nothing is printed unless the caller sets one up,
and the reports are the same either way.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .bits import BitString, GhdInstance, _limb_matrix, _limb_value, _read_text, random_pairs_at_distances
from .runtime import DEFAULT_BUDGET_FACTOR, _audited_errors, _error_trials, derive_seed
from .sampling import derive_sampling_params, sampling_protocol
from .sketch import derive_sketch_params, sketch_protocol
from .covering import (
    GREEDY_MAX_N,
    _det_radius,
    det_protocol,
    det_protocol_params,
    det_complexity_bounds,
    greedy_covering_code,
    load_code,
    save_code,
)
from .streaming import ExactBitmapF0, ghd_via_streaming, space_lower_bound, stream_gap, streaming_protocol

__all__ = [
    "ExperimentConfig",
    "Report",
    "parse_config",
    "load_config",
    "run_experiment",
    "compare_bounds",
    "COLUMNS",
    "COMPARE_COLUMNS",
]

PROTOCOLS = ("sampling", "sketch", "deterministic", "streaming")
_ALIASES = {"det": "deterministic", "stream": "streaming"}

COLUMNS = [
    "protocol",
    "status",
    "reason",
    "n",
    "L",
    "U",
    "s",
    "t",
    "c",
    "p",
    "m",
    "block_count",
    "block_length",
    "word_width",
    "trivial_mode",
    "code_size",
    "index_width",
    "state_bits",
    "expected_bits",
    "measured_bits",
    "bits_ok",
    "lower_bits",
    "upper_bits",
    "cost_in_bounds",
    "err_close",
    "err_close_hw",
    "err_far",
    "err_far_hw",
    "error_bound",
    "bound_ok",
]

COMPARE_COLUMNS = [
    "n",
    "L",
    "U",
    "s",
    "sampling_bits",
    "sketch_bits",
    "sampling_rate",
    "sketch_rate",
    "crossover_regime",
]

_INT_KEYS = {"n", "L", "U", "t", "p"}
_FLOAT_KEYS = {"s", "c"}
_NUMBER_SETTINGS = {"trials": int, "seed": int, "linear_rate_constant": float}
_SETTINGS = {"protocol", "trials", "seed", "format", "rate", "linear_rate_constant", "code_dir"}
_FORMATS = ("csv", "json")
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    grid: tuple[dict, ...]
    trials: int = 1000
    seed: int = 0
    output_format: str = "csv"
    rate: str = "hoeffding"
    linear_rate_constant: float = 8.0
    code_dir: str | None = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.output_format not in _FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def normalize_protocol(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}")
    return name


def _convert(convert, value: str, lineno: int, key: str):
    try:
        return convert(value)
    except ValueError:
        raise ValueError(
            f"line {lineno}: key {key!r}: cannot read {value!r} as {convert.__name__}"
        ) from None


def parse_config(text: str, protocol: str | None = None) -> ExperimentConfig:
    """Parse the key-value config format; see the module docstring.

    A malformed line or value raises ``ValueError`` naming the line (and the
    key, for a value); so does a protocol that conflicts with ``protocol``.
    """
    settings: dict[str, object] = {}
    protocol_line = 0
    grid: list[dict] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("point"):
            point: dict = {}
            for item in line[len("point"):].split():
                if "=" not in item:
                    raise ValueError(f"line {lineno}: malformed point entry {item!r}")
                key, value = item.split("=", 1)
                if key in point:
                    raise ValueError(f"line {lineno}: repeated point key {key!r}")
                if key in _INT_KEYS:
                    point[key] = _convert(int, value, lineno, key)
                elif key in _FLOAT_KEYS:
                    point[key] = _convert(float, value, lineno, key)
                else:
                    raise ValueError(f"line {lineno}: unknown point key {key!r}")
            grid.append(point)
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SETTINGS:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            if key in _NUMBER_SETTINGS:
                value = _convert(_NUMBER_SETTINGS[key], value, lineno, key)
            if key == "protocol":
                if _ALIASES.get(value, value) not in PROTOCOLS:
                    raise ValueError(f"line {lineno}: key 'protocol': unknown protocol {value!r}")
                value, protocol_line = normalize_protocol(value), lineno
            elif key == "trials" and value < 1:
                raise ValueError(f"line {lineno}: key 'trials': must be >= 1, got {value}")
            elif key == "format" and value not in _FORMATS:
                raise ValueError(f"line {lineno}: key 'format': unknown output format {value!r}")
            settings[key] = value
        else:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")

    config_protocol = settings.get("protocol")
    if protocol is not None:
        protocol = normalize_protocol(protocol)
        if config_protocol is not None and config_protocol != protocol:
            raise ValueError(
                f"line {protocol_line}: config names protocol {config_protocol!r} "
                f"but {protocol!r} was requested"
            )
    elif config_protocol is not None:
        protocol = config_protocol
    else:
        raise ValueError("no protocol given (neither in config nor by the caller)")

    # only the settings the text sets: the dataclass holds the defaults
    options = {"output_format" if key == "format" else key: value for key, value in settings.items() if key != "protocol"}
    return ExperimentConfig(protocol, tuple(grid), **options)


def load_config(path: str | Path, protocol: str | None = None) -> ExperimentConfig:
    return parse_config(_read_text(path), protocol=protocol)


def _blank_record(protocol: str, point: dict) -> dict:
    record = {column: None for column in COLUMNS}
    record["protocol"] = protocol
    record["status"] = "ok"
    for key in ("n", "L", "U", "s", "t", "c", "p"):
        if key in point:
            record[key] = point[key]
    return record


def _sampling_setup(config: ExperimentConfig, n: int, lo: int, hi: int, s: float):
    params = derive_sampling_params(
        n, lo, hi, s, rate=config.rate, linear_rate_constant=config.linear_rate_constant
    )
    return sampling_protocol(params), {"m": params.trial_count}


def _sketch_setup(config: ExperimentConfig, n: int, lo: int, hi: int, s: float):
    params = derive_sketch_params(n, lo, hi, s)
    fields = {
        "block_count": params.block_count,
        "block_length": params.block_length,
        "word_width": params.word_width,
        "trivial_mode": params.trivial_mode,
    }
    return sketch_protocol(params), fields


_MONTE_CARLO_SETUPS = {"sampling": _sampling_setup, "sketch": _sketch_setup}


def _check_budget(n: int, expected: int) -> None:
    budget = DEFAULT_BUDGET_FACTOR * n * n
    if expected > budget:
        raise ValueError(
            f"expected cost {expected} bits exceeds the run budget "
            f"{budget} bits ({DEFAULT_BUDGET_FACTOR} n**2)"
        )


# Largest working set, in bytes, of one point's draws: a sampling run draws
# its m sample indices as one int64 array (8 m bytes), and an exact sweep
# holds its classes as words and limb matrices.
_WORKING_SET_LIMIT = 1 << 28


def _check_working_set(what: str, estimate: int) -> None:
    if estimate > _WORKING_SET_LIMIT:
        raise ValueError(f"{what} {estimate} bytes exceeds the limit {_WORKING_SET_LIMIT} bytes")


def _run_monte_carlo_point(config: ExperimentConfig, point: dict, point_seed: int) -> tuple[dict, int]:
    record = _blank_record(config.protocol, point)
    n, lo, hi, s = point["n"], point["L"], point["U"], point["s"]
    protocol, fields = _MONTE_CARLO_SETUPS[config.protocol](config, n, lo, hi, s)
    expected = protocol.cost_bits
    record.update(fields, expected_bits=expected)
    _check_budget(n, expected)
    if config.protocol == "sampling":
        _check_working_set("index working set", 8 * fields["m"])
    close = GhdInstance.at_distance(n, lo, hi, lo, derive_seed(point_seed, 0))
    far = GhdInstance.at_distance(n, lo, hi, hi, derive_seed(point_seed, 1))
    (err0, hw0), runs0 = _error_trials(protocol, close, config.trials, derive_seed(point_seed, 2))
    (err1, hw1), runs1 = _error_trials(protocol, far, config.trials, derive_seed(point_seed, 3))
    totals = [outcome.ledger.total_bits for outcome in runs0 + runs1]
    bound = math.exp(-s)
    slack = 3.0 * math.sqrt(bound / config.trials) if bound > 0 else 0.0
    # the sketch's 0 side is exact: a single close-side error is a violation
    close_ok = err0 == 0.0 if config.protocol == "sketch" else err0 <= bound + slack
    record.update(
        measured_bits=max(totals),
        bits_ok=all(total == expected for total in totals),
        err_close=err0,
        err_close_hw=hw0,
        err_far=err1,
        err_far_hw=hw1,
        error_bound=bound,
        bound_ok=close_ok and err1 <= bound + slack,
    )
    return record, len(totals)


def _code_path(directory: str, n: int, radius: int) -> Path:
    return Path(directory) / f"code-n{n}-r{radius}.txt"


def _obtain_code(config: ExperimentConfig, n: int, radius: int):
    if config.code_dir:
        path = _code_path(config.code_dir, n, radius)
        if path.exists():
            return load_code(path)
    return greedy_covering_code(n, radius)


def prepare_codes(config: ExperimentConfig) -> None:
    """Construct and save any codes missing from the configured code_dir.

    A point that will be skipped for a missing or unused key, or for n or t
    out of range, gets no code.
    """
    if config.protocol != "deterministic" or not config.code_dir:
        return
    Path(config.code_dir).mkdir(parents=True, exist_ok=True)
    for point in config.grid:
        n, gap = point.get("n"), point.get("t")
        if n is None or gap is None or n > GREEDY_MAX_N or _unused_key(config, point):
            continue
        try:
            radius = _det_radius(n, gap)
        except ValueError:
            continue  # the point is skipped for its gap
        path = _code_path(config.code_dir, n, radius)
        if not path.exists():
            save_code(greedy_covering_code(n, radius), path)


def _exact_classes(config: ExperimentConfig, record: dict, point_seed: int, n: int, gap: int, protocol, run) -> list:
    """Score ``config.trials`` pairs x = y and distance in [gap, n].

    The far pairs are ``random_pair_at_distance``'s, drawn in lanes after
    the class RNG has drawn every trial's close word, distance and seed.
    Each class is a pair of limb matrices (the close class passes one matrix
    twice), which ``protocol.pair_outputs(n, xs, ys)`` scores; ``run(x, y)``,
    which takes ``BitString`` inputs and returns an object with ``output``
    and ``ledger``, makes the audited runs.  Fills the record's error
    columns (exact: zero halfwidths and bound) and ``measured_bits``, the
    largest audited ledger total, and returns the audited runs.  A point
    whose classes would exceed ``_WORKING_SET_LIMIT`` is refused first.
    """
    # the close words as ints and as limbs, and the far xs and ys as limbs
    _check_working_set("class working set", 4 * config.trials * 8 * ((n + 63) // 64))
    rng = random.Random(derive_seed(point_seed, 0))
    close, distances, seeds = [], [], []
    for _ in range(config.trials):
        close.append(rng.getrandbits(n))
        distances.append(rng.randint(gap, n))
        seeds.append(rng.getrandbits(63))
    words = _limb_matrix(close, n)
    classes = (("close", words, words, 0), ("far", *random_pairs_at_distances(n, distances, seeds), 1))
    errors, audited = [], []
    for name, xs, ys, truth in classes:
        count, runs = _audited_errors(
            config.trials,
            truth,
            lambda trial: run(BitString(n, _limb_value(xs[trial])), BitString(n, _limb_value(ys[trial]))),
            lambda: protocol.pair_outputs(n, xs, ys),
            lambda trial: f"trial {trial} of the {name} class",
        )
        errors.append(count)
        audited += runs
    record.update(
        err_close=errors[0] / config.trials,
        err_close_hw=0.0,
        err_far=errors[1] / config.trials,
        err_far_hw=0.0,
        error_bound=0.0,
        bound_ok=errors == [0, 0],
        measured_bits=max(outcome.ledger.total_bits for outcome in audited),
    )
    return audited


def _run_det_point(config: ExperimentConfig, point: dict, point_seed: int) -> tuple[dict, int]:
    record = _blank_record("deterministic", point)
    n, gap = point["n"], point["t"]
    lower, upper = det_complexity_bounds(n, gap)  # refuses n and t before a code is built
    params = det_protocol_params(n, gap, code=_obtain_code(config, n, _det_radius(n, gap)))
    protocol = det_protocol(params)
    audited = _exact_classes(
        config, record, point_seed, n, gap, protocol, lambda x, y: protocol.run(x, y, 0)
    )
    worst = record["measured_bits"]
    record.update(
        code_size=params.code.size,
        index_width=params.code.index_width,
        expected_bits=params.cost_bits,
        lower_bits=lower,
        upper_bits=upper,
        bits_ok=worst == params.cost_bits,
        cost_in_bounds=lower <= worst <= upper,
    )
    return record, len(audited)


def _run_stream_point(config: ExperimentConfig, point: dict, point_seed: int) -> tuple[dict, int]:
    record = _blank_record("streaming", point)
    n, c, p = point["n"], point["c"], point["p"]
    gap = stream_gap(n, c)
    if p < 1:
        raise ValueError("p must be >= 1")
    # 2p - 1 snapshots of the 2n-bit bitmap and Bob's decision bit
    _check_budget(n, (2 * p - 1) * 2 * n + 1)

    make = lambda: ExactBitmapF0(2 * n, passes=p)
    run = lambda x, y: ghd_via_streaming(make, c, x, y, check_determinism=False)[1]
    audited = _exact_classes(
        config, record, point_seed, n, gap, streaming_protocol(make, c), run
    )
    state_bits = max(outcome.state_bits for outcome in audited)
    record.update(
        t=gap,
        state_bits=state_bits,
        expected_bits=2 * p * state_bits,
        bits_ok=record["measured_bits"] <= 2 * p * state_bits,
        lower_bits=space_lower_bound(n, c, p).state_bits_floor,
    )
    return record, len(audited)


# each protocol's runner, which returns the record and its count of real
# (audited) runs, and the point keys it reads
_POINT_RUNNERS = {
    "sampling": (_run_monte_carlo_point, ("n", "L", "U", "s")),
    "sketch": (_run_monte_carlo_point, ("n", "L", "U", "s")),
    "deterministic": (_run_det_point, ("n", "t")),
    "streaming": (_run_stream_point, ("n", "c", "p")),
}


def _unused_key(config: ExperimentConfig, point: dict) -> str | None:
    """The first key of ``point`` that its protocol does not read, if any."""
    keys = _POINT_RUNNERS[config.protocol][1]
    return next((key for key in point if key not in keys), None)


def _run_point(config: ExperimentConfig, index: int) -> tuple[dict, int]:
    """The record of one grid point and its count of audited runs (0 when skipped)."""
    point = config.grid[index]
    point_seed = derive_seed(config.seed, index)
    try:
        unused = _unused_key(config, point)
        if unused is not None:
            raise ValueError(f"unused point key {unused!r}")
        return _POINT_RUNNERS[config.protocol][0](config, point, point_seed)
    except (ValueError, KeyError) as exc:
        record = _blank_record(config.protocol, point)
        record["status"] = "skipped"
        if isinstance(exc, KeyError):
            record["reason"] = f"missing point key {exc.args[0]!r}"
        else:
            record["reason"] = str(exc)
        return record, 0


def _timed_point(config: ExperimentConfig, index: int) -> tuple[dict, int, float]:
    """:func:`_run_point` and its wall time in seconds."""
    start = time.perf_counter()
    record, audited = _run_point(config, index)
    return record, audited, time.perf_counter() - start


@dataclass
class Report:
    """The records of a sweep.  When :func:`run_experiment` made it,
    ``seconds`` holds each point's wall time and ``audited_runs`` its count
    of real protocol runs; neither enters the output."""

    records: list[dict] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list, compare=False, repr=False)
    audited_runs: list[int] = field(default_factory=list, compare=False, repr=False)

    @property
    def has_violation(self) -> bool:
        for record in self.records:
            if record["status"] != "ok":
                continue
            for flag in ("bits_ok", "bound_ok", "cost_in_bounds"):
                if record.get(flag) is False:
                    return True
        return False

    def to_csv(self, columns: list[str] | None = None) -> str:
        return _format_csv(self.records, columns or COLUMNS)

    def to_json(self) -> str:
        return json.dumps(self.records, sort_keys=True, indent=2) + "\n"

    def render(self, output_format: str) -> str:
        return self.to_json() if output_format == "json" else self.to_csv()


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_csv(records: list[dict], columns: list[str]) -> str:
    """A cell holding a comma, quote or newline is quoted, inner quotes doubled."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_format_cell(record.get(column)) for column in columns] for record in records)
    return buffer.getvalue()


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> Report:
    """One record per grid point; deterministic given the config and seed.

    ``jobs`` caps the worker processes; no more start than there are grid
    points, and ``jobs < 1`` raises ``ValueError``.  Each point logs one INFO
    line to ``ghd.experiments`` as its result comes in.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    prepare_codes(config)
    indices = range(len(config.grid))
    workers = min(jobs, len(indices))
    report = Report()
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        timed = (pool.map if pool else map)(_timed_point, repeat(config), indices)
        for index, (record, audited, seconds) in enumerate(timed):
            _log.info("point %d: %s in %.3f s, %d audited runs", index, record["status"], seconds, audited)
            report.records.append(record)
            report.seconds.append(seconds)
            report.audited_runs.append(audited)
    return report


def compare_bounds(records: list[dict]) -> list[dict]:
    """Side-by-side sampling-vs-sketch costs on matching (n, L, U, s) points.

    Reports the two theoretical rates ``(s/U) * n`` and
    ``(s/U)**(1/3) * n * log2(n)`` next to the measured bits, and flags the
    ``s < U`` regime where the cube-root rate is the larger one.  Rejects
    reports that do not contain both protocols on identical grids.
    """
    key = lambda r: (r["n"], r["L"], r["U"], r["s"])
    sampling = {key(r): r for r in records if r["protocol"] == "sampling" and r["status"] == "ok"}
    sketch = {key(r): r for r in records if r["protocol"] == "sketch" and r["status"] == "ok"}
    if not sampling or not sketch:
        raise ValueError("comparison needs both sampling and sketch records")
    if set(sampling) != set(sketch):
        raise ValueError("mismatched grids: sampling and sketch points differ")
    rows = []
    for point in sorted(sampling):
        n, lo, hi, s = point
        rows.append(
            {
                "n": n,
                "L": lo,
                "U": hi,
                "s": s,
                "sampling_bits": sampling[point]["measured_bits"],
                "sketch_bits": sketch[point]["measured_bits"],
                "sampling_rate": (s / hi) * n,
                "sketch_rate": (s / hi) ** (1.0 / 3.0) * n * math.log2(n),
                "crossover_regime": s < hi,
            }
        )
    return rows
