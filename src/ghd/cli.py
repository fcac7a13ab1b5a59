"""Command-line interface.

Subcommands::

    ghd volume N R                     exact Hamming-ball volume (--log2 for its log)
    ghd bounds det N T                 deterministic-protocol cost bounds in bits
    ghd bounds stream N C P            streaming space floor for a c-approximation
    ghd bench PROTOCOL --config FILE   run a sweep, write csv/json records
                                       (--timings FILE: per-point wall times as JSON;
                                        --progress: one line per finished point on stderr)
    ghd trace sketch N L U S --distance D --seed K
                                       one sketch run: its ledger, rounds, cost, Bob's
                                       statistics, threshold, close certificate and output
    ghd demo stream                    worked example of the streaming reduction

Exit codes: 0 on success, 2 when a bench run produced any bound-violation
record (for CI gating), 64 on usage errors, a file that cannot be read or
written included.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .bits import ball_volume, hamming_distance, log2_ball_volume, random_pair_at_distance
from .covering import det_complexity_bounds
from .experiments import load_config, normalize_protocol, run_experiment
from .runtime import derive_seed
from .sketch import _close_statistic_bound, _decides_far, derive_sketch_params, sketch_protocol, sketch_statistics
from .streaming import ExactBitmapF0, encode_streams, exact_f0, ghd_via_streaming, space_lower_bound, stream_gap, write_stream_fixture

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # keep exit code 2 reserved for bound violations
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ghd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    volume = sub.add_parser("volume", help="exact Hamming-ball volume")
    volume.add_argument("n", type=int)
    volume.add_argument("r", type=int)
    volume.add_argument("--log2", action="store_true", help="print log2 of the volume instead")

    bounds = sub.add_parser("bounds", help="theoretical bound calculators")
    bounds_sub = bounds.add_subparsers(dest="kind", required=True)
    det = bounds_sub.add_parser("det", help="deterministic-protocol cost bounds")
    det.add_argument("n", type=int)
    det.add_argument("t", type=int)
    stream = bounds_sub.add_parser("stream", help="streaming space floor")
    stream.add_argument("n", type=int)
    stream.add_argument("c", type=float)
    stream.add_argument("p", type=int)

    bench = sub.add_parser("bench", help="run a configured sweep")
    bench.add_argument("protocol", choices=["sampling", "sketch", "det", "stream"])
    bench.add_argument("--config", required=True, help="key-value config file")
    bench.add_argument("--out", help="write the report here instead of stdout")
    bench.add_argument("--jobs", type=int, default=1, help="parallel workers over grid points")
    bench.add_argument("--code-dir", help="det only: directory of covering-code files, built when missing")
    bench.add_argument(
        "--timings", help="also write per-point wall time, trials, runs/s and audited runs here (JSON)"
    )
    bench.add_argument("--progress", action="store_true", help="log each finished point to stderr")

    trace = sub.add_parser("trace", help="run one instance and show why it decided")
    trace_sub = trace.add_subparsers(dest="protocol", required=True)
    trace_sketch = trace_sub.add_parser("sketch", help="one sketch run")
    trace_sketch.add_argument("n", type=int)
    trace_sketch.add_argument("close_bound", type=int, metavar="L")
    trace_sketch.add_argument("far_bound", type=int, metavar="U")
    trace_sketch.add_argument("s", type=float)
    trace_sketch.add_argument("--distance", type=int, required=True, help="Hamming distance of the pair")
    trace_sketch.add_argument(
        "--seed", type=int, required=True, help="pair from derive_seed(K, 0), shared seed derive_seed(K, 1)"
    )

    demo = sub.add_parser("demo", help="worked examples")
    demo_sub = demo.add_subparsers(dest="what", required=True)
    demo_stream = demo_sub.add_parser("stream", help="streaming reduction walkthrough")
    demo_stream.add_argument("--n", type=int, default=8)
    demo_stream.add_argument("--c", type=float, default=1.5)
    demo_stream.add_argument("--passes", type=int, default=1)
    demo_stream.add_argument("--seed", type=int, default=1)
    demo_stream.add_argument("--fixture-dir", help="also write token fixtures (one per line)")

    return parser


def _cmd_volume(args) -> int:
    if args.log2:
        print(repr(log2_ball_volume(args.n, args.r)))
    else:
        print(ball_volume(args.n, args.r))
    return 0


def _cmd_bounds(args) -> int:
    if args.kind == "det":
        lower, upper = det_complexity_bounds(args.n, args.t)
        print(f"lower_bits {lower!r}")
        print(f"upper_bits {upper!r}")
    else:
        bound = space_lower_bound(args.n, args.c, args.p)
        print(f"gap {bound.gap}")
        print(f"state_bits_floor {bound.state_bits_floor!r}")
        print(f"asymptotic {bound.asymptotic!r}")
    return 0


def _point_timings(config, report) -> list[dict]:
    """Per grid point: status, wall seconds, trials per class, trials scored
    (both classes, none when skipped), trials scored per second and real
    protocol runs made to audit them."""
    rows = []
    for point, record, seconds, audited in zip(config.grid, report.records, report.seconds, report.audited_runs):
        runs = 2 * config.trials if record["status"] == "ok" else 0
        rows.append(
            {
                "point": point,
                "status": record["status"],
                "seconds": seconds,
                "trials": config.trials,
                "runs": runs,
                "runs_per_s": runs / seconds,
                "audited_runs": audited,
            }
        )
    return rows


def _run_logged(config, jobs: int):
    """:func:`run_experiment` with its per-point INFO lines sent to stderr."""
    logger = logging.getLogger("ghd.experiments")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return run_experiment(config, jobs=jobs)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _cmd_bench(args) -> int:
    config = load_config(args.config, protocol=normalize_protocol(args.protocol))
    if args.code_dir:
        from dataclasses import replace

        config = replace(config, code_dir=args.code_dir)
    report = _run_logged(config, args.jobs) if args.progress else run_experiment(config, jobs=args.jobs)
    text = report.render(config.output_format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.timings:
        timings = {"protocol": config.protocol, "jobs": args.jobs, "points": _point_timings(config, report)}
        Path(args.timings).write_text(json.dumps(timings, indent=2) + "\n")
    return 2 if report.has_violation else 0


def _cmd_trace(args) -> int:
    """One sketch run on a seeded pair, and the quantities Bob decided on."""
    params = derive_sketch_params(args.n, args.close_bound, args.far_bound, args.s)
    x, y = random_pair_at_distance(args.n, args.distance, derive_seed(args.seed, 0))
    shared = derive_seed(args.seed, 1)
    protocol = sketch_protocol(params)
    outcome = protocol.run(x, y, shared)
    print(outcome.ledger.dump())
    if not params.trivial_mode:
        statistics = sketch_statistics(x, y, params, shared)
        bound = _close_statistic_bound(params)
        print(f"rounds {outcome.ledger.rounds}")
        print(f"declared_bits {protocol.cost_bits}")
        print(f"ledger_bits {outcome.ledger.total_bits}")
        print(f"received_statistic {statistics.received_statistic!r}")
        print(f"exact_statistic {statistics.exact_statistic!r}")
        print(f"threshold {params.threshold!r}")
        print(f"close_certificate {bound!r}")
        print(f"close_certified {'no' if _decides_far(params, bound) else 'yes'}")
    print(f"output {outcome.output}")
    return 0


def _cmd_demo_stream(args) -> int:
    n, c, passes = args.n, args.c, args.passes
    gap = stream_gap(n, c)
    x, _ = random_pair_at_distance(n, 0, args.seed)
    far_x, far_y = random_pair_at_distance(n, gap, args.seed + 1)

    def make() -> ExactBitmapF0:
        return ExactBitmapF0(2 * n, passes=passes)

    print(f"n={n} c={c} passes={passes} gap=ceil(n*(c-1))={gap}")
    for label, (a, b) in (("equal", (x, x)), ("far", (far_x, far_y))):
        u, v = encode_streams(a, b, n)
        output, run = ghd_via_streaming(make, c, a, b)
        print(f"-- {label}: x={a} y={b}")
        print(f"   u={u}")
        print(f"   v={v}")
        print(
            f"   distinct={exact_f0(u + v)} (= n + distance = {n} + {hamming_distance(a, b)})"
        )
        print(
            f"   estimate={run.estimate} threshold=n+gap={n + gap} output={output}"
        )
        print(
            f"   state_bits={run.state_bits} handoffs={2 * passes - 1} "
            f"communication={run.communication_bits} <= 2pS={2 * passes * run.state_bits}"
        )
        if args.fixture_dir:
            directory = Path(args.fixture_dir)
            directory.mkdir(parents=True, exist_ok=True)
            write_stream_fixture(u, directory / f"{label}-u.tokens")
            write_stream_fixture(v, directory / f"{label}-v.tokens")
    if args.fixture_dir:
        print(f"fixtures written to {args.fixture_dir}")
    return 0


_COMMANDS = {
    "volume": _cmd_volume,
    "bounds": _cmd_bounds,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "demo": _cmd_demo_stream,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # a bad argument value or an unusable path is a usage error, not a crash
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
