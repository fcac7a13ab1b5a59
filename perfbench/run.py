"""Benchmark of ghd sweeps: end-to-end sweep throughput and per-module spans.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop in one process, ``jobs=1``; the configs are
generated here from ``--seed``, and ``ghd`` receives only those configs):

* ``mc_sweep`` - sketch and sampling sweeps on one (n, L, U, s) grid, plus
  ``compare_bounds`` over the pair.  A few large messages per run.
* ``exact_sweep`` - a det sweep on codes prebuilt during set-up, and a
  stream sweep.  Many tiny runs with several messages each.
* ``code_build`` - a det sweep from an empty code dir on every repetition,
  so greedy construction, ``save_code`` and the audit in ``load_code``
  dominate.

A run sets up five times in fresh processes (``setup_s`` is their median),
does one warm-up repetition and then repeats the sweep until ``--seconds``
have passed (at least three repetitions).  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of ``BENCHMARK.json``.

On a shared host the speed of interpreted Python drifts by tens of percent
over seconds to minutes, while large numpy kernels move much less.  Each
untraced repetition is therefore bracketed by two passes of a fixed mix of
interpreted work (``calibrate``), and so is every set-up.  Where a phase's time goes to
interpreted Python (``SCALED``: the sweeps of ``mc_sweep`` and
``exact_sweep``, the set-ups of ``mc_sweep`` and ``code_build``), its metric
is the median of wall time scaled by ``CALIBRATION_REF_S`` over the mean of
the two passes: seconds at the interpreter speed of the reference machine.
Where it goes to building covering codes in numpy, which the drift barely
touches, the metric is the plain median wall time.  The traced run reports
the plain median wall time and the median pass as per-layer metrics.

Every report row is checked: its status and ok-flags, equality with the
first repetition, and, for seeds listed in ``perfbench/pinned.json``, its
pinned digest.  Traced, untraced, ``jobs=2`` and ``ghd bench`` runs must
produce identical rows.  The last line of stdout is the JSON result; the
line before it stamps the environment.  The exit code is 1 when any check
fails.

``--pin WORKLOAD FIRST COUNT`` records digests for seeds FIRST..FIRST+COUNT-1
into ``perfbench/pinned.json``; run it only on code whose reports are known
to be right.  ``--tiny`` shrinks every workload for the harness self-test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
PINNED = BENCH_DIR / "pinned.json"
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPS = 5
MIN_REPS = 3
CALIBRATION_STEPS = 30_000
CALIBRATION_DRAWS = 1_000
# A typical calibrate() pass between repetitions on an Intel Xeon VM (2 vCPUs),
# Python 3.11.7: scaled times are seconds at that interpreter speed.
CALIBRATION_REF_S = 0.017
# Phases whose time goes to interpreted Python, per workload; their times are
# scaled by the calibration passes.  Building covering codes goes to numpy.
SCALED = {
    "mc_sweep": {"sweep", "setup"},
    "exact_sweep": {"sweep"},  # its set-up builds the prebuilt codes
    "code_build": {"setup"},  # its sweep builds the codes
}


@dataclass(frozen=True)
class Sweep:
    protocol: str
    grid: tuple[str, ...]
    trials: int
    code_dir: str | None = None  # None, "prebuilt" (by set-up) or "fresh" (per repetition)

    def spec(self, seed: int) -> str:
        """Config text without the code dir: what the pinned digests cover."""
        points = "".join(f"point {point}\n" for point in self.grid)
        return f"protocol = {self.protocol}\ntrials = {self.trials}\nseed = {seed}\nformat = csv\n{points}"

    def config_text(self, seed: int, code_dir: Path | None) -> str:
        text = self.spec(seed)
        return text if code_dir is None else text + f"code_dir = {code_dir}\n"


MC_GRID = ("n=512 L=4 U=256 s=2", "n=512 L=4 U=256 s=3", "n=2048 L=8 U=1024 s=2")
EXACT_DET = Sweep("det", ("n=16 t=5", "n=18 t=7"), 500, "prebuilt")

WORKLOADS = {
    "mc_sweep": (Sweep("sketch", MC_GRID, 100), Sweep("sampling", MC_GRID, 100)),
    "exact_sweep": (EXACT_DET, Sweep("stream", ("n=100 c=1.5 p=2",), 500)),
    "code_build": (Sweep("det", ("n=16 t=5", "n=18 t=7", "n=19 t=7"), 100, "fresh"),),
}

TINY_EXACT_DET = Sweep("det", ("n=12 t=5", "n=17 t=7"), 20, "prebuilt")
TINY_WORKLOADS = {
    "mc_sweep": (Sweep("sketch", MC_GRID, 3), Sweep("sampling", MC_GRID, 3)),
    "exact_sweep": (TINY_EXACT_DET, Sweep("stream", ("n=100 c=1.5 p=2",), 20)),
    "code_build": (Sweep("det", ("n=12 t=5", "n=16 t=5"), 5, "fresh"),),
}


def import_ghd():
    """Import ``ghd`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ghd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ghd package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import ghd.cli
    import ghd.experiments

    if Path(ghd.__file__).resolve().parent != (SRC / "ghd").resolve():
        sys.exit(f"perfbench: imported ghd from {ghd.__file__}, not from {SRC}")
    return ghd


def row_digest(spec: str, header: str, row: str) -> str:
    return hashlib.sha256(f"{spec}\n{header}\n{row}".encode()).hexdigest()[:16]


class Bench:
    """One workload at one seed, with its working directory."""

    def __init__(self, ghd, workload: str, seed: int, work: Path, tiny: bool = False) -> None:
        self.experiments = ghd.experiments
        self.workload = workload
        self.sweeps = (TINY_WORKLOADS if tiny else WORKLOADS)[workload]
        self.exact_det = TINY_EXACT_DET if tiny else EXACT_DET
        self.seed = seed
        self.work = work
        self.prebuilt: Path | None = None
        # protocol runs per repetition: every grid point runs each class `trials` times
        self.runs = sum(2 * sweep.trials * len(sweep.grid) for sweep in self.sweeps)
        self.records = sum(len(sweep.grid) for sweep in self.sweeps)
        if workload == "mc_sweep":
            self.records += len(MC_GRID)  # one compare_bounds row per grid point

    def prepare(self, code_dir: Path) -> None:
        """Generate the configs and build the codes the prebuilt sweeps read."""
        for sweep in self.sweeps:
            text = sweep.config_text(self.seed, code_dir if sweep.code_dir == "prebuilt" else None)
            config = self.experiments.parse_config(text)
            if sweep.code_dir == "prebuilt":
                self.experiments.prepare_codes(config)

    def sweep_once(self, jobs: int = 1) -> tuple[float, list[tuple[str, bool]]]:
        """Time one repetition; returns its wall time and (digest, ok) per row."""
        experiments = self.experiments
        fresh = Path(tempfile.mkdtemp(prefix="codes-", dir=self.work))
        texts = []
        for sweep in self.sweeps:
            code_dir = {"prebuilt": self.prebuilt, "fresh": fresh, None: None}[sweep.code_dir]
            texts.append(sweep.config_text(self.seed, code_dir))
        outputs = []
        gc.collect()  # start each repetition without garbage left by the last
        start = time.perf_counter()
        for text in texts:
            try:
                report = experiments.run_experiment(experiments.parse_config(text), jobs=jobs)
                outputs.append((report, report.to_csv()))
            except Exception as exc:  # a raising sweep fails its rows; the run goes on
                outputs.append((exc, None))
        compare = None
        if self.workload == "mc_sweep" and all(csv for _, csv in outputs):
            try:
                records = [r for report, _ in outputs for r in report.records]
                compare = experiments.Report(experiments.compare_bounds(records))
                compare = compare.to_csv(experiments.COMPARE_COLUMNS)
            except ValueError as exc:
                compare = exc
        seconds = time.perf_counter() - start
        shutil.rmtree(fresh)

        rows = []
        for sweep, (report, csv) in zip(self.sweeps, outputs):
            if csv is None:
                rows += [(f"raised {type(report).__name__}: {report}", False)] * len(sweep.grid)
                continue
            header, *lines = csv.splitlines()
            for record, line in zip(report.records, lines):
                ok = record["status"] == "ok" and all(
                    record[flag] is not False for flag in ("bits_ok", "bound_ok", "cost_in_bounds")
                )
                rows.append((row_digest(sweep.spec(self.seed), header, line), ok))
        if self.workload == "mc_sweep":
            if isinstance(compare, str):
                header, *lines = compare.splitlines()
                rows += [(row_digest("compare_bounds", header, line), True) for line in lines]
            else:
                rows += [(f"compare_bounds failed: {compare}", False)] * len(MC_GRID)
        return seconds, rows


class Checker:
    """Counts failed rows against the pinned digests or the first repetition."""

    def __init__(self, expected: int, reference: list[str] | None) -> None:
        self.expected = expected
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, rows: list[tuple[str, bool]]) -> None:
        if self.reference is None:
            self.reference = [digest for digest, _ in rows]
        self.attempted += self.expected
        bad = abs(len(rows) - self.expected)
        for index, (digest, ok) in enumerate(rows):
            matches = index < len(self.reference) and digest == self.reference[index]
            if not (ok and matches):
                bad += 1
                self.problems.append(f"{label}: row {index} ({digest}) ok={ok} matches={matches}")
        self.failed += min(bad, self.expected)

    def expect(self, ok: bool, problem: str) -> None:
        """A check on the run as a whole; it counts as one attempted row."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def calibrate() -> float:
    """Wall time of a fixed mix of interpreted work: a gauge of the interpreter's speed.

    The mix is the kind of work the interpreter-bound sweeps do: dict and
    tuple traffic, small array draws and array-to-tuple conversion.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    start = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for i in range(CALIBRATION_STEPS):
        pair = divmod(i * 2654435761 & 0xFFFF, 37)
        table[i & 1023] = pair
        total += len(table) + pair[1]
    for _ in range(CALIBRATION_DRAWS):
        bits = rng.integers(0, 2, size=64, dtype=numpy.int8)
        total += (hash(tuple(bits.tolist())) & 7) + int(numpy.count_nonzero(bits))
    return time.perf_counter() - start


def timed_subprocess(cmd: list[str], env: dict | None = None) -> tuple[float, int]:
    """Wall time and exit code of a command run from the checkout's root.

    The wait blocks instead of polling (as ``subprocess.run`` with a timeout
    does, in steps of up to 50 ms), so the time has no polling steps; a timer
    kills the command after 150 s.
    """
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL) as proc:
        timer = threading.Timer(150, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    return time.perf_counter() - start, code


def run_setup(workload: str, seed: int, directory: Path, tiny: bool) -> tuple[float, float]:
    """One set-up in a fresh interpreter, building into ``directory``.

    Returns its wall time and the mean of the calibration passes just
    before and just after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup", str(directory),
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    before = calibrate()
    wall, code = timed_subprocess(cmd)
    gauge = (before + calibrate()) / 2
    if code != 0:
        sys.exit(f"perfbench: set-up exited {code}")
    return wall, gauge


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(ghd) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git_sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        git_sha = ref
    source = hashlib.sha256()
    for path in sorted((SRC / "ghd").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": source.hexdigest(),
    }


def load_pins() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.is_file() else {}


COUNTERS = ("runtime.index_below.calls", "sketch.payload_bits", "covering.greedy.picks", "streaming.handoff_bits")


def span_metrics(tracers, names: list[str], checker: Checker) -> dict[str, float]:
    """Span and counter metrics from one Tracer per traced repetition.

    Calls and counters come from the first repetition (they must repeat
    exactly); self and total seconds are medians over repetitions, and the
    percentiles pool every call.
    """
    first = tracers[0]
    shape = lambda t: (dict(t.counts), {k: len(v) for k, v in t.durations.items()})
    checker.expect(
        all(shape(t) == shape(first) for t in tracers[1:]),
        "span calls or counters differ between repetitions",
    )
    metrics: dict[str, float] = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if name in COUNTERS:
            metrics[name] = first.counts.get(name, 0)
        elif stat == "calls":
            # greedy spans are named per code, e.g. covering.greedy_covering_code.n16_r2
            metrics[name] = sum(
                len(v) for k, v in first.durations.items() if k == base or k.startswith(base + ".n")
            )
        elif stat == "self_s":
            metrics[name] = statistics.median(t.self_s.get(base, 0.0) for t in tracers)
        elif stat == "s":
            metrics[name] = statistics.median(sum(t.durations.get(base, ())) for t in tracers)
        elif stat in ("us_p50", "us_p99"):
            pooled = sorted(d for t in tracers for d in t.durations.get(base, ()))
            rank = 0.5 if stat == "us_p50" else 0.99
            metrics[name] = pooled[int(rank * len(pooled))] * 1e6 if pooled else 0.0
    return metrics


def measure(bench: Bench, checker: Checker, seconds: float, trace: bool):
    """Warm up once, then repeat until ``seconds`` pass; traced runs alternate.

    Each untraced repetition is returned as (wall time, mean of the
    calibration passes just before and just after it).
    """
    import spans

    _, rows = bench.sweep_once()
    checker.check("warm-up", rows)
    plain: list[tuple[float, float]] = []
    traced: list[float] = []
    tracers = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(plain) < (2 if trace else MIN_REPS):
        before = calibrate()
        wall, rows = bench.sweep_once()
        gauge = (before + calibrate()) / 2
        checker.check(f"repetition {len(plain)}", rows)
        plain.append((wall, gauge))
        if trace:
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                wall, rows = bench.sweep_once()
            finally:
                uninstall()
            checker.check(f"traced repetition {len(traced)}", rows)
            traced.append(wall)
            tracers.append(tracer)
    return plain, traced, tracers


def traced_extras(bench: Bench, checker: Checker, metrics: dict) -> None:
    """jobs=2 wall time and the ``ghd bench`` subprocess, both untraced."""
    wall, rows = bench.sweep_once(jobs=2)
    checker.check("jobs=2", rows)
    metrics["experiments.jobs2_wall_s"] = wall

    command = [sys.executable, "-c", "import ghd.cli"]
    imports = [timed_subprocess(command, child_env()) for _ in range(SETUP_REPS)]
    checker.expect(all(code == 0 for _, code in imports), "import ghd.cli failed")
    metrics["cli.import_s"] = statistics.median(wall for wall, _ in imports)
    det = bench.exact_det
    codes = bench.prebuilt if bench.workload == "exact_sweep" else bench.work / "cli-codes"
    config_path = bench.work / "cli-det.cfg"
    config_path.write_text(det.config_text(bench.seed, codes))
    config = bench.experiments.parse_config(config_path.read_text())
    expected = bench.experiments.run_experiment(config).to_csv()
    out = bench.work / "cli-det.csv"
    metrics["cli.bench_s"], code = timed_subprocess(
        [sys.executable, "-m", "ghd.cli", "bench", "det", "--config", str(config_path), "--out", str(out)],
        child_env(),
    )
    checker.expect(
        code == 0 and out.is_file() and out.read_text() == expected,
        f"ghd bench exited {code} or its report differs from run_experiment",
    )


def scaled_median(timings: list[tuple[float, float]]) -> float:
    """Median of (wall time, calibration pass) pairs scaled to the reference interpreter speed."""
    return statistics.median(wall * CALIBRATION_REF_S / gauge for wall, gauge in timings)


def run(args, ghd, spec: dict, work: Path) -> int:
    bench = Bench(ghd, args.workload, args.seed, work, args.tiny)
    pins = {} if args.tiny else load_pins().get(args.workload, {})
    checker = Checker(bench.records, pins.get(str(args.seed)))

    setups = []
    for index in range(SETUP_REPS):
        bench.prebuilt = bench.work / f"setup-{index}"
        setups.append(run_setup(args.workload, args.seed, bench.prebuilt, args.tiny))

    plain, traced, tracers = measure(bench, checker, args.seconds, bool(args.trace))
    walls = [wall for wall, _ in plain]
    scaled = SCALED[args.workload]
    sweep_s = scaled_median(plain) if "sweep" in scaled else statistics.median(walls)
    if args.trace:
        metrics = span_metrics(tracers, [m["name"] for m in spec["per_layer"]], checker)
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1.0
        metrics["experiments.jobs1_wall_s"] = statistics.median(walls)
        metrics["calibration_ms"] = statistics.median(gauge for _, gauge in plain) * 1e3
        traced_extras(bench, checker, metrics)
        declared = spec["per_layer"]
    else:
        metrics = {
            "sweep_s": sweep_s,
            "runs_per_s": bench.runs / sweep_s,
            "setup_s": scaled_median(setups) if "setup" in scaled else statistics.median(s for s, _ in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    metrics["failed_frac"] = checker.failed / checker.attempted

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not computed: {missing}")
    for problem in checker.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "env": environment(ghd),
        "workload": args.workload,
        "seed": args.seed,
        "pinned": str(args.seed) in pins,
        "repetitions": len(plain),
        "sweep_s_each": walls,
        "calibration_s_each": [gauge for _, gauge in plain],
        "setup_s_each": [wall for wall, _ in setups],
        "setup_calibration_s_each": [gauge for _, gauge in setups],
        "traced_s_each": traced,
    }))
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


def pin(ghd, work: Path, workload: str, first: int, count: int) -> None:
    """Record row digests for a range of seeds (codes are shared across seeds)."""
    pins = load_pins()
    entries = pins.setdefault(workload, {})
    codes = work / "codes"
    for seed in range(first, first + count):
        bench = Bench(ghd, workload, seed, work)
        bench.sweeps = tuple(
            Sweep(s.protocol, s.grid, s.trials, "prebuilt" if s.code_dir else None)
            for s in bench.sweeps
        )
        bench.prebuilt = codes
        bench.prepare(codes)
        _, rows = bench.sweep_once()
        bad = [digest for digest, ok in rows if not ok]
        if bad:
            sys.exit(f"perfbench: seed {seed} has failing rows, not pinning: {bad}")
        entries[str(seed)] = [digest for digest, _ in rows]
        print(f"pinned {workload} seed {seed}", file=sys.stderr)
    pins[workload] = dict(sorted(entries.items(), key=lambda item: int(item[0])))
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads for the self-test")
    parser.add_argument("--setup", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--pin", nargs=3, metavar=("WORKLOAD", "FIRST", "COUNT"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ghd = import_ghd()
    if args.setup:
        Bench(ghd, args.workload, args.seed, Path(args.setup), args.tiny).prepare(Path(args.setup))
        return 0
    if not (args.pin or args.workload):
        parser.error("--workload is required")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        if args.pin:
            pin(ghd, work, args.pin[0], int(args.pin[1]), int(args.pin[2]))
            return 0
        return run(args, ghd, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
