"""Spans and counters around the public functions of each ``ghd`` module.

Installed from outside the package: :func:`install` rebinds each traced
function wherever a ``ghd`` module holds a reference to it (so calls made via
``from .covering import load_code`` are seen too), and the returned callable
restores every original.  Nothing under ``src/`` is edited.

A span records its wall duration and its self time, which is the duration
minus the time covered by spans that ran inside it.  Spans nest through a
stack, which also follows calls made from inside protocol strategies, since
those run within ``runtime.run_protocol``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

class Tracer:
    """Per-span durations and self times, plus exact event counters."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, fn, name, after=None):
        """Time ``fn``; ``name`` is a string or ``name(args, result)``.

        ``after(args, result)`` runs outside the timed interval, for counters.
        """
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
            label = name if isinstance(name, str) else name(args, result)
            self.durations[label].append(duration)
            self.self_s[label] += duration - children[0]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _module_of(strategy) -> str:
    # a Protocol.run span is named after the module that built the strategies
    return strategy.__module__.rpartition(".")[2]


def _nearest_path(args, result) -> str:
    # CoveringCode caches its decode table in the instance dict; None means
    # the code is too long for a table and nearest_index scanned the code.
    table = vars(args[0]).get("_decode_table")
    return "covering.nearest_index." + ("scan" if table is None else "table")


def _greedy_name(args, result) -> str:
    return f"covering.greedy_covering_code.n{result.n}_r{result.radius}"


def _handoff_bits(run) -> int:
    # every message but the final one-bit decision is a state snapshot
    return run.communication_bits - run.ledger.messages[-1].width


def install(tracer: Tracer):
    """Install spans for ``tracer``; returns a function that removes them."""
    import ghd
    from ghd import bits, cli, covering, experiments, runtime, sampling, sketch, streaming

    modules = (ghd, bits, cli, covering, experiments, runtime, sampling, sketch, streaming)
    restore: list[tuple[object, str, object]] = []

    def rebind_function(module, attr, make):
        original = getattr(module, attr)
        replacement = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, original))
                    setattr(mod, key, replacement)

    def rebind_method(cls, attr, make):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        restore.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    def count(name, amount):
        def after(args, result):
            tracer.counts[name] += amount(args, result)

        return after

    rebind_function(runtime, "run_protocol", span("runtime.run_protocol"))
    rebind_method(runtime.StreamReader, "unit_vectors", span("runtime.unit_vectors"))
    rebind_method(
        runtime.StreamReader,
        "index_below",
        lambda fn: tracer.counting(fn, "runtime.index_below.calls"),
    )
    rebind_method(
        runtime.Protocol,
        "run",
        span(lambda args, result: _module_of(args[0].alice) + ".run_protocol"),
    )
    rebind_function(bits, "random_pair_at_distance", span("bits.random_pair_at_distance"))

    rebind_function(sketch, "alice_sketch", span("sketch.alice_sketch"))
    rebind_function(sketch, "bob_decide", span("sketch.bob_decide"))
    rebind_method(
        sketch.SketchMessage,
        "to_payload",
        span(
            "sketch.to_payload",
            count("sketch.payload_bits", lambda args, result: args[0].bit_length),
        ),
    )
    rebind_method(sketch.SketchMessage, "from_payload", span("sketch.from_payload"))

    rebind_function(
        covering,
        "greedy_covering_code",
        span(
            _greedy_name,
            count("covering.greedy.picks", lambda args, result: result.size),
        ),
    )
    rebind_function(covering, "audit_covering", span("covering.audit_covering"))
    rebind_function(covering, "save_code", span("covering.save_code"))
    rebind_function(covering, "load_code", span("covering.load_code"))
    rebind_method(covering.CoveringCode, "nearest_index", span(_nearest_path))

    rebind_function(
        streaming,
        "ghd_via_streaming",
        span(
            "streaming.ghd_via_streaming",
            count("streaming.handoff_bits", lambda args, result: _handoff_bits(result[1])),
        ),
    )
    rebind_function(streaming, "encode_streams", span("streaming.encode_streams"))

    rebind_function(experiments, "run_experiment", span("experiments.run_experiment"))
    rebind_function(experiments, "prepare_codes", span("experiments.prepare_codes"))
    rebind_function(experiments, "compare_bounds", span("experiments.compare_bounds"))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
