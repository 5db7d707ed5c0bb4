"""Per-layer spans and counters, installed from outside the library.

``traced(tracer)`` swaps each public function the CLI and the library call
for a wrapper that records a span, at every module where the function is
looked up (``railcirc.cli.parse_netlist`` as well as
``railcirc.circuit.parse_netlist``), plus ``Circuit.__post_init__`` for
validation.  The originals come back when the block ends, so untraced
passes run the library untouched.  Spans live in memory as tuples
``(id, name, start, end, parent, iteration)``; each iteration runs under one
root span.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import railcirc
from railcirc import (bitsim, circuit, cli, dualrail, reports, tableau, tm,
                      transducer, verify)

_MODULES = (railcirc, bitsim, circuit, cli, dualrail, reports, tableau, tm,
            transducer, verify)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.iteration: int | None = None
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.iteration))

    @contextmanager
    def root(self, iteration: int):
        """The root span of one iteration; everything inside carries its id."""
        self.iteration = iteration
        try:
            with self.span("iteration"):
                yield
        finally:
            self.iteration = None

    def add(self, name: str, value: float) -> None:
        self.counts[self.iteration][name] += value

    def peak(self, name: str, value: float) -> None:
        c = self.counts[self.iteration]
        c[name] = max(c[name], value)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def layer_seconds(self) -> dict[int, dict[str, list[float]]]:
        """Per iteration and span name: [total, self] seconds, where self
        time is a span's duration minus the durations of its children."""
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        per: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for sid, name, start, end, _, it in self.spans:
            t = per[it][name]
            t[0] += end - start
            t[1] += end - start - child[sid]
        return per

    def records(self) -> list[dict]:
        t0 = min((s[2] for s in self.spans), default=0.0)
        keys = ("id", "name", "start", "end", "parent", "iteration")
        return [dict(zip(keys, (sid, name, start - t0, end - t0, parent, it)))
                for sid, name, start, end, parent, it in sorted(self.spans)]


def _compiled(tr, args, result):
    tr.add("tableau.gates", len(result.gates))
    tr.add("tableau.grid_cells", (args[2] + 1) ** 2)


def _transformed(tr, args, result):
    tr.add("dualrail.source_gates", len(args[0].gates))
    tr.add("dualrail.target_gates", len(result.gates))


def _streamed(tr, args, result):
    tr.add("transducer.bits", result.input_bits_read)
    tr.peak("transducer.peak_state_bits", result.peak_state_bits)


# Span name, defining module, function, counter hook.
LAYERS = (
    ("cli.main", cli, "main", None),
    ("tm.parse_tm", tm, "parse_tm", None),
    ("tm.run", tm, "run", None),
    ("tableau.compile_tm", tableau, "compile_tm", _compiled),
    ("tableau.compile_tm_flattened", tableau, "compile_tm_flattened", _compiled),
    ("circuit.parse_netlist", circuit, "parse_netlist",
     lambda tr, args, result: tr.add("circuit.netlist_bytes", len(args[0]))),
    ("circuit.emit_netlist", circuit, "emit_netlist",
     lambda tr, args, result: tr.add("circuit.netlist_bytes", len(result))),
    ("circuit.stats", circuit, "stats", None),
    ("bitsim.evaluate_masks", bitsim, "evaluate_masks",
     lambda tr, args, result: tr.add("bitsim.wire_evals",
                                     len(args[0].gates) * args[2].bit_length())),
    ("dualrail.dual_rail_transform", dualrail, "dual_rail_transform", _transformed),
    ("dualrail.validate_rail_complement", dualrail, "validate_rail_complement", None),
    ("verify.exhaustive_equiv", verify, "exhaustive_equiv", None),
    ("verify.check_semantic_monotone", verify, "check_semantic_monotone", None),
    ("verify.enumerate_monotone_functions", verify, "enumerate_monotone_functions", None),
    ("transducer.stream_flatten", transducer, "stream_flatten", _streamed),
)
VALIDATE = "circuit.validate"


@contextmanager
def patched(replacements: dict):
    """Replace each function ``fn`` in ``replacements`` by its new value in
    every railcirc module that binds it; restore all bindings on exit."""
    by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
    saved = []
    for mod in _MODULES:
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    try:
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


@contextmanager
def traced(tracer: Tracer):
    """Record a span around every layer function and Circuit validation."""
    replacements = {getattr(mod, attr): tracer.wrap(name, getattr(mod, attr), count)
                    for name, mod, attr, count in LAYERS}
    post_init = circuit.Circuit.__post_init__

    def constructed(tr, args, result):
        tr.add("circuit.constructions", 1)

    circuit.Circuit.__post_init__ = tracer.wrap(VALIDATE, post_init, constructed)
    try:
        with patched(replacements):
            yield
    finally:
        circuit.Circuit.__post_init__ = post_init


@contextmanager
def evaluate_masks_peaks(peaks: list[int]):
    """Record the bytes each ``evaluate_masks`` call allocates, its result
    included, with tracemalloc running only inside the call."""
    fn = bitsim.evaluate_masks

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with patched({fn: probed}):
        yield
