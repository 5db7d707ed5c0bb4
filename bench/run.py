"""railcirc benchmark: seeded CLI workloads, checked outputs, per-layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tableau|sweep|flatten --seed N \\
        --seconds S --trace 0|1

Each workload drives ``railcirc.cli.main`` in this one process with stdin,
stdout and stderr redirected to memory (see ``workloads.py``).  Every output
of a set-up or traced pass is checked against an independent reference;
every output of an untraced timed pass must equal, byte for byte, that of
the last checked pass, so the checks take little of the timed run.
``--trace 0`` reports the end-to-end metrics: set-up three times (input
generation, file writes and an untimed warm-up iteration), then timed
iterations for S seconds, each after a ``gc.collect()``.  ``--trace 1``
reports the per-layer metrics: S/2 seconds untraced, S/2 seconds with spans
around each library layer (``spans.py``), then one pass with tracemalloc
inside ``evaluate_masks`` only; the spans are written to ``bench/out``.
The last line of stdout is one JSON object; the lines before it name each
metric with its unit.  METRICS.md defines each metric and says which layer
should move which end-to-end figure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3

# Per-layer spans reported as total and self seconds per iteration.
SPAN_LAYERS = (
    "tm.parse_tm", "tm.run", "tableau.compile_tm", "tableau.compile_tm_flattened",
    "circuit.validate", "circuit.parse_netlist", "circuit.emit_netlist",
    "circuit.stats", "bitsim.evaluate_masks", "dualrail.dual_rail_transform",
    "dualrail.validate_rail_complement", "verify.exhaustive_equiv",
    "verify.check_semantic_monotone", "verify.enumerate_monotone_functions",
    "transducer.stream_flatten",
)
COMMANDS = ("compile_tm", "verify", "flatten", "stream_flatten")
COUNTS = (
    ("tableau.gates", "count"), ("tableau.grid_cells", "count"),
    ("circuit.netlist_bytes", "bytes"), ("circuit.constructions", "count"),
    ("bitsim.wire_evals", "count"), ("transducer.bits", "bits"),
    ("transducer.peak_state_bits", "bits"),
)


def _load_program():
    """Put the checkout's sources on the path; refuse to run without them."""
    src = ROOT / "src"
    if not (src / "railcirc" / "cli.py").is_file():
        sys.exit(f"error: no railcirc sources under {src}")
    sys.path.insert(0, str(src))
    import railcirc
    if Path(railcirc.__file__).resolve().parent != src / "railcirc":
        sys.exit(f"error: imported railcirc from {railcirc.__file__}, not {src}")


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs) -> tuple[float, float]:
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class Run:
    """One benchmark run of one workload: set-up, passes, tallied checks."""

    def __init__(self, workload_cls, seed: int, seconds: float, sizes, workdir: Path):
        import workloads
        self.workloads = workloads
        self.cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.tally = workloads.Tally()
        self.figures: set[tuple[int, int]] = set()
        self.expected = None
        self.work = None
        self.setups = 0
        self.peak_rss = None

    def setup(self) -> float:
        """Generate and write the inputs, then run one untimed warm-up
        iteration; returns the seconds all of that took.  The first set-up's
        warm-up is the first pipeline pass in the process, so the process's
        peak resident set right after it is the peak of one iteration."""
        gc.collect()
        t0 = time.perf_counter()
        self.setups += 1
        self.work = self.cls(self.seed, self.workdir / f"setup{self.setups}", self.sizes)
        out = self.work.pipeline(self.workloads.Steps(self.tally))
        elapsed = time.perf_counter() - t0
        if self.peak_rss is None:
            self.peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        self.check(out, full=True)
        return elapsed

    def check(self, out: dict, full: bool) -> None:
        """The full reference check, or (``full`` false) equality with the
        outputs of the last pass that had the full check."""
        if full:
            self.figures.add(self.work.check(out, self.tally))
            self.expected = self.work.outputs(out)
        else:
            self.tally.check(self.work.outputs(out) == self.expected,
                             "outputs differ from those of the checked pass")

    def iteration(self, tracer=None):
        """One pipeline pass plus its checks (the full ones when traced);
        returns (seconds, per command).

        Objects alive before the pass (inputs, cached references) are
        frozen out of the cyclic collector, so the program's collections
        scan only what the program allocates, as in a fresh CLI process."""
        gc.collect()
        gc.freeze()
        try:
            steps = self.workloads.Steps(self.tally)
            with tracer.span("pipeline") if tracer else nullcontext():
                t0 = time.perf_counter()
                out = self.work.pipeline(steps)
                elapsed = time.perf_counter() - t0
            with tracer.span("check") if tracer else nullcontext():
                self.check(out, full=tracer is not None)
            return elapsed, steps.seconds
        finally:
            gc.unfreeze()

    def timed(self, seconds: float, tracer=None):
        """Iterations for ``seconds`` wall seconds, at least one; returns the
        pipeline seconds of each and the seconds per command kind of each."""
        samples: list[float] = []
        kinds: dict[str, list[float]] = defaultdict(list)
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            with tracer.root(len(samples)) if tracer else nullcontext():
                elapsed, per_kind = self.iteration(tracer)
            samples.append(elapsed)
            for kind in COMMANDS:
                kinds[kind].append(per_kind.get(kind, 0.0))
        return samples, kinds

    def evaluate_masks_peak(self) -> int:
        """Largest allocation of one ``evaluate_masks`` call, from a pass of
        its own with tracemalloc running only inside those calls."""
        import spans
        peaks: list[int] = []
        gc.collect()
        with spans.evaluate_masks_peaks(peaks):
            out = self.work.pipeline(self.workloads.Steps(self.tally))
        self.check(out, full=True)
        return max(peaks, default=0)

    def end_to_end(self) -> tuple[dict, list[str]]:
        setups = [self.setup() for _ in range(SETUPS)]
        samples, kinds = self.timed(self.seconds)
        gates, depth = self.figure()
        q1, q3 = _quartiles(samples)
        metrics = {
            "pipeline_s": (_median(samples), "s"),
            "peak_mb": (self.peak_rss / 1e6, "MB"),
            "out_gates": (gates, "gates"),
            "out_depth": (depth, "levels"),
            "setup_s": (_median(setups), "s"),
        }
        notes = [f"pipeline_s: median of {len(samples)} iterations, "
                 f"quartiles {q1:.4f} .. {q3:.4f} s; "
                 + ", ".join(f"{x:.3f}" for x in samples)]
        for kind in COMMANDS:
            if any(kinds[kind]):
                notes.append(f"{kind}_s {_median(kinds[kind]):.4f} s "
                             f"(median per iteration)")
        notes.append(f"setup_s: median of {SETUPS} set-ups "
                     + ", ".join(f"{s:.4f}" for s in setups))
        return metrics, notes

    def per_layer(self, out_dir: Path) -> tuple[dict, list[str]]:
        import spans
        self.setup()
        untraced, kinds = self.timed(self.seconds / 2)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced, _ = self.timed(self.seconds / 2, tracer)
        bitsim_peak = self.evaluate_masks_peak()
        self.figure()

        per_iter = tracer.layer_seconds()
        iters = sorted(i for i in per_iter if i is not None)

        def med(name: str, which: int) -> float:
            return _median([per_iter[i][name][which] for i in iters])

        def count(name: str) -> float:
            return _median([tracer.counts[i][name] for i in iters])

        metrics = {"cli.main_s": (med("cli.main", 1), "s")}
        for name in SPAN_LAYERS:
            metrics[f"{name}_s"] = (med(name, 0), "s")
            metrics[f"{name}_self_s"] = (med(name, 1), "s")
        for name, unit in COUNTS:
            metrics[name] = (count(name), unit)
        source = count("dualrail.source_gates")
        metrics["dualrail.blowup"] = (
            count("dualrail.target_gates") / source if source else 0.0, "target/source")
        metrics["bitsim.peak_mb"] = (bitsim_peak / 1e6, "MB")
        t = self.tally
        metrics["verify.verdicts_correct"] = (
            t.verdicts_correct / t.verdicts if t.verdicts else 1.0, "ratio")
        for kind in COMMANDS:
            metrics[f"{kind}_s"] = (_median(kinds[kind]), "s")
        metrics["trace_overhead"] = (_median(traced) / _median(untraced), "ratio")

        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"spans-{self.cls.name}-seed{self.seed}.json"
        path.write_text(json.dumps(tracer.records()) + "\n", encoding="utf-8")
        notes = [f"{len(iters)} traced and {len(untraced)} untraced iterations; "
                 f"{len(tracer.spans)} spans written to {path}",
                 f"dualrail.blowup base: {count('dualrail.source_gates'):.0f} "
                 f"source gates per iteration"]
        return metrics, notes

    def figure(self) -> tuple[int, int]:
        """(out_gates, out_depth); every iteration must have produced the same."""
        self.tally.check(len(self.figures) == 1,
                         f"emitted circuits differ between iterations: {self.figures}")
        return min(self.figures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(cls, args.seed, args.seconds, workloads.FULL, workdir)
    try:
        if args.trace:
            metrics, notes = run.per_layer(BENCH / "out")
        else:
            metrics, notes = run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    t = run.tally
    print(f"railcirc benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} inputs_sha256={run.work.inputs_sha256}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':44s} {t.failed / t.attempted:14.6g} "
          f"({t.failed} of {t.attempted} steps and checks)")
    for note in notes:
        print(f"  # {note}")
    for miss in t.misses:
        print(f"  FAILED: {miss}", file=sys.stderr)
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
