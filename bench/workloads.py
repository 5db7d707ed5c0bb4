"""The three benchmark workloads: seeded inputs, the CLI pipeline, checks.

Each workload writes its generated inputs into a work directory, runs its
pipeline in process through ``railcirc.cli.main`` with stdin, stdout and
stderr redirected to memory, and checks every output against the
independent reference in ``ref`` (and, for the tableau, the machine
simulator ``railcirc.tm.run``).  Every step and check counts as one attempt;
every miss counts as one failure.
"""

from __future__ import annotations

import io
import random
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gen
import ref
from railcirc import circuit, cli, dualrail, tm

ROOT = Path(__file__).resolve().parent.parent
PARITY = ROOT / "fixtures" / "parity.tm"

# Number of monotone Boolean functions of n inputs, constants included.
CENSUS = {1: 3, 2: 6, 3: 20, 4: 168}
_RAILS = str.maketrans({"0": "10", "1": "01"})


@dataclass(frozen=True)
class Sizes:
    tm_inputs: int = 6
    tm_steps: int = 24
    equiv: tuple = (6, 18, 40, 40, 10)       # count, inputs, layers, width, nots
    monotone: tuple = (4, 16, 50, 80, 0)
    rail: tuple = (12, 20, 40, 10)           # inputs, layers, width, nots
    census: int = 4
    samples: int = 256                       # sampled assignments per check
    foreign: tuple = (10, 500, 160, 40)
    stream_bits: int = 1 << 21


FULL = Sizes()
TOY = Sizes(tm_inputs=3, tm_steps=6, equiv=(2, 6, 4, 6, 2),
            monotone=(1, 6, 4, 6, 0), rail=(5, 3, 6, 2), census=2,
            samples=16, foreign=(4, 5, 8, 2), stream_bits=1000)


class Tally:
    """Attempts and misses over steps and checks, plus verifier verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.verdicts_correct = 0
        self.misses: list[str] = []

    def check(self, ok: bool, what: str, verdict: bool = False) -> bool:
        self.attempted += 1
        if verdict:
            self.verdicts += 1
            self.verdicts_correct += ok
        if not ok:
            self.failed += 1
            self.misses.append(what)
        return ok


class Steps:
    """Runs one iteration's steps and adds their wall time per command kind."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.seconds: dict[str, float] = defaultdict(float)

    def cli(self, kind: str, argv: list[str], stdin: str = "", expect: int = 0):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            self.seconds[kind] += time.perf_counter() - t0
            sys.stdin, sys.stdout, sys.stderr = saved
        self.tally.check(code == expect,
                         f"railcirc {' '.join(argv)}: exit {code}, want {expect}")
        return out.getvalue(), err.getvalue()

    def library(self, kind: str, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.seconds[kind] += time.perf_counter() - t0


class Workload:
    """Generated inputs in ``workdir``; ``pipeline`` and ``check`` per run."""

    name = ""

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = FULL):
        self.dir = workdir
        self.sizes = sizes
        self.files: dict[str, str] = {}
        self.stdin = ""
        self.generate(random.Random(f"{self.name}:{seed}"))
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        self.inputs_sha256 = gen.digest({**self.files, "<stdin>": self.stdin})
        self._ref: dict[str, ref.Netlist] = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def read(self, name: str) -> str:
        return (self.dir / name).read_text(encoding="utf-8")

    def source(self, name: str) -> ref.Netlist:
        """Reference reading of a generated input, made once."""
        if name not in self._ref:
            self._ref[name] = ref.Netlist(self.files[name])
        return self._ref[name]

    def add(self, name: str, gates_outputs, header: str) -> None:
        self.files[name] = gen.netlist_text(*gates_outputs, header)

    def generate(self, rng) -> None:
        raise NotImplementedError

    def pipeline(self, steps: Steps) -> dict:
        raise NotImplementedError

    def check(self, out: dict, tally: Tally) -> tuple[int, int]:
        """Check one iteration's outputs; returns (out_gates, out_depth)."""
        raise NotImplementedError

    def outputs(self, out: dict) -> dict:
        """Everything one iteration produced, to compare two iterations."""
        return out

    def check_flattened(self, src: ref.Netlist, flat_text: str, tally: Tally,
                        assignments: list[str], label: str) -> ref.Netlist:
        """A dual-rail rewrite is NOT-free, at most 2x the source gates, and
        agrees with the source on the given assignments."""
        flat = ref.Netlist(flat_text)
        tally.check(flat.count(ref.NOT) == 0, f"{label}: NOT gates remain")
        tally.check(flat.gates <= 2 * src.gates,
                    f"{label}: {flat.gates} gates > 2 x {src.gates}")
        full = (1 << len(assignments)) - 1
        masks = ref.input_masks(src.inputs, assignments)
        tally.check(src.evaluate(masks, full)
                    == flat.evaluate(ref.rail_masks(masks, full), full),
                    f"{label}: differs from its source")
        return flat


class Tableau(Workload):
    """Two 108,344-gate compiles of parity.tm, their equivalence and stats:
    tableau build, Circuit validation and netlist parsing dominate."""

    name = "tableau"

    def generate(self, rng) -> None:
        del rng  # the machine and sizes are fixed; only the file is an input
        self.files["parity.tm"] = PARITY.read_text(encoding="utf-8")
        self._machine = None

    def pipeline(self, steps: Steps) -> dict:
        s = self.sizes
        m, raw, flat = self.path("parity.tm"), self.path("raw.net"), self.path("flat.net")
        nt = ["-n", str(s.tm_inputs), "-t", str(s.tm_steps)]
        steps.cli("compile_tm", ["compile-tm", m, *nt, "--out", raw])
        steps.cli("compile_tm", ["compile-tm", m, *nt, "--flattened", "--out", flat])
        verdict, _ = steps.cli("verify", ["verify", "equiv", "--flattened", raw, flat])
        st, _ = steps.cli("stats", ["stats", raw])
        return {"verdict": verdict, "stats": st}

    def outputs(self, out: dict) -> dict:
        return {**out, "raw.net": self.read("raw.net"), "flat.net": self.read("flat.net")}

    def check(self, out: dict, tally: Tally) -> tuple[int, int]:
        n, t = self.sizes.tm_inputs, self.sizes.tm_steps
        if self._machine is None:
            self._machine = tm.parse_tm(self.files["parity.tm"])
        xs = ref.all_assignments(n)
        accepts = sum(1 << j for j, x in enumerate(xs)
                      if tm.run(self._machine, x, t)[0] == tm.ACCEPT)
        full = (1 << len(xs)) - 1
        masks = ref.input_masks([f"x{i}" for i in range(n)], xs)
        raw = ref.Netlist(self.read("raw.net"))
        flat = ref.Netlist(self.read("flat.net"))
        tally.check(raw.evaluate(masks, full) == [accepts],
                    "raw tableau disagrees with the simulator")
        tally.check(flat.evaluate(ref.rail_masks(masks, full), full) == [accepts],
                    "flattened tableau disagrees with the simulator")
        tally.check(flat.count(ref.NOT) == 0, "flattened tableau has NOT gates")
        got = dict(kv.split("=") for kv in out["stats"].split())
        tally.check(got.get("not") == str(n) and got.get("total") == str(raw.gates)
                    and got.get("depth") == str(raw.depth()),
                    f"stats line wrong: {out['stats'].strip()}")
        tally.check(out["verdict"] == "equivalent\n",
                    f"tableau verdict {out['verdict'].strip()!r}", verdict=True)
        return raw.gates + flat.gates, max(raw.depth(), flat.depth())


class Sweep(Workload):
    """Exhaustive verifiers over 2^18-bit masks dominate.  The two planted
    pairs differ on every assignment and on the last one only, so an
    early-exit verifier wins on the first and should not move on the second."""

    name = "sweep"

    def generate(self, rng) -> None:
        count, *shape = self.sizes.equiv
        sources = []
        for i in range(count):
            sources.append(gen.layered_circuit(rng, *shape))
            self.add(f"c{i}.net", sources[-1], f"sweep circuit {i}")
        self.add("negated.net", gen.negated(*sources[0]), "c0, output negated")
        self.add("all_ones.net", gen.xor_all_ones(*sources[1]),
                 "c1 xor the AND of all inputs")
        count, *shape = self.sizes.monotone
        for j in range(count):
            self.add(f"m{j}.net", gen.layered_circuit(rng, *shape), f"AND/OR circuit {j}")
        self.add("rail.net", gen.layered_circuit(rng, *self.sizes.rail), "rail check")
        n = self.sizes.equiv[1]
        self.samples = ["0" * n, "1" * n] + [
            format(rng.getrandbits(n), f"0{n}b") for _ in range(self.sizes.samples)]

    def pipeline(self, steps: Steps) -> dict:
        out = {}
        for i in range(self.sizes.equiv[0]):
            flat, _ = steps.cli("flatten", ["flatten", self.path(f"c{i}.net")])
            (self.dir / f"f{i}.net").write_text(flat, encoding="utf-8")
            out[f"f{i}.net"] = flat
            out[f"equiv{i}"], _ = steps.cli(
                "verify", ["verify", "equiv", "--flattened",
                           self.path(f"c{i}.net"), self.path(f"f{i}.net")])
        for planted, target in (("negated.net", "f0.net"), ("all_ones.net", "f1.net")):
            out[planted], _ = steps.cli(
                "verify", ["verify", "equiv", "--flattened",
                           self.path(planted), self.path(target)], expect=1)
        for j in range(self.sizes.monotone[0]):
            out[f"m{j}"], _ = steps.cli("verify", ["verify", "monotone",
                                                   self.path(f"m{j}.net")])
        out["census"], _ = steps.cli("verify", ["verify", "census", "-n",
                                                str(self.sizes.census)])
        out["rail"], _ = steps.cli("flatten", ["flatten", self.path("rail.net")])
        out["rail_report"] = steps.library("validate_rail", lambda: (
            dualrail.validate_rail_complement(
                circuit.parse_netlist(self.files["rail.net"]),
                circuit.parse_netlist(out["rail"]))))
        return out

    def check(self, out: dict, tally: Tally) -> tuple[int, int]:
        n = self.sizes.equiv[1]
        flats = []
        for i in range(self.sizes.equiv[0]):
            flats.append(self.check_flattened(self.source(f"c{i}.net"), out[f"f{i}.net"],
                                              tally, self.samples, f"flatten c{i}"))
            tally.check(out[f"equiv{i}"] == "equivalent\n",
                        f"c{i} verdict {out[f'equiv{i}'].strip()!r}", verdict=True)
        for planted, flat, want in (("negated.net", flats[0], "0" * n),
                                    ("all_ones.net", flats[1], "1" * n)):
            self.check_planted(planted, flat, out[planted], want, tally)
        for j in range(self.sizes.monotone[0]):
            tally.check(out[f"m{j}"] == "monotone\n",
                        f"m{j} verdict {out[f'm{j}'].strip()!r}", verdict=True)
        k = self.sizes.census
        lines = out["census"].split()
        tally.check(len(lines) == CENSUS[k] and len(set(lines)) == len(lines)
                    and all(len(b) == 1 << k and ref.is_monotone_bits(b, k)
                            for b in lines),
                    f"census -n {k}: {len(lines)} lines", verdict=True)
        src = self.source("rail.net")
        flats.append(self.check_flattened(src, out["rail"], tally,
                                          ref.all_assignments(len(src.inputs)),
                                          "flatten rail.net"))
        tally.check(out["rail_report"] is None,
                    f"rail complement report {out['rail_report']}", verdict=True)
        return sum(f.gates for f in flats), max(f.depth() for f in flats)

    def check_planted(self, planted: str, flat: ref.Netlist, line: str,
                      want: str, tally: Tally) -> None:
        """The verifier must reject the planted pair with the lowest-index
        witness, and the witness must reproduce the mismatch."""
        fields = dict(kv.split("=", 1) for kv in line.split())
        witness = fields.get("witness", "")
        ok = witness == want and fields.get("kind") == "EQUIVALENCE"
        if ok:
            masks = ref.input_masks(self.source(planted).inputs, [witness])
            expected = self.source(planted).evaluate(masks, 1)
            observed = flat.evaluate(ref.rail_masks(masks, 1), 1)
            ok = (expected != observed and fields["expected"] == str(expected[0])
                  and fields["observed"] == str(observed[0]))
        tally.check(ok, f"{planted}: report {line.strip()!r}", verdict=True)


class Flatten(Workload):
    """The dual-rail rewrite of a 100,010-gate netlist the compiler did not
    write, and the streaming transducer over 2^21 bits."""

    name = "flatten"

    def generate(self, rng) -> None:
        self.add("foreign.net", gen.layered_circuit(rng, *self.sizes.foreign),
                 "foreign netlist")
        self.stdin = gen.bit_stream(rng, self.sizes.stream_bits)

    def pipeline(self, steps: Steps) -> dict:
        flat, _ = steps.cli("flatten", ["flatten", self.path("foreign.net")])
        stream, stats = steps.cli("stream_flatten", ["stream-flatten"], stdin=self.stdin)
        return {"flat": flat, "stream": stream, "stream_stats": stats}

    def check(self, out: dict, tally: Tally) -> tuple[int, int]:
        src = self.source("foreign.net")
        flat = self.check_flattened(src, out["flat"], tally,
                                    ref.all_assignments(len(src.inputs)),
                                    "flatten foreign.net")
        bits = self.stdin.replace("\n", "")
        tally.check(out["stream"] == bits.translate(_RAILS),
                    "stream-flatten output is not the rail encoding of its input")
        n = len(bits)
        want = f"read={n} written={2 * n} peak_state_bits={n.bit_length() + 2}\n"
        tally.check(out["stream_stats"] == want,
                    f"stream-flatten stats {out['stream_stats'].strip()!r}")
        return flat.gates, flat.depth()


WORKLOADS = {w.name: w for w in (Tableau, Sweep, Flatten)}
