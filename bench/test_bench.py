"""Self-test of the benchmark at toy sizes, plus its determinism check.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)

# Figures that must repeat exactly across runs of one seed, per trace mode.
DETERMINISTIC = {
    0: ("out_gates", "out_depth"),
    1: ("tableau.gates", "circuit.netlist_bytes", "bitsim.wire_evals",
        "transducer.peak_state_bits"),
}

_TOY_RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = [{bench!r}, {src!r}]
import run, workloads
r = run.Run(workloads.WORKLOADS[{name!r}], 3, 0.01, workloads.TOY, Path({work!r}))
metrics, _ = r.per_layer(Path({work!r})) if {trace} else r.end_to_end()
print(json.dumps([r.tally.failed, r.work.inputs_sha256,
                  {{k: metrics[k][0] for k in {keys!r}}}]))
"""


def _rewire_output(netlist: str) -> str:
    """Point the output at the first input's one-rail instead."""
    return re.sub(r"output \S+", "output x0__1", netlist)


def _toy_run(name: str, work: Path):
    return run.Run(workloads.WORKLOADS[name], 7, 0.01, workloads.TOY, work)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_at_toy_size(name, trace, tmp_path):
    r = _toy_run(name, tmp_path)
    metrics, _ = r.per_layer(tmp_path) if trace else r.end_to_end()
    assert r.tally.attempted > 0
    assert r.tally.failed == 0, r.tally.misses
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: unit for name, (_, unit) in metrics.items()}
    for value, _ in metrics.values():
        assert math.isfinite(value) and value >= 0
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())
    assert (tmp_path / f"spans-{name}-seed7.json").exists() == bool(trace)


@pytest.mark.parametrize("name", NAMES)
def test_checks_catch_a_wrong_output(name, tmp_path):
    """A corrupted emitted netlist or verdict must show up as failures, in
    the full check and in the comparison with the checked set-up pass."""
    r = _toy_run(name, tmp_path)
    r.setup()
    steps = workloads.Steps(r.tally)
    out = r.work.pipeline(steps)
    before = r.tally.failed
    if name == "tableau":
        raw = r.work.read("raw.net").replace("output accepted", "output x0")
        (r.work.dir / "raw.net").write_text(raw, encoding="utf-8")
        out["verdict"] = "kind=EQUIVALENCE witness=000\n"
    elif name == "sweep":
        out["f0.net"] = _rewire_output(out["f0.net"])
        out["census"] = out["census"].split("\n", 1)[1]
    else:
        out["stream"] = out["stream"][::-1]
        out["flat"] = _rewire_output(out["flat"])
    r.work.check(out, r.tally)
    assert r.tally.failed >= before + 2
    before = r.tally.failed
    r.check(out, full=False)
    assert r.tally.failed == before + 1


@pytest.mark.parametrize("name", NAMES)
def test_determinism_across_processes(name, tmp_path):
    """One seed gives byte-identical inputs and identical deterministic
    figures, also under different string-hash seeds."""
    for trace, keys in DETERMINISTIC.items():
        results = []
        for hash_seed in ("1", "2"):
            code = _TOY_RUN.format(bench=str(BENCH), src=str(ROOT / "src"), name=name,
                                   work=str(tmp_path / f"{trace}-{hash_seed}"),
                                   trace=trace, keys=keys)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, timeout=120, cwd=ROOT,
                                  env={**os.environ, "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0, proc.stderr
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        assert results[0] == results[1]
        assert results[0][0] == 0


@pytest.mark.parametrize("name", ["sweep", "flatten"])
def test_seed_selects_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = cls(1, tmp_path / "a", workloads.TOY).inputs_sha256
    b = cls(1, tmp_path / "b", workloads.TOY).inputs_sha256
    c = cls(2, tmp_path / "c", workloads.TOY).inputs_sha256
    assert a == b != c


def test_refuses_to_run_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
