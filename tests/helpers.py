"""Shared test machinery: fixture loading, random circuits, grid checks."""

from __future__ import annotations

from pathlib import Path

from railcirc import (AND, NOT, ONE_HOT, OR, Circuit, CounterexampleReport,
                      cell_alphabet, emit_netlist, parse_netlist)
from railcirc.bitsim import (assignment_of_index, evaluate_masks, full_mask,
                             input_masks, lowest_set_bit)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def random_circuit(rng, max_inputs=10, max_gates=60, ops=(AND, OR, NOT)) -> Circuit:
    """A random single-output circuit with at most max_gates gates total.

    NOT gates may land at any depth.  Operands are drawn uniformly from all
    earlier wires, so deep and reconvergent shapes both occur.
    """
    n = rng.randint(1, max_inputs)
    wires = [f"x{i}" for i in range(n)]
    lines = [f"input {x}" for x in wires]
    for j in range(rng.randint(1, max_gates - n)):
        op = rng.choice(ops)
        name = f"g{j}"
        if op == NOT:
            args = rng.choice(wires)
        else:
            args = f"{rng.choice(wires)} {rng.choice(wires)}"
        lines.append(f"{op} {name} {args}")
        wires.append(name)
    lines.append(f"output {wires[-1]}")
    return parse_netlist("\n".join(lines) + "\n")


def gate_lines(c: Circuit) -> str:
    """The canonical netlist text of c without its output lines."""
    return "".join(line for line in emit_netlist(c).splitlines(True)
                   if not line.startswith("output "))


def random_monotone_circuit(rng, max_inputs=10, max_gates=60) -> Circuit:
    return random_circuit(rng, max_inputs, max_gates, ops=(AND, OR))


def messy_netlist(rng, c: Circuit, early_outputs: bool = False) -> str:
    """The netlist of c with comments, blank lines, tabs, runs of spaces
    and mixed LF/CRLF line endings around and between its tokens.

    Output lines come last, or with early_outputs each at a random place
    below its gate's definition, later gates possibly after it; the output
    order is kept either way.
    """
    gaps = (" ", "  ", "\t", " \t ", "\t\t")
    rows = [line.split() for line in gate_lines(c).splitlines()]
    outs = [["output", o] for o in c.outputs]
    if early_outputs:
        defined = {name: i + 1 for i, name in enumerate(c.names)}
        slots = []  # number of gate rows above each output row
        for o in c.outputs:
            slots.append(rng.randint(max(slots[-1:] + [defined[o]]), len(rows)))
        for k in reversed(range(len(outs))):
            rows.insert(slots[k], outs[k])
    else:
        rows += outs
    lines = []
    for row in rows:
        if rng.random() < 0.3:
            lines.append(rng.choice(("", "  ", "\t", "# and g x y", " # output z")))
        line = rng.choice(("", " ", "\t")) + rng.choice(gaps).join(row)
        if rng.random() < 0.3:
            line += rng.choice(gaps) + "# not " + row[1]
        lines.append(line + rng.choice(("", " ", "\t")))
    return "".join(line + rng.choice(("\n", "\r\n")) for line in lines)


def one_hot_report(circuit, tm, t, masks=None, full=None):
    """Check every grid cell decodes to exactly one symbol on every assignment.

    Sweeps all Boolean inputs by default; pass masks/full to restrict the
    domain (e.g. the valid rail assignments of a flattened compile).  Returns
    None when the invariant holds everywhere, else a ONE_HOT counterexample
    naming the offending cell.
    """
    if masks is None:
        n = len(circuit.inputs)
        masks = input_masks(n)
        full = full_mask(n)
    vals = evaluate_masks(circuit, masks, full)
    na = len(cell_alphabet(tm))
    width = full.bit_length().bit_length() - 1  # domain has 2**width assignments
    for r in range(t + 1):
        for c in range(t + 1):
            seen = doubled = 0
            for k in range(na):
                w = vals[f"c_{r}_{c}_{k}"]
                doubled |= seen & w
                seen |= w
            bad = (full ^ seen) | doubled
            if bad:
                i = lowest_set_bit(bad)
                hot = sum((vals[f"c_{r}_{c}_{k}"] >> i) & 1
                          for k in range(na))
                return CounterexampleReport(
                    kind=ONE_HOT,
                    witness=(assignment_of_index(i, width),),
                    expected=(1,),
                    observed=(hot,),
                    detail=f"cell ({r},{c})",
                )
    return None


class OneShotSource:
    """Forward-only bit source that counts reads and forbids a second pass."""

    def __init__(self, bits: str):
        self._iter = iter(bits)
        self.reads = 0
        self.exhausted = False

    def __iter__(self):
        if self.exhausted:
            raise AssertionError("source iterated twice")
        self.exhausted = True
        for ch in self._iter:
            self.reads += 1
            yield ch
