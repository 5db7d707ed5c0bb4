"""Compile a Turing machine plus a step budget into a Boolean circuit.

The circuit simulates the machine on a (t+1) x (t+1) grid: row r is the
tape after r steps, column c is a tape cell.  Each cell holds a one-hot
vector over the cell alphabet, which is the tape alphabet followed by one
(state, symbol) pair per state marking the head.  Row 0 encodes the initial
configuration from the circuit inputs; the content of cell (r+1, c) depends
only on cells (r, c-1), (r, c), (r, c+1), with positions outside the grid
acting as a wall that never holds the head.  Accept and reject freeze the
configuration, so the single output, an OR over the accept indicators of the
last row, is 1 exactly when the machine accepts within t steps; running out
of budget reads as 0.

The only NOT gates are the n input complements feeding row 0, one per input
bit.  The flattened variant replaces each input with a rail pair
(``xi__0``, ``xi__1``) and uses the zero-rail wherever the standard variant
uses the complement; everything past the input layer is identical, so the
flattened circuit is NOT-free.

Wire naming contract: the one-hot wire for symbol index k of cell (r, c) is
``c_{r}_{c}_{k}``, with k indexing the cell alphabet.  These names are
stable and safe to decode; all other internal names are unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .bitsim import wire_values
from .circuit import AND, CONST, INPUT, NOT, OR, Circuit, Gate
from .tm import BLANK, LEFT, RIGHT, TuringMachine

CellSymbol = Union[str, tuple[str, str]]

DEFAULT_GATE_CAP = 10_000_000

# Gate count never exceeds SIZE_COEFF * rows * cols * len(alphabet)**3.
SIZE_COEFF = 2


class GateCapError(ValueError):
    """Compilation would exceed the configured gate budget."""


@dataclass(frozen=True)
class CellAlphabet:
    """Cell symbols in wire-index order: tape symbols, then head pairs.

    Tape symbols keep their declaration order; (state, symbol) pairs are
    ordered by state declaration, then symbol declaration.
    """

    entries: tuple[CellSymbol, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {entry: k for k, entry in enumerate(self.entries)})

    @classmethod
    def from_machine(cls, tm: TuringMachine) -> "CellAlphabet":
        entries: list[CellSymbol] = list(tm.alphabet)
        for q in tm.states:
            for s in tm.alphabet:
                entries.append((q, s))
        return cls(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def index_of(self, entry: CellSymbol) -> int:
        return self._index[entry]


def _check_dims(n: int, t: int) -> None:
    if t < 1:
        raise ValueError("step budget must be at least 1")
    if n < 0:
        raise ValueError("input length must be non-negative")
    if n > t + 1:
        raise ValueError(f"input of {n} bits does not fit a {t + 1}-column grid")


def compile_tm(tm: TuringMachine, n: int, t: int,
               gate_cap: int = DEFAULT_GATE_CAP) -> Circuit:
    """Circuit over n raw input bits deciding acceptance within t steps."""
    return _build(tm, n, t, flattened=False, gate_cap=gate_cap)


def compile_tm_flattened(tm: TuringMachine, n: int, t: int,
                         gate_cap: int = DEFAULT_GATE_CAP) -> Circuit:
    """NOT-free variant over 2n rail inputs x0__0, x0__1, x1__0, ..."""
    return _build(tm, n, t, flattened=True, gate_cap=gate_cap)


def _build(tm: TuringMachine, n: int, t: int, flattened: bool,
           gate_cap: int) -> Circuit:
    _check_dims(n, t)
    ab = CellAlphabet.from_machine(tm)
    cols = t + 1
    na = len(ab)
    if (t + 1) * cols * na > gate_cap:
        raise GateCapError(
            f"grid alone needs {(t + 1) * cols * na} gates, cap is {gate_cap}")

    sym_idx = {s: ab.index_of(s) for s in tm.alphabet}
    pair_idx = {(q, s): ab.index_of((q, s)) for q in tm.states for s in tm.alphabet}
    idx_of = ab.index_of
    halting = (tm.accept, tm.reject)

    # Next-content tables, precomputed per machine.  here_target: content of
    # the head's own cell after one step, keyed by (state, symbol, at wall).
    # A left move at the wall keeps the head in place, so the pair survives.
    here_target: dict[tuple[str, str, bool], CellSymbol] = {}
    # enter_from_left / enter_from_right: the state that arrives on a cell
    # when the head sits on its left/right neighbor, or None if it stays away.
    enter_from_left: dict[tuple[str, str], str | None] = {}
    enter_from_right: dict[tuple[str, str], str | None] = {}
    for q in tm.states:
        for s in tm.alphabet:
            if q in halting:
                here_target[(q, s, False)] = (q, s)
                here_target[(q, s, True)] = (q, s)
                enter_from_left[(q, s)] = None
                enter_from_right[(q, s)] = None
            else:
                q2, s2, d = tm.delta[(q, s)]
                here_target[(q, s, False)] = s2
                here_target[(q, s, True)] = (q2, s2) if d == LEFT else s2
                enter_from_left[(q, s)] = q2 if d == RIGHT else None
                enter_from_right[(q, s)] = q2 if d == LEFT else None

    gates: list[Gate] = []
    aux = 0

    def wire(r: int, c: int, k: int) -> str:
        return f"c_{r}_{c}_{k}"

    def or_chain(wires: list[str], final_name: str) -> None:
        nonlocal aux
        if len(wires) == 1:
            gates.append(Gate(final_name, OR, (wires[0], wires[0])))
            return
        acc = wires[0]
        for w in wires[1:-1]:
            name = f"t{aux}"
            aux += 1
            gates.append(Gate(name, OR, (acc, w)))
            acc = name
        gates.append(Gate(final_name, OR, (acc, wires[-1])))

    # Input layer.  Standard mode spends the circuit's only NOT gates here;
    # flattened mode takes the complements as inputs instead.
    zero_rail: list[str] = []
    one_rail: list[str] = []
    if flattened:
        for i in range(n):
            gates.append(Gate(f"x{i}__0", INPUT))
            gates.append(Gate(f"x{i}__1", INPUT))
            zero_rail.append(f"x{i}__0")
            one_rail.append(f"x{i}__1")
    else:
        for i in range(n):
            gates.append(Gate(f"x{i}", INPUT))
        for i in range(n):
            gates.append(Gate(f"x{i}_not", NOT, (f"x{i}",)))
            zero_rail.append(f"x{i}_not")
            one_rail.append(f"x{i}")

    # Row 0: head merged into cell 0, input bits, then blanks.
    for c in range(cols):
        for k, entry in enumerate(ab.entries):
            name = wire(0, c, k)
            if c == 0 and n > 0:
                if entry == (tm.start, "0"):
                    gates.append(Gate(name, OR, (zero_rail[0], zero_rail[0])))
                elif entry == (tm.start, "1"):
                    gates.append(Gate(name, OR, (one_rail[0], one_rail[0])))
                else:
                    gates.append(Gate(name, CONST, value=0))
            elif c == 0:
                gates.append(Gate(name, CONST,
                                  value=1 if entry == (tm.start, BLANK) else 0))
            elif c < n:
                if entry == "0":
                    gates.append(Gate(name, OR, (zero_rail[c], zero_rail[c])))
                elif entry == "1":
                    gates.append(Gate(name, OR, (one_rail[c], one_rail[c])))
                else:
                    gates.append(Gate(name, CONST, value=0))
            else:
                gates.append(Gate(name, CONST, value=1 if entry == BLANK else 0))

    # Rows 1..t.  Each target one-hot wire collects the window cases that
    # can produce its symbol: no head nearby (cell keeps its symbol, guarded
    # by both neighbors holding plain symbols), head on the cell, or head on
    # a neighbor about to move in or away.
    for r in range(1, t + 1):
        pr = r - 1

        # "holds a plain symbol" indicator per cell of the previous row
        symind: list[str] = []
        for c in range(cols):
            name = f"sym_{pr}_{c}"
            or_chain([wire(pr, c, sym_idx[s]) for s in tm.alphabet], name)
            symind.append(name)

        # both-neighbors-are-symbols guard; grid edges count as symbols
        sides: list[str] = []
        for c in range(cols):
            left = symind[c - 1] if c > 0 else None
            right = symind[c + 1] if c < cols - 1 else None
            if left and right:
                name = f"nh_{pr}_{c}"
                gates.append(Gate(name, AND, (left, right)))
                sides.append(name)
            else:
                sides.append(left or right)

        for c in range(cols):
            terms: list[list[tuple]] = [[] for _ in range(na)]
            for s in tm.alphabet:
                terms[sym_idx[s]].append(("&", sides[c], wire(pr, c, sym_idx[s])))
            for q in tm.states:
                for s in tm.alphabet:
                    tgt = here_target[(q, s, c == 0)]
                    terms[idx_of(tgt)].append(("w", wire(pr, c, pair_idx[(q, s)])))
            if c > 0:
                for (q, s), q_in in enter_from_left.items():
                    hw = wire(pr, c - 1, pair_idx[(q, s)])
                    for g in tm.alphabet:
                        tgt = (q_in, g) if q_in else g
                        terms[idx_of(tgt)].append(("&", hw, wire(pr, c, sym_idx[g])))
            if c < cols - 1:
                for (q, s), q_in in enter_from_right.items():
                    hw = wire(pr, c + 1, pair_idx[(q, s)])
                    for g in tm.alphabet:
                        tgt = (q_in, g) if q_in else g
                        terms[idx_of(tgt)].append(("&", hw, wire(pr, c, sym_idx[g])))

            for k in range(na):
                name = wire(r, c, k)
                tl = terms[k]
                if not tl:
                    gates.append(Gate(name, CONST, value=0))
                elif len(tl) == 1:
                    term = tl[0]
                    if term[0] == "&":
                        gates.append(Gate(name, AND, (term[1], term[2])))
                    else:
                        gates.append(Gate(name, OR, (term[1], term[1])))
                else:
                    ws = []
                    for term in tl:
                        if term[0] == "&":
                            an = f"t{aux}"
                            aux += 1
                            gates.append(Gate(an, AND, (term[1], term[2])))
                            ws.append(an)
                        else:
                            ws.append(term[1])
                    or_chain(ws, name)
        if len(gates) > gate_cap:
            raise GateCapError(f"{len(gates)} gates exceed the cap of {gate_cap}")

    accept_wires = [wire(t, c, pair_idx[(tm.accept, s)])
                    for c in range(cols) for s in tm.alphabet]
    or_chain(accept_wires, "accepted")
    if len(gates) > gate_cap:
        raise GateCapError(f"{len(gates)} gates exceed the cap of {gate_cap}")
    return Circuit(tuple(gates), ("accepted",))


def config_cells(tm: TuringMachine, conf, cols: int) -> list[CellSymbol]:
    """Render a configuration as one grid row of cell symbols."""
    cells: list[CellSymbol] = []
    for c in range(cols):
        s = conf.tape[c] if c < len(conf.tape) else BLANK
        cells.append((conf.state, s) if c == conf.head else s)
    return cells


def tableau_trace(tm: TuringMachine, x: str, t: int,
                  gate_cap: int = DEFAULT_GATE_CAP) -> list[list[CellSymbol]]:
    """Decode the full grid the compiled circuit computes on input x.

    Row r equals the machine's configuration after r steps (frozen once it
    halts).  Raises if any cell fails to be one-hot, which would mean the
    construction itself is broken.
    """
    n = len(x)
    circuit = compile_tm(tm, n, t, gate_cap=gate_cap)
    vals = wire_values(circuit, [int(ch) for ch in x])
    ab = CellAlphabet.from_machine(tm)
    grid: list[list[CellSymbol]] = []
    for r in range(t + 1):
        row: list[CellSymbol] = []
        for c in range(t + 1):
            hot = [entry for k, entry in enumerate(ab.entries)
                   if vals[f"c_{r}_{c}_{k}"]]
            if len(hot) != 1:
                raise RuntimeError(
                    f"cell ({r}, {c}) is not one-hot: {len(hot)} wires set")
            row.append(hot[0])
        grid.append(row)
    return grid
