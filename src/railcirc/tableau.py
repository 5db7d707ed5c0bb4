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

Each cell of rows 1..t is built from two kinds of indicator over its
window in the previous row.  ``keep`` is 1 when the cell keeps its symbol:
no head nearby, or a head on a neighbor that does not move onto the cell.
``arrive_q``, one per state q, is 1 when a neighbor's head moves onto the
cell in state q.  Plain symbol g is then ``keep AND holds g``, and head pair
(q, g) is ``arrive_q AND holds g``, each ORed with the head-on-cell cases
whose step writes it.  Every multi-input OR, the accept output included, is
a balanced tree, so a row adds depth logarithmic in the alphabet.

Wire naming contract: the one-hot wire for symbol index k of cell (r, c) is
``c_{r}_{c}_{k}``, with k indexing the cell alphabet.  These names are
stable and safe to decode; all other internal names (the keep and arrive
indicators and the OR-tree nodes among them) are unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .bitsim import wire_values
from .circuit import AND, CONST, INPUT, NOT, OR, Circuit, Gate
from .tm import BLANK, LEFT, RIGHT, TuringMachine

CellSymbol = Union[str, tuple[str, str]]

DEFAULT_GATE_CAP = 10_000_000

# Gate count never exceeds SIZE_COEFF * rows * cols * len(alphabet).  With S
# tape symbols and P = |states| * S head pairs, len(alphabet) = S + P.  A
# cell of rows 1..t built with A arrive guards costs at most
#   S - 1 + 1   plain-symbol OR of the cell above, neighbor guard
#   2P - A      keep and arrive ORs (1 + 2P wires into 1 + A roots)
#   S + S*A     guarded ANDs
#   2P - S*A    one-hot ORs over the P head-on-cell wires, plus a const or
#               buffer per unguarded head-pair target
# = 2S + 4P - A <= 4 * len(alphabet) - 2S.  Row 0 takes len(alphabet) gates
# per cell; the inputs and the accept OR fit in the rest of its share.
# Measured peak over the fixtures and 330 generated machines: 3.3.
SIZE_COEFF = 4


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
    state_no = {q: j for j, q in enumerate(tm.states)}

    # Next-content tables, precomputed per machine.  here[at_wall][k]: the
    # head pairs whose step leaves target k on the head's own cell, away from
    # and at the wall; a left move at the wall keeps the head in place, so
    # the pair survives.
    here = {False: [[] for _ in range(na)], True: [[] for _ in range(na)]}
    # enter_from_left / enter_from_right: (head pair on the left/right
    # neighbor, the state that arrives on the cell, or None if it stays away)
    enter_from_left: list[tuple[int, str | None]] = []
    enter_from_right: list[tuple[int, str | None]] = []
    for (q, s), p in pair_idx.items():
        if q in halting:
            off_wall = at_wall = (q, s)
            q_right = q_left = None
        else:
            q2, s2, d = tm.delta[(q, s)]
            off_wall = s2
            at_wall = (q2, s2) if d == LEFT else s2
            q_right = q2 if d == RIGHT else None
            q_left = q2 if d == LEFT else None
        here[False][idx_of(off_wall)].append(p)
        here[True][idx_of(at_wall)].append(p)
        enter_from_left.append((p, q_right))
        enter_from_right.append((p, q_left))

    gates: list[Gate] = []
    aux = 0

    def wire(r: int, c: int, k: int) -> str:
        return f"c_{r}_{c}_{k}"

    def or_tree(wires: list[str], final_name: str) -> None:
        """Balanced OR of wires into final_name; one wire gets an OR buffer."""
        nonlocal aux
        while len(wires) > 2:
            level = []
            for i in range(0, len(wires) - 1, 2):
                name = f"t{aux}"
                aux += 1
                gates.append(Gate(name, OR, (wires[i], wires[i + 1])))
                level.append(name)
            if len(wires) % 2:
                level.append(wires[-1])
            wires = level
        gates.append(Gate(final_name, OR, (wires[0], wires[-1])))

    def or_wire(wires: list[str], name: str) -> str:
        """Name of a wire carrying the OR of wires, built only if needed."""
        if len(wires) == 1:
            return wires[0]
        or_tree(wires, name)
        return name

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

    # Rows 1..t.  The window cases that can produce a cell's next symbol
    # are factored per cell: keep (no head nearby, or a neighbor's head that
    # does not come in) and arrive_q (a neighbor's head coming in in state
    # q) are ORed once, then ANDed with the symbol the cell holds; a head on
    # the cell itself feeds its step's target directly.
    row_start = len(gates)
    for r in range(1, t + 1):
        pr = r - 1

        # "holds a plain symbol" indicator per cell of the previous row
        symind: list[str] = []
        for c in range(cols):
            name = f"sym_{pr}_{c}"
            or_tree([wire(pr, c, sym_idx[s]) for s in tm.alphabet], name)
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
            keep = [sides[c]]
            arrive: dict[str, list[str]] = {}
            for nb, enters in ((c - 1, enter_from_left), (c + 1, enter_from_right)):
                if 0 <= nb < cols:
                    for p, q_in in enters:
                        hw = wire(pr, nb, p)
                        if q_in is None:
                            keep.append(hw)
                        else:
                            arrive.setdefault(q_in, []).append(hw)
            # term[k]: the (guard, held symbol) AND that produces k, if any
            term: list[tuple[str, str] | None] = [None] * na
            kw = or_wire(keep, f"keep_{pr}_{c}")
            for k in sym_idx.values():
                term[k] = (kw, wire(pr, c, k))
            for q_in, ws in arrive.items():
                aw = or_wire(ws, f"arrive_{pr}_{c}_{state_no[q_in]}")
                for s, k in sym_idx.items():
                    term[pair_idx[(q_in, s)]] = (aw, wire(pr, c, k))

            for k, ps in enumerate(here[c == 0]):
                name = wire(r, c, k)
                ws = [wire(pr, c, p) for p in ps]
                if term[k] is not None:
                    if not ws:
                        gates.append(Gate(name, AND, term[k]))
                        continue
                    an = f"t{aux}"
                    aux += 1
                    gates.append(Gate(an, AND, term[k]))
                    ws.append(an)
                if ws:
                    or_tree(ws, name)
                else:
                    gates.append(Gate(name, CONST, value=0))
        if r == 1:
            # Every row of 1..t has row 1's gates, and the accept tree ORs
            # cols * S wires with cols * S - 1 gates: the exact total is
            # known before row 2 is built.
            total = (len(gates) + (t - 1) * (len(gates) - row_start)
                     + cols * len(tm.alphabet) - 1)
            if total > gate_cap:
                raise GateCapError(f"{total} gates exceed the cap of {gate_cap}")

    accept_wires = [wire(t, c, pair_idx[(tm.accept, s)])
                    for c in range(cols) for s in tm.alphabet]
    or_tree(accept_wires, "accepted")
    return Circuit(tuple(gates), ("accepted",))


def config_cells(tm: TuringMachine, conf, cols: int) -> list[CellSymbol]:
    """Render a configuration as one grid row of cell symbols."""
    cells: list[CellSymbol] = []
    for c in range(cols):
        s = conf.tape[c] if c < len(conf.tape) else BLANK
        cells.append((conf.state, s) if c == conf.head else s)
    return cells


def tableau_trace(circuit: Circuit, tm: TuringMachine, x: str,
                  t: int) -> list[list[CellSymbol]]:
    """Decode the full grid that ``compile_tm(tm, len(x), t)`` computes on x.

    circuit is that compiled circuit, built once by the caller.  Row r
    equals the machine's configuration after r steps (frozen once it
    halts).  Raises if any cell fails to be one-hot, which would mean the
    construction itself is broken.
    """
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
