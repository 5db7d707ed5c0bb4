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

After r steps the head is at column r or less.  So a cell (r, c) with
c > r, outside the light cone, still holds its row-0 symbol, and each of its
wires is built as a copy of row 0: a const where row 0 has a const, else one
OR buffer of the row-0 wire (never of row r-1, which would add a level per
row).  On every raw input and every complementary rail assignment this
equals simulating the cell; a rail pair of two equal bits is outside the
flattened circuit's domain.

Each cell of the cone, c <= r, is built from two kinds of indicator over
its window in the previous row.  ``keep`` is 1 when the cell keeps its
symbol: no head nearby, or a head on a neighbor that does not move onto the
cell.  ``arrive_q``, one per state q, is 1 when a neighbor's head moves onto
the cell in state q.  Plain symbol g is then ``keep AND holds g``, and head
pair (q, g) is ``arrive_q AND holds g``, each ORed with the head-on-cell
cases whose step writes it.  Only what the cone reads is built: the
no-head-nearby guards (``sym_`` per previous-row column up to r + 1,
``nh_`` per column up to r), and the head pairs of previous-row cells up to
column r - 1; the others are const 0 on every assignment.  Every
multi-input OR, the accept output included, merges its two shallowest
operands first, which gives the least depth for their arrival times
(Golumbic 1976); depths are kept for the previous row only.  A row adds
about six levels.

Wire naming contract: the one-hot wire for symbol index k of cell (r, c) is
``c_{r}_{c}_{k}``, with k indexing ``cell_alphabet(tm)``.  These names are
stable and safe to decode; all other internal names (the sym, nh, keep and
arrive guards and the OR-tree nodes among them) are unspecified.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from itertools import product
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
# = 2S + 4P - A <= 4 * len(alphabet) - 2S.  Row 0 and the copies outside
# the light cone take len(alphabet) gates per cell; the inputs and the
# accept OR fit in the rest of row 0's share.  Measured peak over the
# fixtures and 330 generated machines with up to 8 working states: 2.12
# (parity, n=6, t=24).
SIZE_COEFF = 4


class GateCapError(ValueError):
    """Compilation would exceed the configured gate budget."""


def cell_alphabet(tm: TuringMachine) -> tuple[CellSymbol, ...]:
    """Cell symbols in wire-index order: the tape symbols as declared, then
    the (state, symbol) head pairs by state, then symbol declaration."""
    return tm.alphabet + tuple(product(tm.states, tm.alphabet))


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
    cells = cell_alphabet(tm)
    index = {entry: k for k, entry in enumerate(cells)}
    cols = t + 1
    na = len(cells)
    if (t + 1) * cols * na > gate_cap:
        raise GateCapError(
            f"grid alone needs {(t + 1) * cols * na} gates, cap is {gate_cap}")

    n_sym = len(tm.alphabet)  # tape symbols take cell indices 0..n_sym-1
    halting = (tm.accept, tm.reject)
    state_no = {q: j for j, q in enumerate(tm.states)}
    # held[k]: the tape symbol a cell must hold for a guard to produce k
    held = [index[e if type(e) is str else e[1]] for e in cells]

    # Next-content tables, precomputed per machine.  here[at_wall][k]: the
    # head pairs whose step leaves target k on the head's own cell, away from
    # and at the wall; a left move at the wall keeps the head in place, so
    # the pair survives.
    here = {False: [[] for _ in range(na)], True: [[] for _ in range(na)]}
    # enter_from_left / enter_from_right: (head pair on the left/right
    # neighbor, the state that arrives on the cell, or None if it stays away)
    enter_from_left: list[tuple[int, str | None]] = []
    enter_from_right: list[tuple[int, str | None]] = []
    for p, (q, s) in enumerate(cells[n_sym:], n_sym):
        if q in halting:
            off_wall = at_wall = (q, s)
            q_right = q_left = None
        else:
            q2, s2, d = tm.delta[(q, s)]
            off_wall = s2
            at_wall = (q2, s2) if d == LEFT else s2
            q_right = q2 if d == RIGHT else None
            q_left = q2 if d == LEFT else None
        here[False][index[off_wall]].append(p)
        here[True][index[at_wall]].append(p)
        enter_from_left.append((p, q_right))
        enter_from_right.append((p, q_left))

    def plan(wall: bool, right: bool, own: bool):
        """Guards, targets and gate count of a cell of rows 1..t.

        The cell reads the head pairs of its left neighbor unless it is the
        wall cell, and those of its right neighbor and of itself only where
        they lie inside the previous row's cone; outside it they are const 0.
        guards: (name prefix, [(column offset, head pair)]), keep first, then
        one arrive guard per arriving state.  targets[k]: (the head pairs
        on the cell whose step writes k, index of the guard ANDed with the
        held symbol, or None).
        """
        keep: list[tuple[int, int]] = []
        arrive: dict[str, list[tuple[int, int]]] = {}
        for dc, live, enters in ((-1, not wall, enter_from_left),
                                 (1, right, enter_from_right)):
            if live:
                for p, q_in in enters:
                    if q_in is None:
                        keep.append((dc, p))
                    else:
                        arrive.setdefault(q_in, []).append((dc, p))
        guards = [("keep", keep)]
        guard_of: list[int | None] = [0] * n_sym + [None] * (na - n_sym)
        for q_in, srcs in arrive.items():
            for s in tm.alphabet:
                guard_of[index[(q_in, s)]] = len(guards)
            guards.append((f"arrive{state_no[q_in]}", srcs))
        targets = [(here[wall][k] if own else [], guard_of[k]) for k in range(na)]
        # keep ORs in the neighbor guard; a target with a guard is an AND
        # plus one OR per head pair, one without is an OR tree, a buffer or
        # a const
        size = (len(keep) + sum(len(srcs) - 1 for _, srcs in guards[1:])
                + sum(1 + len(ps) if j is not None else max(len(ps) - 1, 1)
                      for ps, j in targets))
        return guards, targets, size

    # Cell (r, c) of rows 1..t is built when c <= r, and is then of kind
    # (c == 0, c < r - 1, c < r): the wall cell, an interior cell, or one of
    # the two cone-boundary cells c = r - 1 and c = r.
    plans = {kind: plan(*kind) for kind in product((False, True), repeat=3)}
    size = {kind: p[2] for kind, p in plans.items()}

    # Exact gate count, known before anything is built: the input layer,
    # row 0, then per row the sym_ indicators of previous-row columns
    # <= r + 1, the nh_ guards of columns 1 <= c <= min(r, t - 1), the cone
    # cells by kind and a const or buffer per wire of the cone copies; last
    # the accept tree over cols * S wires.
    total = 2 * n + cols * na + cols * n_sym - 1
    for r in range(1, t + 1):
        total += (min(r + 2, cols) * max(n_sym - 1, 1) + min(r, t - 1)
                  + size[(True, r > 1, True)]
                  + max(r - 2, 0) * size[(False, True, True)]
                  + (r > 1) * size[(False, False, True)]
                  + size[(False, False, False)]
                  + (t - r) * na)
    if total > gate_cap:
        raise GateCapError(f"{total} gates exceed the cap of {gate_cap}")

    gates: list[Gate] = []
    aux = 0

    def or_tree(leaves: list[tuple[int, str]], name: str) -> int:
        """OR of (depth, wire) leaves into name, merging the two shallowest
        first; one leaf gets an OR buffer.  Returns the depth of name."""
        nonlocal aux
        if len(leaves) > 2:
            heapify(leaves)
            while len(leaves) > 2:
                a = heappop(leaves)[1]
                d, b = leaves[0]
                node = f"t{aux}"
                aux += 1
                gates.append(Gate(node, OR, (a, b)))
                heapreplace(leaves, (d + 1, node))
        (d, a), (e, b) = leaves[0], leaves[-1]
        gates.append(Gate(name, OR, (a, b)))
        return max(d, e) + 1

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

    # Row 0: the input bits, then blanks, with the head in the start state
    # on cell 0, whose entries are (start, symbol).  The entries for 0 and 1
    # buffer the rails of the cell's input bit; every other entry is a const,
    # 1 only for the blank beyond the input.
    names = [[f"c_0_{c}_{k}" for k in range(na)] for c in range(cols)]
    row0 = len(gates)
    for c in range(cols):
        zero, one, blank = ((tm.start, s) if c == 0 else s
                            for s in ("0", "1", BLANK))
        rails = {zero: zero_rail[c], one: one_rail[c]} if c < n else {}
        for name, entry in zip(names[c], cells):
            if entry in rails:
                gates.append(Gate(name, OR, (rails[entry], rails[entry])))
            else:
                gates.append(Gate(name, CONST, value=int(c >= n and entry == blank)))

    # Rows 1..t.  After r steps the head is at column r or less, so cell
    # (r, c) with c > r still holds its row-0 symbol and is built as a copy
    # of row 0.  The cells of the cone, c <= r, are factored: keep (no head
    # nearby, or a neighbor's head that does not come in) and arrive_q (a
    # neighbor's head coming in in state q) are ORed once, then ANDed with
    # the symbol the cell holds; a head on the cell itself feeds its step's
    # target directly.  names/deps hold the previous row's wires and their
    # depths, counted from row 0 so that the raw and the flattened compile
    # shape their trees alike; the copies count as row 0.
    row0_deps = [0] * na
    deps = [row0_deps] * cols
    for r in range(1, t + 1):
        pr = r - 1
        # "holds a plain symbol" indicators of the previous row, as far as
        # the cone's cells read them
        sym = []
        for c in range(min(r + 2, cols)):
            name = f"sym_{pr}_{c}"
            nm, dp = names[c], deps[c]
            sym.append((or_tree([(dp[k], nm[k]) for k in range(n_sym)], name), name))

        row_names, row_deps = [], []
        for c in range(r + 1):
            # both-neighbors-are-symbols guard; grid edges count as symbols
            if c == 0:
                side = sym[1]
            elif c == t:
                side = sym[c - 1]
            else:
                (dl, left), (dr, right) = sym[c - 1], sym[c + 1]
                side = (max(dl, dr) + 1, f"nh_{pr}_{c}")
                gates.append(Gate(side[1], AND, (left, right)))

            guards, targets, _ = plans[(c == 0, c < r - 1, c < r)]
            guard_wires = []
            for j, (prefix, srcs) in enumerate(guards):
                leaves = [(deps[c + dc][p], names[c + dc][p]) for dc, p in srcs]
                if not j:
                    leaves.append(side)
                if len(leaves) == 1:
                    guard_wires.append(leaves[0])
                else:
                    name = f"{prefix}_{pr}_{c}"
                    guard_wires.append((or_tree(leaves, name), name))

            nm, dp = names[c], deps[c]
            cell_names = [f"c_{r}_{c}_{k}" for k in range(na)]
            cell_deps = []
            for k, (ps, j) in enumerate(targets):
                name = cell_names[k]
                leaves = [(dp[p], nm[p]) for p in ps]
                if j is not None:
                    gd, g = guard_wires[j]
                    h = held[k]
                    d = max(gd, dp[h]) + 1
                    if not leaves:
                        gates.append(Gate(name, AND, (g, nm[h])))
                        cell_deps.append(d)
                        continue
                    an = f"t{aux}"
                    aux += 1
                    gates.append(Gate(an, AND, (g, nm[h])))
                    leaves.append((d, an))
                if leaves:
                    cell_deps.append(or_tree(leaves, name))
                else:
                    gates.append(Gate(name, CONST, value=0))
                    cell_deps.append(0)
            row_names.append(cell_names)
            row_deps.append(cell_deps)

        for c in range(r + 1, cols):
            cell_names = [f"c_{r}_{c}_{k}" for k in range(na)]
            for name, g in zip(cell_names, gates[row0 + c * na:row0 + (c + 1) * na]):
                gates.append(Gate(name, OR, (g.name, g.name)) if g.op == OR
                             else Gate(name, CONST, value=g.value))
            row_names.append(cell_names)
            row_deps.append(row0_deps)
        names, deps = row_names, row_deps

    accept = [index[(tm.accept, s)] for s in tm.alphabet]
    or_tree([(deps[c][k], names[c][k]) for c in range(cols) for k in accept],
            "accepted")
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
    cells = cell_alphabet(tm)
    grid: list[list[CellSymbol]] = []
    for r in range(t + 1):
        row: list[CellSymbol] = []
        for c in range(t + 1):
            hot = [entry for k, entry in enumerate(cells)
                   if vals[f"c_{r}_{c}_{k}"]]
            if len(hot) != 1:
                raise RuntimeError(
                    f"cell ({r}, {c}) is not one-hot: {len(hot)} wires set")
            row.append(hot[0])
        grid.append(row)
    return grid
