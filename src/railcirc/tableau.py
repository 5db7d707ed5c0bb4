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

Each cell of rows 1..t is built by one rule from two kinds of indicator
over its window in the previous row.  ``keep`` is 1 when the cell keeps its
symbol: no head nearby (``nh_``, the AND of the neighbors' ``sym_``
indicators), or a head on a neighbor that does not move onto the cell.
``arrive_q``, one per state q, is 1 when a neighbor's head moves onto the
cell in state q.  Plain symbol g is then ``keep AND holds g``, and head
pair (q, g) is ``arrive_q AND holds g``, each ORed with the head-on-cell
cases whose step writes it.  Every multi-input OR, the accept output
included, merges its two shallowest operands first, which gives the least
depth for their arrival times (Golumbic 1976); depths are kept for the
previous row only.

Much of the grid does not depend on the input: row 0 past the input, and
every wire that would need the head where it is on no input.  Before any
gate is built, a tag pass gives each grid wire a tag, const 0, const 1 or
input-dependent, one row at a time from the tags of each cell's window, by
one rule: an OR drops const-0 operands and is const 1 on a const-1 operand,
an AND is const 0 on a const-0 operand and its other operand on a const-1
one, and, as cells are one-hot, a neighbor whose head pairs are all const 0
holds a plain symbol, so its ``sym_`` is const 1.  A window's tags fix how
its cell folds, so that is worked out once per distinct window, and the
pass counts the gates exactly, so the gate cap is checked first.  The
build then follows the tags.  A ``c_r_c_k`` wire that folds to a constant
is a const gate; one that folds to a single other wire is an OR buffer of
it, and its readers read that wire itself, so a row that only carries
wires forward adds no level.  An internal wire that folds, or that no
built gate reads, is not built, and no AND or OR reads a const.

After r steps the head is at column r or less, so a cell the head never
reaches, such as (r, c) with c > r, folds to a copy of row 0: a const where
row 0 has a const, else a buffer whose readers read the row-0 wire.  On
every raw input and every complementary rail assignment this equals
simulating the cell; a rail pair of two equal bits is outside the
flattened circuit's domain.  The logic a row adds then stays the same as t
grows, and the depth grows with the rows in which the head's moves depend
on the input: parity at n=6 has depth 16 at both t=24 and t=64.

The compile builds no Gate and no Circuit: ``compile_netlist`` writes each
gate as its canonical netlist line, the text ``emit_netlist`` would write,
and keeps no set of the names it has written.  ``railcirc compile-tm``
writes that text as it is; ``compile_tm`` and ``compile_tm_flattened``
parse it with ``parse_netlist``, and every subcommand reads a netlist file
through the same scanner, ``read_netlist``, the one place a name defined
twice or an operand read before its definition is refused.

Wire naming contract: the one-hot wire for symbol index k of cell (r, c) is
``c_{r}_{c}_{k}``, with k indexing ``cell_alphabet(tm)``.  These names are
stable and safe to decode; all other internal names (the sym, nh, keep and
arrive guards and the OR-tree nodes among them) are unspecified.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heapreplace
from itertools import groupby, product
from typing import NamedTuple, Union

from .bitsim import wire_values
from .circuit import AND, CONST, OR, Circuit, parse_netlist
from .tm import BLANK, LEFT, RIGHT, TuringMachine, initial_configuration

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
# = 2S + 4P - A <= 4 * len(alphabet) - 2S, and folding only removes gates.
# Row 0 takes len(alphabet) gates per cell; the inputs and the accept OR fit
# in the rest of row 0's share.
# Measured peak over both fixtures at every n <= t + 1 <= 25: 1.24
# (contains_one, n=25, t=24); over 4 x 330 generated machines with 1 to 8
# working states, n <= 6, t <= 16: 1.46.
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
    return parse_netlist(compile_netlist(tm, n, t, False, gate_cap))


def compile_tm_flattened(tm: TuringMachine, n: int, t: int,
                         gate_cap: int = DEFAULT_GATE_CAP) -> Circuit:
    """NOT-free variant over 2n rail inputs x0__0, x0__1, x1__0, ..."""
    return parse_netlist(compile_netlist(tm, n, t, True, gate_cap))


# The tag of a grid wire is 0 or 1 for a const, else _X: its value depends
# on the input.  Inside a cell a folded value is _ZERO, _ONE or a window
# slot >= 0.
_X = 2
_ZERO, _ONE = -1, -2


def _or_leaves(vals: list[int]) -> list[int] | None:
    """The leaves an OR of folded values keeps: None when one of them is
    const 1, which makes the OR const 1, else those that are not const 0
    (none left: const 0; one left: that value itself)."""
    if _ONE in vals:
        return None
    return [v for v in vals if v != _ZERO]


def _and_value(a: int, b: int) -> int | None:
    """An AND of two folded values: const 0 on a const-0 operand, else the
    other operand on a const-1 one; None when both are wires."""
    if a >= 0 and b >= 0:
        return None
    return _ZERO if _ZERO in (a, b) else b if a == _ONE else a


class _Cell(NamedTuple):
    """How a cell of rows 1..t folds, given the tags of its window.

    tags: the tags of its wires.  cost: its gates, the shared sym_ trees
    aside.  sym: whether it reads its left and its right neighbor's sym_
    tree.  ops: (slot, label, op, operand slots) per gate or OR tree it
    builds, in order.  Label k names wire c_r_c_k, a prefix names
    prefix_{r-1}_c, and None an OR-tree node.  A run of consts is one op
    (None, None, CONST, their netlist lines), with @ for the cell's c_r_c_
    prefix.
    """

    tags: bytes
    cost: int
    sym: tuple[bool, bool]
    ops: tuple[tuple, ...]


def compile_netlist(tm: TuringMachine, n: int, t: int, flattened: bool,
                    gate_cap: int) -> str:
    """The netlist text of ``compile_tm`` (``compile_tm_flattened`` when
    flattened), as ``emit_netlist`` writes it; raises GateCapError before
    any line is written if the circuit would exceed gate_cap gates."""
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
    here = ([[] for _ in range(na)], [[] for _ in range(na)])
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

    # A cell of rows 1..t reads a window of three previous-row cells: slots
    # 0..na-1 hold its left neighbor's wires, na..2na-1 its own, 2na..3na-1
    # its right neighbor's.  Past them come the neighbors' sym_ trees, the
    # nh_ guard, one slot per guard, one per wire of the cell and one for
    # the guarded AND of the wire being built.  keep ORs nh_ with the
    # neighbors' head pairs that stay away; arrive_q ORs those that come in
    # in state q.
    own, right = na, 2 * na
    sym_l, sym_r, nh = 3 * na, 3 * na + 1, 3 * na + 2
    g0 = nh + 1
    keep = [nh]
    arrive: dict[str, list[int]] = {}
    for base, enters in ((0, enter_from_left), (right, enter_from_right)):
        for p, q_in in enters:
            if q_in is None:
                keep.append(base + p)
            else:
                arrive.setdefault(q_in, []).append(base + p)
    guards = [("keep", keep)]
    # guard_of[k]: the guard ANDed with the held symbol to produce k
    guard_of: list[int | None] = [0] * n_sym + [None] * (na - n_sym)
    for q_in, srcs in arrive.items():
        for s in tm.alphabet:
            guard_of[index[(q_in, s)]] = len(guards)
        guards.append((f"arrive{state_no[q_in]}", srcs))
    t0 = g0 + len(guards)
    tmp = t0 + na

    @cache
    def fold(win: bytes) -> _Cell:
        """Fold the cell by the rule of _or_leaves and _and_value, and by
        one-hotness: a neighbor whose head pairs are all const 0 holds a
        plain symbol.  What folds to a single wire is that wire; an
        internal wire that no built gate reads is not built."""
        wall = not any(win[:na])
        val = [(_ZERO, _ONE, slot)[tag] for slot, tag in enumerate(win)]
        val += [_ZERO] * (3 + len(guards))
        trees: dict[int, list[int]] = {}

        def or_fold(slot: int, srcs) -> None:
            leaves = _or_leaves([val[s] for s in srcs])
            if leaves is None:
                val[slot] = _ONE
            elif len(leaves) > 1:
                val[slot] = slot
                trees[slot] = leaves
            else:
                val[slot] = leaves[0] if leaves else _ZERO

        for slot, base in ((sym_l, 0), (sym_r, right)):
            if any(win[base + n_sym:base + na]):
                or_fold(slot, range(base, base + n_sym))
            else:
                val[slot] = _ONE
        a, b = val[sym_l], val[sym_r]
        v = _and_value(a, b)
        val[nh] = nh if v is None else v
        for j, (_, srcs) in enumerate(guards):
            or_fold(g0 + j, srcs)

        tags = bytearray(na)
        ops = []
        for k in range(na):
            leaves = [val[own + p] for p in here[wall][k]]
            pair = None
            if guard_of[k] is not None:
                g, h = val[g0 + guard_of[k]], val[own + held[k]]
                v = _and_value(g, h)
                if v is None:
                    pair = (g, h)
                else:
                    leaves.append(v)
            leaves = _or_leaves(leaves)
            if leaves is None or not leaves and pair is None:
                tags[k] = int(leaves is None)
                ops.append((None, k, CONST, tags[k]))
                continue
            tags[k] = _X
            if not leaves:
                ops.append((t0 + k, k, AND, pair))
                continue
            if pair is not None:
                ops.append((tmp, None, AND, pair))
                leaves.append(tmp)
            ops.append((t0 + k, k, OR, leaves))
        used = {s for _, _, op, args in ops if op != CONST for s in args}
        built = [(g0 + j, prefix, OR, trees[g0 + j])
                 for j, (prefix, _) in enumerate(guards) if g0 + j in used]
        for *_, leaves in built:
            used.update(leaves)
        if nh in used:
            built.insert(0, (nh, "nh", AND, (a, b)))
            used.update((a, b))
        ops = built + ops
        # an OR of one leaf is a buffer
        cost = sum(max(len(args) - 1, 1) if op == OR else 1
                   for _, _, op, args in ops)
        blocks = []
        for const, run in groupby(ops, lambda op: op[2] == CONST):
            if const:
                run = [(None, None, CONST, "\n".join(f"const @{k} {v}"
                                                     for _, k, _, v in run))]
            blocks += run
        return _Cell(bytes(tags), cost, (sym_l in used, sym_r in used),
                     tuple(blocks))

    # Beyond either end of the grid: no head, so the grid edges count as
    # symbols and send no head in.  A row is padded with them once, and cell
    # c's window is then the slice of padded cells c..c+2.  The edge's tags
    # are all const 0 and a grid cell's never are, as cells are one-hot, so
    # a window whose left cell is all const 0 is one at the wall.
    edge = bytes(na)

    # Input layer.  Standard mode spends the circuit's only NOT gates on the
    # complements of the inputs; flattened mode takes them as inputs instead.
    if flattened:
        zero_rail = [f"x{i}__0" for i in range(n)]
        one_rail = [f"x{i}__1" for i in range(n)]
        inputs = [f"input {x}" for pair in zip(zero_rail, one_rail) for x in pair]
    else:
        zero_rail = [f"x{i}_not" for i in range(n)]
        one_rail = [f"x{i}" for i in range(n)]
        inputs = ([f"input {x}" for x in one_rail]
                  + [f"not {x_not} {x}" for x_not, x in zip(zero_rail, one_rail)])

    # Row 0: the input bits, then blanks, with the head in the start state
    # on cell 0, whose entries are (start, symbol).  The entries for 0 and 1
    # buffer the rails of the cell's input bit (row0 holds the rail name);
    # every other entry is a const, 1 only for the blank beyond the input.
    row0: list[str | int] = []
    for c in range(cols):
        zero, one, blank = ((tm.start, s) if c == 0 else s
                            for s in ("0", "1", BLANK))
        rails = {zero: zero_rail[c], one: one_rail[c]} if c < n else {}
        row0 += [rails.get(e, int(c >= n and e == blank)) for e in cells]

    # Tag pass: the exact gate count before any gate is built, keeping the
    # tags of the previous row only.  Every cell of rows 1..t folds by its
    # window.  The count: one gate per input, input NOT and row-0 wire, each
    # cell's fold, the sym_ trees the cells read, and the accept tree.
    last = bytes(_X if type(v) is str else v for v in row0)
    folds = []  # per row 1..t: its cells and the sym_ columns they read
    total = 2 * n + cols * na
    for _ in range(t):
        padded = edge + last + edge
        row = [fold(padded[c * na:(c + 3) * na]) for c in range(cols)]
        read = sorted({c + d for c, cell in enumerate(row)
                       for d, reads in zip((-1, 1), cell.sym) if reads})
        total += (sum(cell.cost for cell in row)
                  + sum(last[c * na:c * na + n_sym].count(_X) - 1 for c in read))
        last = b"".join([cell.tags for cell in row])
        folds.append((row, read))
    accept = _or_leaves([(_ZERO, _ONE, s)[last[s]] for s in
                         (c * na + index[(tm.accept, s)] for c in range(cols)
                          for s in tm.alphabet)])
    total += max(len(accept or ()) - 1, 1)
    if total > gate_cap:
        raise GateCapError(f"{total} gates exceed the cap of {gate_cap}")

    # Each gate is written as its canonical netlist line, unchecked: the
    # names are distinct by construction, and read_netlist, the one scanner,
    # refuses a name defined twice or an operand read before its definition
    # wherever the text is read.
    lines = inputs
    aux = 0

    def or_tree(leaves: list[tuple[int, str]], name: str) -> tuple[int, str]:
        """OR of (depth, wire) leaves into name, merging the two shallowest
        first; one leaf gets an OR buffer.  Returns the (depth, wire) that
        readers of name read: the leaf itself behind a buffer."""
        nonlocal aux
        if len(leaves) == 1:
            a = leaves[0][1]
            lines.append(f"or {name} {a} {a}")
            return leaves[0]
        if len(leaves) > 2:
            heapify(leaves)
            while len(leaves) > 2:
                a = heappop(leaves)[1]
                d, b = leaves[0]
                node = f"t{aux}"
                aux += 1
                lines.append(f"or {node} {a} {b}")
                heapreplace(leaves, (d + 1, node))
        (d, a), (e, b) = leaves
        lines.append(f"or {name} {a} {b}")
        return max(d, e) + 1, name

    # wires[c * na + k]: the (depth, name) a reader of wire k of
    # previous-row cell c reads, None for a const.  A wire that folds to one
    # other wire is a buffer of it for the naming contract, and its readers
    # read the other wire, so a cell the head never reaches reads row 0.
    # Depths count from row 0, so that the raw and the flattened compile
    # shape their trees alike.
    wires: list = []
    for i, v in enumerate(row0):
        name = f"c_0_{i // na}_{i % na}"
        lines.append(f"or {name} {v} {v}" if type(v) is str
                     else f"const {name} {v}")
        wires.append((0, name) if type(v) is str else None)

    beyond = [None] * na  # the wires of a cell beyond the grid: never read
    unset = [None] * (tmp + 1 - nh)  # slots nh..tmp before the cell is built
    for r, (row, read) in enumerate(folds, 1):
        pr = r - 1
        sym = {c: or_tree([v for v in wires[c * na:c * na + n_sym] if v],
                          f"sym_{pr}_{c}")
               for c in read}

        padded = beyond + wires + beyond
        wires = []
        for c, cell in enumerate(row):
            w = padded[c * na:(c + 3) * na]
            w += sym.get(c - 1), sym.get(c + 1)
            w += unset
            cell_prefix = f"c_{r}_{c}_"
            for slot, label, op, args in cell.ops:
                if op == CONST:  # a run of lines "const NAME VALUE"
                    lines.append(args.replace("@", cell_prefix))
                    continue
                if type(label) is int:
                    name = f"{cell_prefix}{label}"
                elif label:
                    name = f"{label}_{pr}_{c}"
                else:
                    name = f"t{aux}"
                    aux += 1
                if op == AND:
                    (da, a), (db, b) = w[args[0]], w[args[1]]
                    lines.append(f"and {name} {a} {b}")
                    w[slot] = (max(da, db) + 1, name)
                else:
                    w[slot] = or_tree([w[s] for s in args], name)
            wires += w[t0:tmp]

    if accept:
        or_tree([wires[s] for s in accept], "accepted")
    else:
        lines.append(f"const accepted {int(accept is None)}")
    lines.append("output accepted\n")
    return "\n".join(lines)


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
    halts).  A symbol of x that is not a bit raises ValueError, as in
    ``run``, and so does a t or a machine the circuit is not compiled for.
    Raises RuntimeError if any cell fails to be one-hot, which would mean
    the construction itself is broken.
    """
    initial_configuration(tm, x)
    if f"c_{t}_{t}_0" not in circuit or f"c_{t + 1}_0_0" in circuit:
        raise ValueError(f"circuit is not compiled for a step budget of {t}")
    cells = cell_alphabet(tm)
    if f"c_0_0_{len(cells) - 1}" not in circuit or f"c_0_0_{len(cells)}" in circuit:
        raise ValueError(f"circuit is not compiled for {len(cells)} cell symbols")
    vals = wire_values(circuit, [int(ch) for ch in x])
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
