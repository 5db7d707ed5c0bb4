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
previous row only.  ``_rule`` lays this cell out once per machine as one
table of ops, away from the wall and at it: ``nh_``, the guards, then per
wire its guarded AND and the OR of its head-on-cell pairs and that AND.

Much of the grid does not depend on the input: row 0 past the input, and
every wire that would need the head where it is on no input.  Before any
gate is built, a tag pass gives each grid wire a tag, const 0, const 1 or
input-dependent, one row at a time from the tags of each cell's window, by
one rule: an OR drops const-0 operands and is const 1 on a const-1 operand,
an AND is const 0 on a const-0 operand and its other operand on a const-1
one, and, as cells are one-hot, a neighbor whose head pairs are all const 0
holds a plain symbol, so its ``sym_`` is const 1.  A window's tags fix how
its cell folds, so ``fold`` works that out once per distinct window: one
forward pass folds the table's ops by this rule, and one backward walk
drops every internal op that no kept op reads.  The pass counts the gates
exactly, so the gate cap is checked first.  The build then follows the
tags.  A ``c_r_c_k`` wire that folds to a constant is a const gate; one
that folds to a single other wire is an OR buffer of it, and its readers
read that wire itself, so a row that only carries wires forward adds no
level.  Row 0 is no exception: its buffers of the
input rails are written, and their readers read the rails.  An internal
wire that folds, or that no built gate reads, is not built, and no AND or
OR reads a const or a buffer.

After r steps the head is at column r or less, so a cell the head never
reaches, such as (r, c) with c > r, folds to a copy of row 0: a const where
row 0 has a const, else a buffer of the rail that row 0 buffers.  On
every raw input and every complementary rail assignment this equals
simulating the cell; a rail pair of two equal bits is outside the
flattened circuit's domain.  The logic a row adds then stays the same as t
grows, and the depth grows with the rows in which the head's moves depend
on the input: parity at n=6 has depth 15 (14 flattened) at both t=24 and
t=64.

The compile builds no Gate and no Circuit.  ``compile_netlist`` runs three
passes: ``_rule`` reads the machine into the cell's table, ``_tag_pass``
folds and counts rows 1..t, and ``_write`` writes each gate as its
canonical netlist line, the text ``emit_netlist`` would write, keeping no
set of the names it has written.  No gate reads a const, so each row's
const lines follow that row's logic as one run, and ``const accepted``
joins row t's.  ``railcirc compile-tm`` writes that text as it is; ``compile_tm``
and ``compile_tm_flattened`` parse it with ``parse_netlist``, and every
subcommand reads a netlist file through the same check, the one place a
name defined twice or an operand read before its definition is refused.
Most of the text is const lines, and a parse takes each row's run at once;
every other line goes to the scanner ``read_netlist``.

Wire naming contract: the one-hot wire for symbol index k of cell (r, c) is
``c_{r}_{c}_{k}``, with k indexing ``cell_alphabet(tm)``.  These names are
stable and safe to decode; all other internal names (the sym, nh, keep and
arrive guards and the OR-tree nodes among them) are unspecified.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heapreplace
from itertools import count, product
from typing import Callable, Iterator, NamedTuple, Union

from .bitsim import wire_values
from .circuit import AND, OR, Circuit, parse_netlist
from .tm import BLANK, LEFT, RIGHT, TuringMachine, initial_configuration, step

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


def _or_value(leaves: list[int] | None, slot: int) -> int:
    """The folded value of an OR into slot that keeps leaves (_or_leaves):
    const 1 on None, const 0 on no leaf, one leaf itself, else slot."""
    if leaves is None:
        return _ONE
    return slot if len(leaves) > 1 else leaves[0] if leaves else _ZERO


class _Cell(NamedTuple):
    """How a cell of rows 1..t folds, given the tags of its window.

    tags: the tags of its wires.  cost: its gates, the shared sym_ trees
    aside.  sym: whether it reads its left and its right neighbor's sym_
    tree.  ops: (slot, label, op, operand slots) per AND or OR tree it
    builds, in order.  Label k names wire c_r_c_k, a prefix names
    prefix_{r-1}_c, and None an OR-tree node.  consts: the netlist lines of
    its const wires, in wire order, with @ for the cell's c_r_c_ prefix;
    empty when it has none.
    """

    tags: bytes
    cost: int
    sym: tuple[bool, bool]
    ops: tuple[tuple, ...]
    consts: str


class _Rule(NamedTuple):
    """What the passes read of a machine's cell rule: its window's slot
    layout, the accept pairs, and ``fold``, memoized on the window alone,
    one memo per rule."""

    na: int
    n_sym: int  # tape symbols take cell indices 0..n_sym-1
    accepts: list[int]  # the accept state's head pairs, by tape symbol
    t0: int
    tmp: int
    fold: Callable[[bytes], _Cell]


def _rule(tm: TuringMachine) -> _Rule:
    """The rule by which the cells of rows 1..t of tm fold: the unfolded
    cell, laid out once away from and once at the wall as a table of ops
    (slot, label, kind, operand slots), and ``fold``, which folds it."""
    cells = cell_alphabet(tm)
    index = {entry: k for k, entry in enumerate(cells)}
    na, n_sym = len(cells), len(tm.alphabet)

    # A cell of rows 1..t reads a window of three previous-row cells: slots
    # 0..na-1 hold its left neighbor's wires, na..2na-1 its own, 2na..3na-1
    # its right neighbor's.  Past them come the neighbors' sym_ trees, the
    # nh_ guard, one slot per guard, one per wire of the cell and one, tmp,
    # for the guarded AND of the wire being built.
    own, right = na, 2 * na
    sym_l, sym_r, nh = 3 * na, 3 * na + 1, 3 * na + 2

    # One read of each transition.  here[at_wall][k]: the slots of the head
    # pairs whose step leaves target k on the head's own cell, away from and
    # at the wall; a left move at the wall keeps the head in place, and a
    # halting state's pair stays put.  moves[p]: the state and the direction
    # head pair p's step moves the head in; a halting state's pairs have none.
    here = ([[] for _ in range(na)], [[] for _ in range(na)])
    moves: dict[int, tuple[str, str]] = {}
    for p, (q, s) in enumerate(cells[n_sym:], n_sym):
        off_wall = at_wall = p
        if q not in (tm.accept, tm.reject):
            q2, s2, d = tm.delta[(q, s)]
            moves[p] = q2, d
            off_wall = index[s2]
            at_wall = index[(q2, s2)] if d == LEFT else off_wall
        here[False][off_wall].append(own + p)
        here[True][at_wall].append(own + p)

    # A left neighbor's head pair enters moving right, a right neighbor's
    # moving left: arrive_q ORs the pairs that enter in state q, numbered in
    # the order they first enter, and keep ORs nh_ with the rest.
    keep = [nh]
    arrive: dict[str, list[int]] = {}
    for base, enter in ((0, RIGHT), (right, LEFT)):
        for p in range(n_sym, na):
            q, d = moves.get(p, (None, None))
            (arrive.setdefault(q, []) if d == enter else keep).append(base + p)
    head = [(nh, "nh", AND, (sym_l, sym_r)), (nh + 1, "keep", OR, keep)] + [
        (nh + j, f"arrive{tm.states.index(q)}", OR, srcs)
        for j, (q, srcs) in enumerate(arrive.items(), 2)]
    t0 = nh + len(head)
    tmp = t0 + na
    # guarded[k]: the slots of the guard and of the held symbol whose AND
    # produces k, None for a head pair no neighbor moves in as
    guarded = [(nh + 1, own + k) for k in range(n_sym)] + [None] * (na - n_sym)
    for j, q in enumerate(arrive, 2):
        for k, s in enumerate(tm.alphabet):
            guarded[index[(q, s)]] = nh + j, own + k
    # table[at_wall]: nh_, the guards, then per wire k its guarded AND into
    # tmp and the OR of its head-on-cell pairs and that AND
    table = (list(head), list(head))
    for at_wall, ops in enumerate(table):
        for k, pairs in enumerate(here[at_wall]):
            if guarded[k]:
                ops.append((tmp, None, AND, guarded[k]))
                pairs.append(tmp)
            ops.append((t0 + k, k, OR, pairs))

    @cache
    def fold(win: bytes) -> _Cell:
        """Fold the table in one forward pass, by the rule of _or_leaves and
        _and_value, and by one-hotness: a neighbor whose head pairs are all
        const 0 holds a plain symbol.  A grid wire that folds to a single
        wire buffers it or is its own guarded AND.  Then one backward walk
        drops every internal op that no kept op reads."""
        val = [(_ZERO, _ONE, slot)[tag] for slot, tag in enumerate(win)]
        val += [_ZERO] * (tmp + 1 - len(val))
        for slot, base in ((sym_l, 0), (sym_r, right)):
            val[slot] = (_or_value(_or_leaves(val[base:base + n_sym]), slot)
                         if any(win[base + n_sym:base + na]) else _ONE)
        tags = bytearray([_X]) * na
        folded, consts = [], []
        for slot, label, kind, args in table[not any(win[:na])]:
            operands = [val[s] for s in args]
            if kind == AND:
                v = _and_value(*operands)
                val[slot] = v = slot if v is None else v
            else:
                operands = _or_leaves(operands)
                val[slot] = v = _or_value(operands, slot)
            if v == slot:
                folded.append((slot, label, kind, operands))
            elif type(label) is int:
                if v < 0:
                    tags[label] = int(v == _ONE)
                    consts.append(f"const @{label} {tags[label]}")
                elif v == tmp:  # its own guarded AND
                    folded[-1] = (slot, label, AND, folded[-1][3])
                else:  # a buffer of its one leaf
                    folded.append((slot, label, OR, [v]))
        # a grid wire is kept, an internal op only if a kept op reads it;
        # a slot leaves the live set at its definition, as tmp is reused
        live, ops = set(), []
        for op in reversed(folded):
            slot, label, kind, args = op
            if type(label) is int or slot in live:
                live.discard(slot)
                live.update(args)
                ops.append(op)
        ops.reverse()
        # an OR of one leaf is a buffer
        cost = len(consts) + sum(max(len(args) - 1, 1) if kind == OR else 1
                                 for _, _, kind, args in ops)
        return _Cell(bytes(tags), cost, (sym_l in live, sym_r in live),
                     tuple(ops), "\n".join(consts))

    return _Rule(na, n_sym, [index[(tm.accept, s)] for s in tm.alphabet],
                 t0, tmp, fold)


def _tag_pass(rule: _Rule, last: bytes, t: int) -> tuple[list, list[int] | None, int]:
    """Fold rows 1..t from row 0's tags, last, keeping the previous row's
    tags only, and write nothing.  Returns per row its cells and the sym_
    columns they read, the accept OR's leaves (None: const 1), and the
    exact gate count of the folds, the sym_ trees read and the accept tree."""
    na, n_sym, fold = rule.na, rule.n_sym, rule.fold
    # Beyond either end of the grid: no head, so the grid edges count as
    # symbols and send no head in.  A row is padded with them once, and cell
    # c's window is then the slice of padded cells c..c+2.  The edge's tags
    # are all const 0 and a grid cell's never are, as cells are one-hot, so
    # a window whose left cell is all const 0 is one at the wall.
    edge = bytes(na)
    folds, gates = [], 0
    for _ in range(t):
        padded = edge + last + edge
        row = [fold(padded[c * na:(c + 3) * na]) for c in range(t + 1)]
        read = sorted({c + d for c, cell in enumerate(row)
                       for d, reads in zip((-1, 1), cell.sym) if reads})
        gates += (sum(cell.cost for cell in row)
                  + sum(last[c * na:c * na + n_sym].count(_X) - 1 for c in read))
        last = b"".join([cell.tags for cell in row])
        folds.append((row, read))
    accept = _or_leaves([(_ZERO, _ONE, s)[last[s]] for s in
                         (c * na + k for c in range(t + 1) for k in rule.accepts)])
    return folds, accept, gates + max(len(accept or ()) - 1, 1)


def _or_tree(lines: list[str], nodes: Iterator[int],
             leaves: list[tuple[int, str, str]], name: str) -> tuple[int, str, str]:
    """Append to lines an OR of (depth, key, wire) leaves into name, merging
    the two shallowest first, ties broken by key, into inner nodes t{i}, i
    drawn from nodes; one leaf gets an OR buffer.  Returns the (depth, key,
    wire) that readers of name read: the leaf itself behind a buffer."""
    if len(leaves) == 1:
        a = leaves[0][2]
        lines.append(f"or {name} {a} {a}")
        return leaves[0]
    if len(leaves) > 2:
        heapify(leaves)
        while len(leaves) > 2:
            a = heappop(leaves)[2]
            d, _, b = leaves[0]
            node = f"t{next(nodes)}"
            lines.append(f"or {node} {a} {b}")
            heapreplace(leaves, (d + 1, node, node))
    (d, _, a), (e, _, b) = leaves
    lines.append(f"or {name} {a} {b}")
    return max(d, e) + 1, name, name


def _write(rule: _Rule, lines: list[str], row0: list[str | int], folds: list,
           accept: list[int] | None) -> str:
    """The netlist text: lines, the input layer, then row 0 and the rows of
    folds, each with its const lines last, and the accept output.  Each
    gate is written as its canonical netlist line, unchecked: the names are
    distinct by construction, and read_netlist, the one scanner, refuses a
    name defined twice or an operand read before its definition wherever
    the text is read."""
    na, n_sym, t0, tmp = rule.na, rule.n_sym, rule.t0, rule.tmp
    nodes = count()  # i of each inner OR node t{i}, in the order written
    # wires[c * na + k]: the (depth, key, wire) a reader of wire k of
    # previous-row cell c reads, None for a const.  A wire that folds to one
    # other wire is a buffer of it for the naming contract, and its readers
    # read the other wire: a row-0 wire's rail, so a cell the head never
    # reaches reads the rails.  Depths count from row 0, and a rail's key
    # is its row-0 name, so that the raw and the flattened compile shape
    # their trees alike.
    wires = [(0, f"c_0_{i // na}_{i % na}", v) if type(v) is str else None
             for i, v in enumerate(row0)]
    lines += [f"or {name} {v} {v}" for _, name, v in filter(None, wires)]
    lines += [f"const c_0_{i // na}_{i % na} {v}"
              for i, v in enumerate(row0) if type(v) is int]

    beyond = [None] * na  # the wires of a cell beyond the grid or all const
    unset = [None] * (tmp - 3 * na - 1)  # slots nh_ = 3na + 2 .. tmp, unset
    for r, (row, read) in enumerate(folds, 1):
        pr = r - 1
        sym = {c: _or_tree(lines, nodes, [v for v in wires[c * na:c * na + n_sym] if v],
                           f"sym_{pr}_{c}") for c in read}

        padded = beyond + wires + beyond
        wires, consts = [], []
        for c, cell in enumerate(row):
            cell_prefix = f"c_{r}_{c}_"
            if cell.consts:
                consts.append(cell.consts.replace("@", cell_prefix))
            if not cell.ops:
                wires += beyond
                continue
            w = padded[c * na:(c + 3) * na]
            w += sym.get(c - 1), sym.get(c + 1)
            w += unset
            for slot, label, op, args in cell.ops:
                if type(label) is int:
                    name = f"{cell_prefix}{label}"
                elif label:
                    name = f"{label}_{pr}_{c}"
                else:
                    name = f"t{next(nodes)}"
                if op == AND:
                    (da, _, a), (db, _, b) = w[args[0]], w[args[1]]
                    lines.append(f"and {name} {a} {b}")
                    w[slot] = (max(da, db) + 1, name, name)
                else:
                    w[slot] = _or_tree(lines, nodes, [w[s] for s in args], name)
            wires += w[t0:tmp]
        lines += consts

    if accept:
        _or_tree(lines, nodes, [wires[s] for s in accept], "accepted")
    else:
        lines.append(f"const accepted {int(accept is None)}")
    lines.append("output accepted\n")
    return "\n".join(lines)


def compile_netlist(tm: TuringMachine, n: int, t: int, flattened: bool,
                    gate_cap: int) -> str:
    """The netlist text of ``compile_tm`` (``compile_tm_flattened`` when
    flattened), as ``emit_netlist`` writes it; raises GateCapError before
    any line is written if the circuit would exceed gate_cap gates."""
    _check_dims(n, t)
    cells = cell_alphabet(tm)
    cols, na = t + 1, len(cells)
    if (t + 1) * cols * na > gate_cap:
        raise GateCapError(
            f"grid alone needs {(t + 1) * cols * na} gates, cap is {gate_cap}")

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
    # buffer the rails of the cell's input bit (row0 holds the rail name),
    # and their readers read the rail; every other entry is a const, 1 only
    # for the blank beyond the input.
    row0: list[str | int] = []
    for c in range(cols):
        zero, one, blank = ((tm.start, s) if c == 0 else s
                            for s in ("0", "1", BLANK))
        rails = {zero: zero_rail[c], one: one_rail[c]} if c < n else {}
        row0 += [rails.get(e, int(c >= n and e == blank)) for e in cells]

    # The exact gate count before any gate is written: one gate per input,
    # input NOT and row-0 wire, and what the tag pass counts.
    rule = _rule(tm)
    folds, accept, gates = _tag_pass(
        rule, bytes(_X if type(v) is str else v for v in row0), t)
    total = 2 * n + cols * na + gates
    if total > gate_cap:
        raise GateCapError(f"{total} gates exceed the cap of {gate_cap}")
    return _write(rule, inputs, row0, folds, accept)


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
    halts), and each decoded row is checked against it: the first cell
    that differs raises ValueError with both symbols, as a circuit compiled
    for another machine does.  A symbol of x that is not a bit raises
    ValueError, as in ``run``, and so does a t or a cell alphabet size the
    circuit is not compiled for.  Raises RuntimeError if any cell fails to
    be one-hot, which would mean the construction itself is broken.
    """
    conf = initial_configuration(tm, x)
    if f"c_{t}_{t}_0" not in circuit or f"c_{t + 1}_0_0" in circuit:
        raise ValueError(f"circuit is not compiled for a step budget of {t}")
    cells = cell_alphabet(tm)
    if f"c_0_0_{len(cells) - 1}" not in circuit or f"c_0_0_{len(cells)}" in circuit:
        raise ValueError(f"circuit is not compiled for {len(cells)} cell symbols")
    vals = wire_values(circuit, [int(ch) for ch in x])
    grid: list[list[CellSymbol]] = []
    for r in range(t + 1):
        row = config_cells(tm, conf, t + 1)
        for c, want in enumerate(row):
            hot = [entry for k, entry in enumerate(cells)
                   if vals[f"c_{r}_{c}_{k}"]]
            if len(hot) != 1:
                raise RuntimeError(
                    f"cell ({r}, {c}) is not one-hot: {len(hot)} wires set")
            if hot[0] != want:
                raise ValueError(f"cell ({r}, {c}) holds {hot[0]!r} in the circuit, "
                                 f"{want!r} in the machine")
        grid.append(row)
        if conf.state not in (tm.accept, tm.reject):
            conf = step(tm, conf)
    return grid
