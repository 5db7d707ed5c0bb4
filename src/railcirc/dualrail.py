"""Dual-rail encoding: bit flattening and NOT-gate elimination.

A source bit b is carried by a rail pair (complement, identity): 0 becomes
``10`` and 1 becomes ``01``, so exactly one rail of a valid pair is hot.
Negation then reduces to swapping the two rails, which lets any circuit be
rewritten into an equivalent one built from AND and OR gates alone, acting
on flattened inputs.  ``rail_block`` is the one bit encoder: ``flatten_bits``
and the streaming transducer both check and encode through it.

Rail wires are named ``<wire>__0`` (hot when the source bit is 0) and
``<wire>__1`` (hot when it is 1); the double underscore is reserved, and
circuits handed to the transform must not use it in their own names.
Behavior of transformed circuits off the valid flattened domain (both rails
equal) is well defined but carries no guarantees.

The rewrite is local: ``rail_gates`` turns one gate into its rail gates from
its operands' rails alone.  ``dual_rail_transform`` applies it to a Circuit;
``dual_rail_netlist`` applies it to netlist text line by line, checking each
line with the per-gate check that Circuit uses (``circuit.check_gate``) and
keeping only the rails of each defined name, never a Circuit.
"""

from __future__ import annotations

import re
from typing import Iterable

from .bitsim import (assignment_of_index, evaluate_masks, full_mask, input_masks,
                     lowest_set_bit, rail_masks)
from .circuit import (AND, CONST, INPUT, NOT, OR, Circuit, Gate, NetlistError,
                      check_gate, gate_lines, read_netlist)
from .reports import RAIL, CounterexampleReport

RAIL_SEPARATOR = "__"

_NON_BIT = re.compile("[^01]")
_ZERO_RAILS = bytes.maketrans(b"01", b"10")


def rail_block(block: str) -> tuple[str, int]:
    """The rail encoding of a block of bits, up to its first non-bit.

    Returns the encoding (0 -> 10, 1 -> 01) of the longest prefix of
    ``block`` made of '0' and '1', and the index of the character after
    that prefix, or -1 when the whole block is bits.  The check is one
    regex scan, so a non-ASCII character is found before anything is
    encoded; the encoding is one ``bytes.translate`` of the prefix into the
    even (zero-rail) slots and the prefix itself in the odd (one-rail) slots.
    """
    found = _NON_BIT.search(block)
    bad = -1 if found is None else found.start()
    raw = (block if found is None else block[:bad]).encode("ascii")
    rails = bytearray(2 * len(raw))
    rails[::2] = raw.translate(_ZERO_RAILS)
    rails[1::2] = raw
    return rails.decode("ascii"), bad


def non_bit(symbol, position: int) -> ValueError:
    """The error for a symbol that is neither 0 nor 1, at ``position``."""
    return ValueError(f"non-bit symbol {symbol!r} at position {position}")


def flatten_bits(target: str) -> str:
    """Encode a bit-string pairwise: 0 -> 10, 1 -> 01.

    A character other than '0'/'1' raises ValueError naming the first one
    in input order and its position.
    """
    rails, bad = rail_block(target)
    if bad >= 0:
        raise non_bit(target[bad], bad)
    return rails


def unflatten_bits(flat: str) -> str:
    """Decode a flattened string; rejects non-exclusive pairs and odd length."""
    if len(flat) % 2:
        raise ValueError(f"flattened string has odd length {len(flat)}")
    out = []
    for i in range(0, len(flat), 2):
        pair = flat[i:i + 2]
        if pair == "10":
            out.append("0")
        elif pair == "01":
            out.append("1")
        else:
            raise ValueError(
                f"rail pair {pair!r} at position {i // 2} is not exclusive")
    return "".join(out)


def build_eq_classifier(n: int) -> Circuit:
    """Monotone equality classifier over two flattened n-bit words.

    Takes 4n inputs: the rails of x, then the rails of y.  On valid flattened
    inputs it outputs 1 exactly when the two encoded words are equal.  For
    n = 1 this is the four-input circuit ((x0 and y0) or (x1 and y1)); larger
    widths AND together one such stage per bit position.
    """
    if n < 1:
        raise ValueError("classifier needs at least one bit pair")
    if n == 1:
        gates = (
            Gate("x0", INPUT), Gate("x1", INPUT),
            Gate("y0", INPUT), Gate("y1", INPUT),
            Gate("a", AND, ("x0", "y0")),
            Gate("b", AND, ("x1", "y1")),
            Gate("e", OR, ("a", "b")),
        )
        return Circuit(gates, ("e",))
    gates = []
    for i in range(n):
        gates.append(Gate(f"x{i}_0", INPUT))
        gates.append(Gate(f"x{i}_1", INPUT))
    for i in range(n):
        gates.append(Gate(f"y{i}_0", INPUT))
        gates.append(Gate(f"y{i}_1", INPUT))
    for i in range(n):
        gates.append(Gate(f"p{i}_0", AND, (f"x{i}_0", f"y{i}_0")))
        gates.append(Gate(f"p{i}_1", AND, (f"x{i}_1", f"y{i}_1")))
        gates.append(Gate(f"eq{i}", OR, (f"p{i}_0", f"p{i}_1")))
    acc = "eq0"
    for i in range(1, n):
        name = f"all{i}"
        gates.append(Gate(name, AND, (acc, f"eq{i}")))
        acc = name
    return Circuit(tuple(gates), (acc,))


def rail_gates(gate: Gate, operands) -> tuple[tuple[str, str], tuple[tuple, ...]]:
    """The rewrite rule: one source gate's rail pair and the gates carrying it.

    ``operands`` holds the (zero, one) rails of the gate's operands, in
    order.  With (z, o) the rails of a wire:
      input x      ->  input x__0, input x__1
      const k      ->  const pair (1-k, k)
      not a        ->  rail swap, no gates
      and w a b    ->  w__0 = a__0 or  b__0,  w__1 = a__1 and b__1
      or  w a b    ->  w__0 = a__0 and b__0,  w__1 = a__1 or  b__1
    A NOT gate's rails alias its operand's, swapped, so they are named after
    another gate.  Every rewrite goes through this function, which is the
    only place the swap is decided and the reserved separator rejected.
    The rail gates are plain (name, op, args, value) tuples in Gate's field
    order: the text rewrite formats them at once and never needs a Gate.
    """
    name, op, _, value = gate
    if RAIL_SEPARATOR in name:
        raise ValueError(
            f"gate name {name!r} contains the reserved rail separator "
            f"{RAIL_SEPARATOR!r}")
    if op == NOT:
        ((z, o),) = operands
        return (o, z), ()
    z = name + "__0"
    o = name + "__1"
    if op == AND:
        (za, oa), (zb, ob) = operands
        return (z, o), ((z, OR, (za, zb), None), (o, AND, (oa, ob), None))
    if op == OR:
        (za, oa), (zb, ob) = operands
        return (z, o), ((z, AND, (za, zb), None), (o, OR, (oa, ob), None))
    if op == INPUT:
        return (z, o), ((z, INPUT, (), None), (o, INPUT, (), None))
    return (z, o), ((z, CONST, (), 1 - value), (o, CONST, (), value))


def rail_map(b: Circuit) -> dict[str, tuple[str, str]]:
    """The (zero, one) rail names carried by each source wire after the transform."""
    rails: dict[str, tuple[str, str]] = {}
    for gate in b.gates:
        rails[gate.name] = rail_gates(gate, [rails[a] for a in gate.args])[0]
    return rails


def dual_rail_transform(b: Circuit) -> Circuit:
    """Rewrite a circuit into a NOT-free one over rail-pair inputs.

    Each gate goes through ``rail_gates``, its operands' rails read by
    position, and each source output maps to its one-rail.  The result
    carries at most two AND/OR gates per source gate and no NOT gates at all.
    """
    rails: list[tuple[str, str]] = []
    gates: list[Gate] = []
    for gate, pos in zip(b.gates, b._arg_pos):
        pair, new = rail_gates(gate, [rails[p] for p in pos])
        rails.append(pair)
        gates += map(Gate._make, new)
    return Circuit(tuple(gates), tuple(rails[b._index[w]][1] for w in b.outputs))


def dual_rail_netlist(lines: Iterable[str]) -> str:
    """The canonical text of the dual-rail rewrite of netlist lines.

    Equal to ``emit_netlist(dual_rail_transform(parse_netlist(text)))`` on
    every valid netlist, but built line by line without either circuit: each
    line is tokenized by ``read_netlist``, checked by ``check_gate`` against
    the rails of the names defined above it, and rewritten by
    ``rail_gates``; its rail lines go to a buffer, ``output`` lines after
    them.  A fault raises NetlistError at the first faulty line in file
    order, whatever its kind, and no text is returned.
    """
    rails: dict[str, tuple[str, str]] = {}
    out: list[str] = []
    outputs: list[str] = []
    for lineno, item in read_netlist(lines):
        try:
            if type(item) is str:
                if item not in rails:
                    raise NetlistError(f"undefined reference {item!r}")
                outputs.append("output " + rails[item][1])
                continue
            pair, new = rail_gates(item, check_gate(*item, rails))
        except ValueError as exc:
            raise NetlistError(str(exc), lineno) from None
        rails[item.name] = pair
        out += gate_lines(new)
    out += outputs
    return "\n".join(out) + "\n" if out else ""


def validate_rail_complement(b: Circuit, m: Circuit) -> CounterexampleReport | None:
    """Check that in m every rail pair of b stays complementary.

    Sweeps all valid flattened assignments (b must have at most 12 inputs)
    and reports the first wire/assignment where ``w__0 != not w__1``.
    """
    n = len(b.inputs)
    if n > 12:
        raise ValueError("rail validation sweeps all assignments; max 12 inputs")
    full = full_mask(n)
    vals = evaluate_masks(m, rail_masks(input_masks(n), full), full)
    for z, o in rail_map(b).values():
        mismatch = vals[z] ^ (full ^ vals[o])
        if mismatch:
            i = lowest_set_bit(mismatch)
            x = assignment_of_index(i, n)
            flat = tuple(int(ch) for ch in flatten_bits("".join(str(v) for v in x)))
            one = (vals[o] >> i) & 1
            zero = (vals[z] >> i) & 1
            return CounterexampleReport(
                kind=RAIL,
                witness=(flat,),
                expected=(1 - one,),
                observed=(zero,),
                detail=z,
            )
    return None
