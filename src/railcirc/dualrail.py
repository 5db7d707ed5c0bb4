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

The rewrite is local: each gate's rail pair and rail gates follow from its
operands' rails alone, so it runs in one pass over netlist text.
``dual_rail_netlist`` checks each line with ``circuit.read_netlist``, the
scanner ``parse_netlist`` uses, and writes its rail lines at once.  It
keeps only each defined name's zero-rail name (the one-rail differs in
the last digit) and the text written so far, joined a block of gates at a
time; never a Circuit.  That pass is the only rewrite: ``dual_rail_transform``
and ``rail_map`` run it on a circuit's emitted text.  Circuits built here,
the rewrite's result and the equality classifier, are written as netlist
text and parsed, like every Circuit.
"""

from __future__ import annotations

import re
from typing import Iterable

from .bitsim import (Cone, assignment_blocks, assignment_of_index, lowest_set_bit,
                     rail_masks)
from .circuit import (AND, INPUT, NOT, OR, OUTPUT, Circuit, NetlistError,
                      emit_netlist, parse_netlist, read_netlist)
from .reports import RAIL, CounterexampleReport

RAIL_SEPARATOR = "__"
# The kind of an AND/OR gate's zero-rail gate: by De Morgan, its dual.
_DUAL = {AND: OR, OR: AND}

_NON_BIT = re.compile("[^01]")
_ZERO_RAILS = bytes.maketrans(b"01", b"10")
# The last digit of a rail name -> the other rail's: w__0 <-> w__1.
_FLIP = {"0": "1", "1": "0"}
# Gates per block of rewritten text: the per-gate strings alive at a time.
_BLOCK = 4096


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
    """Decode a flattened string; rejects non-exclusive pairs and odd length.

    The bits are the one-rails, valid exactly when ``rail_block`` encodes
    them back into the string.  Otherwise a scan pair by pair names the
    first pair that is neither ``10`` nor ``01``.
    """
    if len(flat) % 2:
        raise ValueError(f"flattened string has odd length {len(flat)}")
    bits = flat[1::2]
    rails, bad = rail_block(bits)
    if bad < 0 and rails == flat:
        return bits
    i = next(i for i in range(0, len(flat), 2) if flat[i:i + 2] not in ("10", "01"))
    raise ValueError(
        f"rail pair {flat[i:i + 2]!r} at position {i // 2} is not exclusive")


def build_eq_classifier(n: int) -> Circuit:
    """Monotone equality classifier over two flattened n-bit words.

    Takes 4n inputs: the rails of x, then the rails of y.  On valid flattened
    inputs it outputs 1 exactly when the two encoded words are equal.  For
    n = 1 this is the four-input circuit ((x0 and y0) or (x1 and y1)); larger
    widths AND together one such stage per bit position.  The circuit is
    written as netlist text and parsed.
    """
    if n < 1:
        raise ValueError("classifier needs at least one bit pair")
    if n == 1:
        return parse_netlist("input x0\ninput x1\ninput y0\ninput y1\n"
                             "and a x0 y0\nand b x1 y1\nor e a b\noutput e\n")
    lines = [f"input {w}{i}_{k}" for w in "xy" for i in range(n) for k in (0, 1)]
    for i in range(n):
        lines += [f"and p{i}_0 x{i}_0 y{i}_0", f"and p{i}_1 x{i}_1 y{i}_1",
                  f"or eq{i} p{i}_0 p{i}_1"]
    acc = "eq0"
    for i in range(1, n):
        lines.append(f"and all{i} {acc} eq{i}")
        acc = f"all{i}"
    lines.append(f"output {acc}")
    return parse_netlist("\n".join(lines) + "\n")


def _one_rail(zero: str) -> str:
    """The other rail of a rail name: its final digit flipped."""
    return zero[:-1] + _FLIP[zero[-1]]


def _rewrite(lines: Iterable[str]) -> tuple[list[str], dict[str, str]]:
    """The rewrite rule, applied to netlist lines in one pass.

    Returns the rail text in blocks of ``_BLOCK`` gates, ``output`` lines
    in the last block, and the zero-rail name of each source wire; the
    one-rail is the zero-rail with its final digit flipped.  With z and o
    the rails of a wire:
      input x      ->  input x__0, input x__1
      const k      ->  const pair (1-k, k)
      not a        ->  rail swap, no gates
      and w a b    ->  w__0 = a__0 or  b__0,  w__1 = a__1 and b__1
      or  w a b    ->  w__0 = a__0 and b__0,  w__1 = a__1 or  b__1
      output w     ->  output w's one-rail
    A NOT gate's zero-rail is its operand's one-rail, so it is named after
    another gate.  Each gate's two rail lines are one string, and at most
    one block of such strings is alive at a time.  This is the only place
    the swap is decided and the reserved separator rejected.
    """
    zeros: dict[str, str] = {}
    blocks: list[str] = []
    gates: list[str] = []
    outputs: list[str] = []
    append = gates.append
    for lineno, kind, name, value, za, zb in read_netlist(lines, zeros):
        if kind is OUTPUT:
            outputs.append(f"output {_one_rail(za)}\n")
            continue
        if RAIL_SEPARATOR in name:
            raise NetlistError(
                f"gate name {name!r} contains the reserved rail separator "
                f"{RAIL_SEPARATOR!r}", lineno)
        if kind is NOT:
            zeros[name] = _one_rail(za)
            continue
        z = zeros[name] = name + "__0"
        dual = _DUAL.get(kind)
        if dual is not None:
            append(f"{dual} {z} {za} {zb}\n"
                   f"{kind} {name}__1 {_one_rail(za)} {_one_rail(zb)}\n")
        elif kind is INPUT:
            append(f"input {z}\ninput {name}__1\n")
        else:
            append(f"const {z} {1 - value}\nconst {name}__1 {value}\n")
        if len(gates) == _BLOCK:
            blocks.append("".join(gates))
            gates.clear()
    blocks.append("".join(gates + outputs))
    return blocks, zeros


def dual_rail_netlist(lines: Iterable[str]) -> str:
    """The canonical text of the dual-rail rewrite of netlist lines.

    Equal to ``emit_netlist(dual_rail_transform(parse_netlist(text)))`` on
    every valid netlist, but built line by line without either circuit,
    from the zero-rail name of each wire and the text in blocks of gates.
    A fault raises NetlistError at the first faulty line in file order,
    with ``parse_netlist``'s message, and no text is returned.
    """
    return "".join(_rewrite(lines)[0])


def rail_map(b: Circuit) -> dict[str, tuple[str, str]]:
    """The (zero, one) rail names carried by each source wire after the transform."""
    return {name: (z, _one_rail(z))
            for name, z in _rewrite(emit_netlist(b).split("\n"))[1].items()}


def dual_rail_transform(b: Circuit) -> Circuit:
    """Rewrite a circuit into a NOT-free one over rail-pair inputs.

    The rewrite of the circuit's netlist, parsed back.  Each source output
    maps to its one-rail.  The result carries at most two AND/OR gates per
    source gate and no NOT gates at all.
    """
    return parse_netlist(dual_rail_netlist(emit_netlist(b).split("\n")))


def validate_rail_complement(b: Circuit, m: Circuit) -> CounterexampleReport | None:
    """Check that in m every rail pair of b stays complementary.

    Sweeps all valid flattened assignments (b must have at most 12 inputs)
    block by block, and reports the first pair in ``rail_map`` order where
    ``w__0 != not w__1`` on some assignment, at its lowest such assignment.
    """
    n = len(b.inputs)
    if n > 12:
        raise ValueError("rail validation sweeps all assignments; max 12 inputs")
    pairs = list(rail_map(b).values())
    cone = Cone(m, [w for pair in pairs for w in pair])
    # fails[p]: pair p's lowest failing assignment, with its two rails there
    fails = {}
    for base, masks, full in assignment_blocks(n, cone.peak):
        vals = cone.evaluate(rail_masks(masks, full), full)
        for p, (zero, one) in enumerate(zip(vals[::2], vals[1::2])):
            mismatch = zero ^ (full ^ one)
            if mismatch and p not in fails:
                i = lowest_set_bit(mismatch)
                fails[p] = (base + i, (zero >> i) & 1, (one >> i) & 1)
    if not fails:
        return None
    p = min(fails)
    i, zero, one = fails[p]
    x = assignment_of_index(i, n)
    flat = tuple(int(ch) for ch in flatten_bits("".join(str(v) for v in x)))
    return CounterexampleReport(
        kind=RAIL,
        witness=(flat,),
        expected=(1 - one,),
        observed=(zero,),
        detail=pairs[p][0],
    )
