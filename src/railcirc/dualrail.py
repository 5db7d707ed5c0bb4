"""Dual-rail encoding: bit flattening and NOT-gate elimination.

A source bit b is carried by a rail pair (complement, identity): 0 becomes
``10`` and 1 becomes ``01``, so exactly one rail of a valid pair is hot.
Negation then reduces to swapping the two rails, which lets any circuit be
rewritten into an equivalent one built from AND and OR gates alone, acting
on flattened inputs.

Rail wires are named ``<wire>__0`` (hot when the source bit is 0) and
``<wire>__1`` (hot when it is 1); the double underscore is reserved, and
circuits handed to the transform must not use it in their own names.
Behavior of transformed circuits off the valid flattened domain (both rails
equal) is well defined but carries no guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsim import (assignment_of_index, evaluate_masks, full_mask, input_masks,
                     lowest_set_bit, rail_masks)
from .circuit import AND, CONST, INPUT, NOT, OR, Circuit, Gate
from .reports import RAIL, CounterexampleReport

RAIL_SEPARATOR = "__"

_FLATTEN = str.maketrans({"0": "10", "1": "01"})


@dataclass(frozen=True)
class RailPair:
    """The two wires carrying one source bit."""

    zero_rail: str
    one_rail: str


def flatten_bits(target: str) -> str:
    """Encode a bit-string pairwise: 0 -> 10, 1 -> 01."""
    bad = set(target) - {"0", "1"}
    if bad:
        raise ValueError(f"non-bit character {sorted(bad)[0]!r} in bit-string")
    return target.translate(_FLATTEN)


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


def _rails(b: Circuit) -> tuple[list[str], list[str]]:
    """Zero-rail and one-rail wire names of every source gate, by position.

    A NOT gate swaps its operand's rails instead of adding gates, so its
    rails alias wires named after other gates; every other gate ``w`` gets
    ``w__0`` and ``w__1``.
    """
    zero: list[str] = []
    one: list[str] = []
    for (name, op, _, _), pos in zip(b.gates, b._arg_pos):
        if RAIL_SEPARATOR in name:
            raise ValueError(
                f"gate name {name!r} contains the reserved rail separator "
                f"{RAIL_SEPARATOR!r}")
        if op == NOT:
            (a,) = pos
            zero.append(one[a])
            one.append(zero[a])
        else:
            zero.append(name + "__0")
            one.append(name + "__1")
    return zero, one


def rail_map(b: Circuit) -> dict[str, RailPair]:
    """Rail names carried by each source wire after the transform.

    Built from the same positional rail pass as ``dual_rail_transform``:
    NOT gates swap the operand's rails instead of adding gates, so their
    rails alias wires named after other gates.
    """
    zero, one = _rails(b)
    return {g.name: RailPair(z, o) for g, z, o in zip(b.gates, zero, one)}


def dual_rail_transform(b: Circuit) -> Circuit:
    """Rewrite a circuit into a NOT-free one over rail-pair inputs.

    Per-gate scheme, with (z, o) the rails of a wire:
      input x      ->  input x__0, input x__1
      const k      ->  const pair (1-k, k)
      not a        ->  rail swap, no gates
      and w a b    ->  w__0 = a__0 or  b__0,  w__1 = a__1 and b__1
      or  w a b    ->  w__0 = a__0 and b__0,  w__1 = a__1 or  b__1
    Each source output maps to its one-rail.  The result carries at most two
    AND/OR gates per source gate and no NOT gates at all.  The rails of every
    source gate are computed once, in a list indexed by gate position, and
    operand rails are read by the operands' positions.
    """
    zero, one = _rails(b)
    gates: list[Gate] = []
    append = gates.append
    for (_, op, _, value), pos, z, o in zip(b.gates, b._arg_pos, zero, one):
        if op == AND:
            x, y = pos
            append(Gate(z, OR, (zero[x], zero[y])))
            append(Gate(o, AND, (one[x], one[y])))
        elif op == OR:
            x, y = pos
            append(Gate(z, AND, (zero[x], zero[y])))
            append(Gate(o, OR, (one[x], one[y])))
        elif op == INPUT:
            append(Gate(z, INPUT))
            append(Gate(o, INPUT))
        elif op == CONST:
            append(Gate(z, CONST, value=1 - value))
            append(Gate(o, CONST, value=value))
        # NOT: its rails alias the operand's, swapped in _rails; zero gates
    outputs = tuple(one[b._index[w]] for w in b.outputs)
    return Circuit(tuple(gates), outputs)


def validate_rail_complement(b: Circuit, m: Circuit) -> CounterexampleReport | None:
    """Check that in m every rail pair of b stays complementary.

    Sweeps all valid flattened assignments (b must have at most 12 inputs)
    and reports the first wire/assignment where ``w__0 != not w__1``.
    """
    n = len(b.inputs)
    if n > 12:
        raise ValueError("rail validation sweeps all assignments; max 12 inputs")
    zero_rails, one_rails = _rails(b)
    full = full_mask(n)
    vals = evaluate_masks(m, rail_masks(input_masks(n), full), full)
    for z, o in zip(zero_rails, one_rails):
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
