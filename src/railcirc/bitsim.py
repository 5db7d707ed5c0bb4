"""Bit-parallel circuit evaluation: one integer per wire, one bit per assignment.

Assignments over n inputs are indexed 0 .. 2**n - 1 in lexicographic order
with the first input most significant: assignment i sets input j to bit
(n - 1 - j) of i.  Evaluating a circuit once over these masks yields its
whole truth table, which keeps the exhaustive sweeps cheap.  A single
assignment (``evaluate``, ``wire_values``) runs the same interpreter on
one-bit masks.
"""

from __future__ import annotations

from .circuit import AND, INPUT, NOT, OR, Circuit


def full_mask(n: int) -> int:
    """Mask with one set bit per assignment of n inputs."""
    return (1 << (1 << n)) - 1


def input_masks(n: int) -> list[int]:
    """The value mask of each input across all 2**n assignments."""
    total = 1 << n
    masks = []
    for j in range(n):
        block = 1 << (n - 1 - j)
        m = ((1 << block) - 1) << block
        span = block * 2
        while span < total:
            m |= m << span
            span *= 2
        masks.append(m)
    return masks


def assignment_of_index(i: int, n: int) -> tuple[int, ...]:
    return tuple((i >> (n - 1 - j)) & 1 for j in range(n))


def index_of_assignment(bits) -> int:
    i = 0
    for b in bits:
        i = (i << 1) | b
    return i


def lowest_set_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def evaluate_masks(c: Circuit, masks, full: int) -> dict[str, int]:
    """Evaluate every wire over all assignments at once.

    ``masks[j]`` drives the j-th input (in definition order); any mask list
    is accepted, so callers can restrict the sweep to a sub-domain such as
    the valid rail assignments of a flattened circuit.
    """
    if len(masks) != len(c.inputs):
        raise ValueError(
            f"{len(masks)} input masks supplied, circuit has {len(c.inputs)} inputs")
    vals = [0] * len(c.gates)
    arg_pos = c._arg_pos
    k = 0
    for pos, g in enumerate(c.gates):
        op = g.op
        if op == AND:
            a, b = arg_pos[pos]
            vals[pos] = vals[a] & vals[b]
        elif op == OR:
            a, b = arg_pos[pos]
            vals[pos] = vals[a] | vals[b]
        elif op == NOT:
            vals[pos] = full ^ vals[arg_pos[pos][0]]
        elif op == INPUT:
            vals[pos] = masks[k]
            k += 1
        else:
            vals[pos] = full if g.value else 0
    return {g.name: vals[pos] for pos, g in enumerate(c.gates)}


def rail_masks(masks, full: int) -> list[int]:
    """Rail-encode input masks: each becomes its (zero-rail, one-rail) pair.

    The result drives a flattened circuit over the same assignments as
    ``masks``, inputs ordered ``x0__0, x0__1, x1__0, ...``.
    """
    out = []
    for m in masks:
        out.append(full ^ m)
        out.append(m)
    return out


def _bits(c: Circuit, assignment) -> list[int]:
    if len(assignment) != len(c.inputs):
        raise ValueError(
            f"assignment has {len(assignment)} bits, circuit has "
            f"{len(c.inputs)} inputs")
    for bit in assignment:
        if bit not in (0, 1):
            raise ValueError(f"assignment value {bit!r} is not a bit")
    return [int(bit) for bit in assignment]


def evaluate(c: Circuit, assignment) -> list[int]:
    """Evaluate the circuit on one assignment; returns output bits in order.

    ``assignment`` feeds the inputs positionally, in definition order.
    """
    vals = evaluate_masks(c, _bits(c, assignment), 1)
    return [vals[o] for o in c.outputs]


def wire_values(c: Circuit, assignment) -> dict[str, int]:
    """Evaluate and return the value of every named wire."""
    return evaluate_masks(c, _bits(c, assignment), 1)
