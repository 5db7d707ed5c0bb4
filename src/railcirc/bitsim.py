"""Bit-parallel circuit evaluation: one integer per wire, one bit per assignment.

Assignments over n inputs are indexed 0 .. 2**n - 1 in lexicographic order
with the first input most significant: assignment i sets input j to bit
(n - 1 - j) of i.  Evaluating a circuit once over these masks yields its
whole truth table, which keeps the exhaustive sweeps cheap.  A single
assignment (``evaluate``, ``wire_values``) runs the same interpreter on
one-bit masks.

The interpreter walks the Circuit's columns (kinds, operand positions,
const values) in definition order; it builds no per-gate record.

A mask takes 2**n bits, so holding one per wire costs gates * 2**n / 8
bytes.  Callers that need only some wires (the verifiers read the outputs)
name them, and the evaluator then computes only those wires' cone of
influence, the gates some requested wire depends on, and keeps a wire's
mask only while a later gate still reads it.  Naming no wires (None)
computes and returns every wire.
"""

from __future__ import annotations

from .circuit import AND, CONST, NOT, OR, Circuit


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


def lowest_set_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def evaluate_masks(c: Circuit, masks, full: int, wires=None) -> dict[str, int]:
    """Evaluate the circuit over all assignments at once; map wire to mask.

    ``masks[j]`` drives the j-th input (in definition order); any mask list
    is accepted, so callers can restrict the sweep to a sub-domain such as
    the valid rail assignments of a flattened circuit.

    The result maps each wire named in ``wires`` to its mask; None names
    every wire, in definition order.  A name the circuit does not define
    raises ValueError.  Only the gates some named wire depends on are
    computed, and any other wire's mask is dropped as soon as its last
    reader has run.
    """
    if len(masks) != len(c.inputs):
        raise ValueError(
            f"{len(masks)} input masks supplied, circuit has {len(c.inputs)} inputs")
    kinds, first, second = c.kinds, c.first, c.second
    index = c._index
    end = len(kinds)
    if wires is None:
        wires = c.names
    # last[p]: the position of wire p's last reader, end for a requested
    # wire, -1 for a wire no requested wire depends on.  Walking back from
    # the end, the first live reader met is the last one to run.
    last = [-1] * end
    for w in wires:
        p = index.get(w)
        if p is None:
            raise ValueError(f"circuit defines no wire {w!r}")
        last[p] = end
    live = []
    for pos in range(end - 1, -1, -1):
        if last[pos] >= 0:
            live.append(pos)
            a = first[pos]
            if a >= 0 and last[a] < 0:
                last[a] = pos
            b = second[pos]
            if b >= 0 and last[b] < 0:
                last[b] = pos
    live.reverse()
    vals = [0] * end
    for name, m in zip(c.inputs, masks):
        vals[index[name]] = m
    values = c.values
    for pos in live:
        op = kinds[pos]
        if op is AND or op is OR:
            a = first[pos]
            b = second[pos]
            vals[pos] = vals[a] & vals[b] if op is AND else vals[a] | vals[b]
            if last[a] == pos:
                vals[a] = 0
            if last[b] == pos:
                vals[b] = 0
        elif op is NOT:
            a = first[pos]
            vals[pos] = full ^ vals[a]
            if last[a] == pos:
                vals[a] = 0
        elif op is CONST:
            vals[pos] = full if values[pos] else 0
    return {w: vals[index[w]] for w in wires}


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
    vals = evaluate_masks(c, _bits(c, assignment), 1, c.outputs)
    return [vals[o] for o in c.outputs]


def wire_values(c: Circuit, assignment) -> dict[str, int]:
    """Evaluate and return the value of every named wire."""
    return evaluate_masks(c, _bits(c, assignment), 1)
