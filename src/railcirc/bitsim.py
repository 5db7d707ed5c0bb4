"""Bit-parallel circuit evaluation: one integer per wire, one bit per assignment.

Assignments over n inputs are indexed 0 .. 2**n - 1 in lexicographic order
with the first input most significant: assignment i sets input j to bit
(n - 1 - j) of i.  Evaluating a circuit once over these masks yields its
whole truth table, which keeps the exhaustive sweeps cheap.  A single
assignment (``evaluate``, ``wire_values``) runs the same interpreter on
one-bit masks.

A mask takes 2**n bits, so holding one per wire costs gates * 2**n / 8
bytes.  Callers that need only some wires (the verifiers read the outputs)
name them, and the evaluator then keeps a wire's mask only while a later
gate still reads it.
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


def evaluate_masks(c: Circuit, masks, full: int, wires=None) -> dict[str, int]:
    """Evaluate the circuit over all assignments at once; map wire to mask.

    ``masks[j]`` drives the j-th input (in definition order); any mask list
    is accepted, so callers can restrict the sweep to a sub-domain such as
    the valid rail assignments of a flattened circuit.

    The result maps each wire named in ``wires`` to its mask (every wire
    when None); a name the circuit does not define raises ValueError.  Any
    other wire's mask is dropped as soon as its last reader has run.
    """
    if len(masks) != len(c.inputs):
        raise ValueError(
            f"{len(masks)} input masks supplied, circuit has {len(c.inputs)} inputs")
    gates = c.gates
    arg_pos = c._arg_pos
    end = len(gates)
    if wires is None:
        last = [end] * end
    else:
        # last[p]: the position of wire p's last reader; requested wires are
        # read at the end, and a wire nothing reads dies where it is made.
        last = list(range(end))
        for pos, args in enumerate(arg_pos):
            for a in args:
                last[a] = pos
        index = c._index
        for w in wires:
            p = index.get(w)
            if p is None:
                raise ValueError(f"circuit defines no wire {w!r}")
            last[p] = end
    vals = [0] * end
    k = 0
    for pos, g in enumerate(gates):
        op = g.op
        if op == AND or op == OR:
            a, b = arg_pos[pos]
            v = vals[a] & vals[b] if op == AND else vals[a] | vals[b]
            if last[a] == pos:
                vals[a] = 0
            if last[b] == pos:
                vals[b] = 0
        elif op == NOT:
            (a,) = arg_pos[pos]
            v = full ^ vals[a]
            if last[a] == pos:
                vals[a] = 0
        elif op == INPUT:
            v = masks[k]
            k += 1
        else:
            v = full if g.value else 0
        if last[pos] != pos:
            vals[pos] = v
    if wires is None:
        return {g.name: vals[pos] for pos, g in enumerate(gates)}
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
