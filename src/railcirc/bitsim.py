"""Bit-parallel circuit evaluation: one integer per wire, one bit per assignment.

Assignments over n inputs are indexed 0 .. 2**n - 1 in lexicographic order
with the first input most significant: assignment i sets input j to bit
(n - 1 - j) of i.  Evaluating a circuit once over these masks yields its
whole truth table, which keeps the exhaustive sweeps cheap.  A single
assignment (``evaluate``, ``wire_values``) runs the same interpreter on
one-bit masks.

The interpreter walks the Circuit's columns (kinds, operand positions,
const values) in definition order; it builds no per-gate record.

Callers that need only some wires (the verifiers read the outputs) name
them, and a ``Cone`` walks back once to find the gates some requested wire
depends on and the last reader of each; the interpreter then keeps a
wire's mask only while a later gate still reads it.  Naming no wires
(None) computes and returns every wire.

The exhaustive sweeps do not hold 2**n bits per live wire.  The walk also
counts the most masks alive at once, and ``assignment_blocks`` cuts the
2**n assignments, in index order, into blocks of 2**k: the widest at which
that many masks fit _BLOCK_BYTES (1 MiB), but never under 64 assignments.
Each block runs the same interpreter over the cone, so the memory is
budgeted before any mask is built.
"""

from __future__ import annotations

from .circuit import AND, CONST, INPUT, NOT, OR, Circuit

# The bytes one sweep block may hold in live masks (``assignment_blocks``).
_BLOCK_BYTES = 1 << 20


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


class Cone:
    """The gates some named wires depend on, found by one backward walk.

    ``wires`` are the requested names, in the order given; a name the
    circuit does not define raises ValueError.  ``peak`` is the largest
    number of masks alive at once while ``evaluate`` runs, the caller's
    input masks and the requested wires' included, so a sweep can budget
    its block width before it builds any mask.
    """

    def __init__(self, c: Circuit, wires):
        kinds, first, second = c.kinds, c.first, c.second
        index = c._index
        end = len(kinds)
        self.circuit = c
        # last[p]: the position of wire p's last reader, end for a requested
        # wire, -1 for a wire no requested wire depends on.  Walking back
        # from the end, the first live reader met is the last one to run.
        last = [-1] * end
        self.positions = []
        for w in wires:
            p = index.get(w)
            if p is None:
                raise ValueError(f"circuit defines no wire {w!r}")
            self.positions.append(p)
            last[p] = end
        # held: the gate masks alive while gate pos runs, those defined at
        # or before pos whose last reader is at or after it.  The input
        # masks stay with the caller throughout, and an input is no step
        # of the interpreter.
        held = sum(kinds[p] is not INPUT for p in set(self.positions))
        peak = 0
        live = []
        for pos in range(end - 1, -1, -1):
            if last[pos] < 0 or kinds[pos] is INPUT:
                continue
            live.append(pos)
            a = first[pos]
            if a >= 0 and last[a] < 0:
                last[a] = pos
                held += kinds[a] is not INPUT
            b = second[pos]
            if b >= 0 and last[b] < 0:
                last[b] = pos
                held += kinds[b] is not INPUT
            if held > peak:
                peak = held
            held -= 1
        live.reverse()
        self.live, self.last = live, last
        self.peak = peak + len(c.inputs)

    def evaluate(self, masks, full: int) -> list[int]:
        """The mask of each requested wire, in order, with ``masks[j]``
        driving the j-th input; any other wire's mask is dropped as soon
        as its last reader has run."""
        c = self.circuit
        kinds, first, second, values = c.kinds, c.first, c.second, c.values
        last = self.last
        vals = [0] * len(kinds)
        for name, m in zip(c.inputs, masks):
            vals[c._index[name]] = m
        for pos in self.live:
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
        return [vals[p] for p in self.positions]


def assignment_blocks(n: int, peak: int):
    """Sweep the 2**n assignments in index order, one block at a time.

    Yields ``(base, masks, full)`` per block: the index of its first
    assignment, the n input masks over its 2**k assignments and their full
    mask.  k is the largest width at which ``peak`` masks fit _BLOCK_BYTES,
    but at least 6 (a 64-bit mask) and at most n.  The first n - k inputs
    are constant within a block, so only the last k inputs' masks vary.
    """
    k = min(n, max(6, (_BLOCK_BYTES * 8 // max(peak, 1)).bit_length() - 1))
    full = full_mask(k)
    low = input_masks(k)
    for block in range(1 << (n - k)):
        high = [full if block >> (n - k - 1 - j) & 1 else 0 for j in range(n - k)]
        yield block << k, high + low, full


def evaluate_masks(c: Circuit, masks, full: int, wires=None) -> dict[str, int]:
    """Evaluate the circuit over all assignments at once; map wire to mask.

    ``masks[j]`` drives the j-th input (in definition order); any mask list
    is accepted, so callers can restrict the sweep to a sub-domain such as
    the valid rail assignments of a flattened circuit.

    The result maps each wire named in ``wires`` to its mask; None names
    every wire, in definition order.  A name the circuit does not define
    raises ValueError.  Only the gates some named wire depends on are
    computed (a ``Cone``), in one block.
    """
    if len(masks) != len(c.inputs):
        raise ValueError(
            f"{len(masks)} input masks supplied, circuit has {len(c.inputs)} inputs")
    if wires is None:
        wires = c.names
    return dict(zip(wires, Cone(c, wires).evaluate(masks, full)))


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
