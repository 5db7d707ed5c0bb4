"""Verification passes: monotone-function census, equivalence, monotonicity.

All checks are exhaustive over the input domain and every failure comes
back as a self-certifying CounterexampleReport: re-evaluating the subject
on the witness reproduces the recorded discrepancy.  The input caps bound
the time a sweep takes; its memory is bounded by
``bitsim.assignment_blocks``, which sweeps the assignments in index order
in blocks sized to a fixed byte budget, so an equivalence check stops at
the first block that differs.  The monotone check joins at most one budget
of distinct output masks per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bitsim
from .bitsim import (Cone, assignment_blocks, assignment_of_index, full_mask,
                     input_masks, lowest_set_bit, rail_masks)
from .circuit import Circuit, stats
from .reports import EQUIVALENCE, MONOTONICITY, CounterexampleReport

RAW = "RAW"
FLATTENED = "FLATTENED"

_EQUIV_MAX_INPUTS = 20
_MONOTONE_MAX_INPUTS = 16
_CENSUS_MAX_ARITY = 4
_TABLE_MAX_ARITY = 5


def _check_table_arity(arity: int) -> None:
    if arity > _TABLE_MAX_ARITY:
        raise ValueError(f"truth tables are capped at arity {_TABLE_MAX_ARITY}")


@dataclass(frozen=True)
class TruthTable:
    """A function on ``arity`` bits; bits[i] is the value on assignment i.

    Assignments are indexed in lexicographic order, first input most
    significant, matching the bit-parallel evaluator.
    """

    arity: int
    bits: tuple[int, ...]

    def __post_init__(self):
        _check_table_arity(self.arity)
        if len(self.bits) != 1 << self.arity:
            raise ValueError(
                f"arity {self.arity} needs {1 << self.arity} entries, "
                f"got {len(self.bits)}")


def truth_table(c: Circuit) -> TruthTable:
    """Tabulate a single-output circuit with at most 5 inputs."""
    if len(c.outputs) != 1:
        raise ValueError("truth tables cover single-output circuits")
    n = len(c.inputs)
    _check_table_arity(n)
    ov, = _output_masks(c, c.outputs)
    return TruthTable(n, tuple((ov >> i) & 1 for i in range(1 << n)))


def _output_masks(c: Circuit, wires) -> list[int]:
    """Each wire's mask over all 2**n assignments, joined from the blocks
    of one sweep."""
    cone = Cone(c, wires)
    outs = [0] * len(wires)
    for base, masks, full in assignment_blocks(len(c.inputs), cone.peak):
        for i, v in enumerate(cone.evaluate(masks, full)):
            outs[i] |= v << base
    return outs


def is_monotone_table(table: TruthTable) -> bool:
    """Definitional check: f(u) <= f(v) for every pointwise u <= v."""
    size = 1 << table.arity
    bits = table.bits
    for u in range(size):
        for v in range(size):
            if u | v == v and bits[u] > bits[v]:
                return False
    return True


def _monotone_codes(n: int) -> list[int]:
    """Truth-table codes (bit i = value on assignment i) of the monotone
    functions on n inputs, in increasing order: ``hi`` is the outer loop
    and ``lo`` < 2**shift, so the codes come out sorted."""
    if n == 0:
        return [0, 1]
    half = _monotone_codes(n - 1)
    shift = 1 << (n - 1)
    return [lo | hi << shift for hi in half for lo in half if not lo & ~hi]


def enumerate_monotone_functions(n: int) -> list[TruthTable]:
    """All monotone functions on n inputs, in increasing truth-table code.

    Built by splitting on the first input: f is monotone exactly when its
    halves ``lo`` (first input 0) and ``hi`` (first input 1) are monotone
    and ``lo <= hi`` pointwise, and its code is ``lo | hi << 2**(n-1)``.
    Counts grow as 3, 6, 20, 168 for n = 1..4.
    """
    if not 1 <= n <= _CENSUS_MAX_ARITY:
        raise ValueError(f"census arity must be 1..{_CENSUS_MAX_ARITY}")
    size = 1 << n
    return [TruthTable(n, tuple((code >> i) & 1 for i in range(size)))
            for code in _monotone_codes(n)]


def eq_truth_table(pairs: int) -> TruthTable:
    """Equality of two ``pairs``-bit words, laid out first word then second."""
    if not 1 <= pairs <= 2:
        raise ValueError("equality tables support 1 or 2 bit pairs")
    n = 2 * pairs
    bits = []
    for i in range(1 << n):
        a = assignment_of_index(i, n)
        bits.append(1 if a[:pairs] == a[pairs:] else 0)
    return TruthTable(n, tuple(bits))


def refute_eq_monotone(n: int = 1) -> CounterexampleReport:
    """Show that equality on n-bit words is not a monotone function.

    The witness is an increasing chain bottom <= mid <= top over the two
    words, first word then second: both words zero, then the second word's
    last bit raised, then the first word's too.  Equality takes values
    1, 0, 1 on it, and any monotone function valued 1 at both ends is
    forced to 1 at the midpoint, where equality is 0.  The chain certifies
    the result on its own: re-evaluating equality on it reproduces
    ``observed``.
    """
    if n not in (1, 2):
        raise ValueError("refutation supports word widths 1 and 2")
    bottom = (0,) * (2 * n)
    mid = bottom[:-1] + (1,)
    chain = (bottom, mid, mid[:n - 1] + (1,) + mid[n:])
    observed = tuple(int(a[:n] == a[n:]) for a in chain)
    return CounterexampleReport(
        kind=MONOTONICITY,
        witness=chain,
        expected=(1, 1, 1),
        observed=observed,
    )


def exhaustive_equiv(b: Circuit, m: Circuit, mode: str = RAW) -> CounterexampleReport | None:
    """Compare two circuits on every assignment of b's inputs.

    RAW feeds both circuits the same bits; FLATTENED feeds m the rail
    encoding of b's assignment, so m needs exactly twice the inputs.
    Returns None on agreement, else the lowest-index mismatch.
    """
    if mode not in (RAW, FLATTENED):
        raise ValueError(f"unknown mode {mode!r}")
    n = len(b.inputs)
    if n > _EQUIV_MAX_INPUTS:
        raise ValueError(f"exhaustive sweep caps at {_EQUIV_MAX_INPUTS} inputs")
    if len(b.outputs) != len(m.outputs):
        raise ValueError("output count mismatch")
    want = n if mode == RAW else 2 * n
    if len(m.inputs) != want:
        raise ValueError(
            f"{mode} mode needs {want} inputs on the second circuit, "
            f"got {len(m.inputs)}")
    bcone = Cone(b, b.outputs)
    mcone = Cone(m, m.outputs)
    for base, masks, full in assignment_blocks(n, max(bcone.peak, mcone.peak)):
        bouts = bcone.evaluate(masks, full)
        mouts = mcone.evaluate(
            masks if mode == RAW else rail_masks(masks, full), full)
        diff = 0
        for x, y in zip(bouts, mouts):
            diff |= x ^ y
        if diff:
            i = lowest_set_bit(diff)
            return CounterexampleReport(
                kind=EQUIVALENCE,
                witness=(assignment_of_index(base + i, n),),
                expected=tuple((x >> i) & 1 for x in bouts),
                observed=tuple((y >> i) & 1 for y in mouts),
            )
    return None


def check_semantic_monotone(c: Circuit) -> CounterexampleReport | None:
    """Exhaustively check that raising any single input never drops an output.

    Returns None for monotone behavior, else the violating assignment pair
    with the smallest lower assignment (ties broken by input, then output).
    """
    n = len(c.inputs)
    if n > _MONOTONE_MAX_INPUTS:
        raise ValueError(f"exhaustive sweep caps at {_MONOTONE_MAX_INPUTS} inputs")
    full = full_mask(n)
    # each distinct output once, at its first index, one budget per sweep
    outs = list(dict.fromkeys(c.outputs))
    group = max(1, 8 * bitsim._BLOCK_BYTES >> n)
    best = masks = None
    for start in range(0, len(outs), group):
        for oi, ov in enumerate(_output_masks(c, outs[start:start + group]), start):
            masks = masks or input_masks(n)  # after the first sweep, not during it
            for j in range(n):
                shift = 1 << (n - 1 - j)
                viol = ov & (full ^ (ov >> shift)) & (full ^ masks[j])
                if viol:
                    # (u, j, oi) differ between candidates; ov rides along
                    cand = (lowest_set_bit(viol), j, oi, ov)
                    if best is None or cand < best:
                        best = cand
    if best is None:
        return None
    u, j, _, ov = best
    v = u | (1 << (n - 1 - j))
    return CounterexampleReport(
        kind=MONOTONICITY,
        witness=(assignment_of_index(u, n), assignment_of_index(v, n)),
        expected=(1, 1),
        observed=((ov >> u) & 1, (ov >> v) & 1),
    )


@dataclass(frozen=True)
class SizeReport:
    source_gates: int
    target_gates: int
    ratio: float
    not_count_source: int
    not_count_target: int


def size_report(b: Circuit, m: Circuit) -> SizeReport:
    """Gate totals, blow-up ratio and NOT counts for a rewrite b -> m."""
    sb = stats(b)
    sm = stats(m)
    if sb.total_gates:
        ratio = sm.total_gates / sb.total_gates
    else:
        ratio = 1.0 if sm.total_gates == 0 else float("inf")
    return SizeReport(sb.total_gates, sm.total_gates, ratio,
                      sb.not_count, sm.not_count)
