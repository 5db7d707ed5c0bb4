"""Verification passes: monotone-function census, equivalence, monotonicity.

All checks are exhaustive over the input domain (sizes are capped so the
sweeps stay fast) and every failure comes back as a self-certifying
CounterexampleReport: re-evaluating the subject on the witness reproduces
the recorded discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsim import (assignment_of_index, evaluate_masks, full_mask,
                     index_of_assignment, input_masks, lowest_set_bit, rail_masks)
from .circuit import Circuit, stats
from .reports import EQUIVALENCE, MONOTONICITY, ONE_HOT, RAIL, CounterexampleReport

RAW = "RAW"
FLATTENED = "FLATTENED"

_EQUIV_MAX_INPUTS = 20
_MONOTONE_MAX_INPUTS = 16
_CENSUS_MAX_ARITY = 4


@dataclass(frozen=True)
class TruthTable:
    """A function on ``arity`` bits; bits[i] is the value on assignment i.

    Assignments are indexed in lexicographic order, first input most
    significant, matching the bit-parallel evaluator.
    """

    arity: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.arity > 5:
            raise ValueError("truth tables are capped at arity 5")
        if len(self.bits) != 1 << self.arity:
            raise ValueError(
                f"arity {self.arity} needs {1 << self.arity} entries, "
                f"got {len(self.bits)}")


def truth_table(c: Circuit) -> TruthTable:
    """Tabulate a single-output circuit with at most 5 inputs."""
    if len(c.outputs) != 1:
        raise ValueError("truth tables cover single-output circuits")
    n = len(c.inputs)
    vals = evaluate_masks(c, input_masks(n), full_mask(n), c.outputs)
    ov = vals[c.outputs[0]]
    return TruthTable(n, tuple((ov >> i) & 1 for i in range(1 << n)))


def is_monotone_table(table: TruthTable) -> bool:
    """Definitional check: f(u) <= f(v) for every pointwise u <= v."""
    size = 1 << table.arity
    bits = table.bits
    for u in range(size):
        for v in range(size):
            if u | v == v and bits[u] > bits[v]:
                return False
    return True


def enumerate_monotone_functions(n: int) -> list[TruthTable]:
    """All monotone functions on n inputs, by filtering every truth table.

    Filtering single-bit raises is equivalent to the full pointwise order
    by transitivity.  Counts grow as 3, 6, 20, 168 for n = 1..4.
    """
    if not 1 <= n <= _CENSUS_MAX_ARITY:
        raise ValueError(f"census arity must be 1..{_CENSUS_MAX_ARITY}")
    size = 1 << n
    raises = [(i, i | (1 << w))
              for i in range(size) for w in range(n) if not i & (1 << w)]
    found = []
    for code in range(1 << size):
        ok = True
        for lo, hi in raises:
            if (code >> lo) & 1 > (code >> hi) & 1:
                ok = False
                break
        if ok:
            found.append(TruthTable(n, tuple((code >> i) & 1 for i in range(size))))
    return found


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


_REFUTE_CHAINS = {
    1: ((0, 0), (0, 1), (1, 1)),
    2: ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)),
}


def refute_eq_monotone(n: int = 1) -> CounterexampleReport:
    """Show that equality on n-bit words is not a monotone function.

    Confirms equality is absent from the census, then certifies why with an
    increasing witness chain bottom <= mid <= top on which equality takes
    values 1, 0, 1: any monotone function agreeing at the ends is forced to
    1 at the midpoint, where equality is 0.
    """
    if n not in _REFUTE_CHAINS:
        raise ValueError("refutation supports word widths 1 and 2")
    eq = eq_truth_table(n)
    if eq in enumerate_monotone_functions(2 * n):
        raise RuntimeError("equality unexpectedly passed the monotone filter")
    chain = _REFUTE_CHAINS[n]
    observed = tuple(eq.bits[index_of_assignment(a)] for a in chain)
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
    full = full_mask(n)
    masks = input_masks(n)
    bvals = evaluate_masks(b, masks, full, b.outputs)
    mvals = evaluate_masks(
        m, masks if mode == RAW else rail_masks(masks, full), full, m.outputs)
    bouts = [bvals[o] for o in b.outputs]
    mouts = [mvals[o] for o in m.outputs]
    diff = 0
    for x, y in zip(bouts, mouts):
        diff |= x ^ y
    if not diff:
        return None
    i = lowest_set_bit(diff)
    return CounterexampleReport(
        kind=EQUIVALENCE,
        witness=(assignment_of_index(i, n),),
        expected=tuple((x >> i) & 1 for x in bouts),
        observed=tuple((y >> i) & 1 for y in mouts),
    )


def check_semantic_monotone(c: Circuit) -> CounterexampleReport | None:
    """Exhaustively check that raising any single input never drops an output.

    Returns None for monotone behavior, else the violating assignment pair
    with the smallest lower assignment (ties broken by input, then output).
    """
    n = len(c.inputs)
    if n > _MONOTONE_MAX_INPUTS:
        raise ValueError(f"exhaustive sweep caps at {_MONOTONE_MAX_INPUTS} inputs")
    full = full_mask(n)
    masks = input_masks(n)
    vals = evaluate_masks(c, masks, full, c.outputs)
    best = None
    for oi, oname in enumerate(c.outputs):
        ov = vals[oname]
        for j in range(n):
            shift = 1 << (n - 1 - j)
            viol = ov & (full ^ (ov >> shift)) & (full ^ masks[j])
            if viol:
                cand = (lowest_set_bit(viol), j, oi)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    u, j, oi = best
    v = u | (1 << (n - 1 - j))
    ov = vals[c.outputs[oi]]
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
