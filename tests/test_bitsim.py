"""Bit-parallel evaluation of a chosen set of wires, and what it holds."""

import random
import tracemalloc

import pytest

from railcirc import (FLATTENED, check_semantic_monotone, dual_rail_transform,
                      exhaustive_equiv, parse_netlist)
from railcirc.bitsim import evaluate_masks, full_mask, input_masks

from helpers import random_circuit


def _both(c, wires):
    """evaluate_masks over ``wires``, and the all-wire dict cut down to them."""
    n = len(c.inputs)
    masks, full = input_masks(n), full_mask(n)
    every = evaluate_masks(c, masks, full)
    return evaluate_masks(c, masks, full, wires), {w: every[w] for w in wires}


def test_requested_wires_match_the_all_wire_dict():
    c = parse_netlist("""
        input x0
        input x1
        input x2
        const k 1
        and a x0 x1
        or  d a a      # the same operand twice
        not u x2       # nothing reads it
        and v u k      # nor this
        and e d x2
        or  f x2 x2    # x2's last reader reads it twice
    """)
    # a is read by d later on, x0 is an input, e is asked for twice
    wires = ("a", "x0", "e", "e", "f", "k")
    got, want = _both(c, wires)
    assert got == want
    assert list(got) == ["a", "x0", "e", "f", "k"]


def test_requested_wires_on_random_circuits():
    rng = random.Random(3)
    for _ in range(150):
        c = random_circuit(rng, max_inputs=8, max_gates=40)
        names = list(c.names)
        wires = tuple(rng.choices(names, k=rng.randint(1, 5))) + c.outputs
        got, want = _both(c, wires)
        assert got == want


class _Counted(int):
    """An int that counts in ``ops`` every &, | and ^ applied to it."""

    ops = 0

    def _counting(op):
        def counted(self, other):
            _Counted.ops += 1
            return _Counted(op(self, other))
        return counted

    __and__ = __rand__ = _counting(int.__and__)
    __or__ = __ror__ = _counting(int.__or__)
    __xor__ = __rxor__ = _counting(int.__xor__)
    del _counting


def test_only_the_requested_cone_is_computed():
    c = parse_netlist("""
        input x0
        input x1
        input x2
        and a x0 x1
        or  d a a      # the same operand twice
        not u x2       # dead
        and v u x0     # dead
        not n d        # requested, no output reads it
        and e d x2
        output e
    """)
    masks = [_Counted(m) for m in input_masks(3)]
    full = _Counted(full_mask(3))
    # the cone of e, n and the input x1 is a, d, n, e; u and v are dead
    for wires, computed in ((("e", "n", "x1"), 4), (None, 6)):
        _Counted.ops = 0
        got = evaluate_masks(c, masks, full, wires)
        assert _Counted.ops == computed
        assert got == evaluate_masks(c, input_masks(3), full_mask(3), wires)


def test_unknown_wire_is_named():
    c = parse_netlist("input x\nnot g x\noutput g\n")
    with pytest.raises(ValueError, match="'ghost'"):
        evaluate_masks(c, input_masks(1), full_mask(1), ("g", "ghost"))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verifiers_hold_only_live_wires():
    # A 3,000-gate AND/OR chain over 16 inputs, with an unread side gate at
    # each link: holding every wire's 2**16-bit mask would take tens of MB,
    # while only a handful of them are live at once.
    n = 16
    lines = [f"input x{i}" for i in range(n)]
    prev = "x0"
    for i in range(1500):
        x = f"x{(i + 1) % n}"
        args = f"{prev} {x}" if i % 4 < 2 else f"{x} {prev}"
        lines += [f"{('and', 'or')[i % 2]} g{i} {args}", f"or h{i} {args}"]
        prev = f"g{i}"
    c = parse_netlist("\n".join(lines) + f"\noutput {prev}\n")
    m = dual_rail_transform(c)
    report, peak = _peak_bytes(lambda: exhaustive_equiv(c, m, FLATTENED))
    assert report is None
    assert peak < 2_000_000, peak
    report, peak = _peak_bytes(lambda: check_semantic_monotone(c))
    assert report is None
    assert peak < 2_000_000, peak
