"""Bit-parallel evaluation of a chosen set of wires, and what it holds."""

import random
import tracemalloc

import pytest

from railcirc import (AND, CONST, FLATTENED, INPUT, NOT, OR, Circuit, Gate,
                      check_semantic_monotone, dual_rail_transform,
                      exhaustive_equiv)
from railcirc.bitsim import evaluate_masks, full_mask, input_masks

from helpers import random_circuit


def _both(c, wires):
    """evaluate_masks over ``wires``, and the all-wire dict cut down to them."""
    n = len(c.inputs)
    masks, full = input_masks(n), full_mask(n)
    every = evaluate_masks(c, masks, full)
    return evaluate_masks(c, masks, full, wires), {w: every[w] for w in wires}


def test_requested_wires_match_the_all_wire_dict():
    c = Circuit((
        Gate("x0", INPUT), Gate("x1", INPUT), Gate("x2", INPUT),
        Gate("k", CONST, value=1),
        Gate("a", AND, ("x0", "x1")),
        Gate("d", OR, ("a", "a")),        # the same operand twice
        Gate("u", NOT, ("x2",)),          # nothing reads it
        Gate("v", AND, ("u", "k")),       # nor this
        Gate("e", AND, ("d", "x2")),
        Gate("f", OR, ("x2", "x2")),      # x2's last reader reads it twice
    ), ())
    # a is read by d later on, x0 is an input, e is asked for twice
    wires = ("a", "x0", "e", "e", "f", "k")
    got, want = _both(c, wires)
    assert got == want
    assert list(got) == ["a", "x0", "e", "f", "k"]


def test_requested_wires_on_random_circuits():
    rng = random.Random(3)
    for _ in range(150):
        c = random_circuit(rng, max_inputs=8, max_gates=40)
        names = [g.name for g in c.gates]
        wires = tuple(rng.choices(names, k=rng.randint(1, 5))) + c.outputs
        got, want = _both(c, wires)
        assert got == want


def test_unknown_wire_is_named():
    c = Circuit((Gate("x", INPUT), Gate("g", NOT, ("x",))), ("g",))
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
    gates = [Gate(f"x{i}", INPUT) for i in range(n)]
    prev = "x0"
    for i in range(1500):
        x = f"x{(i + 1) % n}"
        args = (prev, x) if i % 4 < 2 else (x, prev)
        gates.append(Gate(f"g{i}", (AND, OR)[i % 2], args))
        gates.append(Gate(f"h{i}", OR, args))
        prev = f"g{i}"
    c = Circuit(tuple(gates), (prev,))
    m = dual_rail_transform(c)
    report, peak = _peak_bytes(lambda: exhaustive_equiv(c, m, FLATTENED))
    assert report is None
    assert peak < 2_000_000, peak
    report, peak = _peak_bytes(lambda: check_semantic_monotone(c))
    assert report is None
    assert peak < 2_000_000, peak
