"""Bit-parallel evaluation of a chosen set of wires, what it holds, and
the block-by-block sweeps built on it."""

import random
import tracemalloc

import pytest

from railcirc import (EQUIVALENCE, FLATTENED, INPUT, MONOTONICITY, RAIL, RAW,
                      CounterexampleReport, bitsim, check_semantic_monotone,
                      dual_rail_transform, emit_netlist, exhaustive_equiv,
                      flatten_bits, parse_netlist, rail_map,
                      validate_rail_complement)
from railcirc.bitsim import (Cone, assignment_of_index, evaluate_masks,
                             full_mask, input_masks, rail_masks)

from helpers import gate_lines, random_circuit, random_monotone_circuit


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


def test_wrong_mask_count_is_refused():
    c = parse_netlist("input x\ninput y\nand g x y\noutput g\n")
    with pytest.raises(ValueError,
                       match="^3 input masks supplied, circuit has 2 inputs$"):
        evaluate_masks(c, input_masks(3), full_mask(3))


def _traced_under(limit: int, fn):
    """fn's result, once its traced allocations peaked under limit bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak
    return result


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
    assert _traced_under(2_000_000, lambda: exhaustive_equiv(c, m, FLATTENED)) is None
    assert _traced_under(2_000_000, lambda: check_semantic_monotone(c)) is None
    # 20 inputs and 1,000 ANDs of input pairs, all live until an OR chain
    # reads them: at full width they would hold 128 MB of 2**20-bit masks,
    # but a sweep holds one block of them, within its 1 MiB budget.
    n = 20
    xs = [f"x{i}" for i in range(n)]
    lines = [f"input {x}" for x in xs]
    lines += [f"and a{t} x{t % n} x{(7 * t + 3) % n}" for t in range(1000)]
    lines += ["or o0 a0 a1"] + [f"or o{t} o{t - 1} a{t + 1}" for t in range(1, 999)]
    text = "\n".join(lines) + "\noutput o998\n"
    c = parse_netlist(text)
    last = parse_netlist(_flip(text, "o998", xs, 1))
    assert _traced_under(2_000_000, lambda: exhaustive_equiv(c, c, RAW)) is None
    report = _traced_under(2_000_000, lambda: exhaustive_equiv(c, last, RAW))
    assert report.witness == ((1,) * n,)


_SIXTEEN = "".join(f"input x{i}\n" for i in range(16))


@pytest.mark.parametrize("text, bound", [
    (_SIXTEEN + "and g x0 x1\n" + "output g\n" * 2000, 3_000_000),
    (_SIXTEEN + "".join(f"and g{t} x{t % 16} x{(7 * t + 3) % 16}\n" for t in range(1000))
     + "".join(f"output g{t}\n" for t in range(1000)), 2_300_000),
], ids=["one output listed 2000 times", "1000 distinct outputs"])
def test_the_monotone_check_joins_one_budget_of_distinct_outputs(text, bound):
    # At 16 inputs an output's joined mask is 8 KB: joining every output
    # line at once would hold about 17 MB.  The 1000 distinct masks take
    # about 2 MB, joined in place: a second list of them would pass 2.3 MB.
    c = parse_netlist(text)
    assert _traced_under(bound, lambda: check_semantic_monotone(c)) is None


def test_peak_counts_the_masks_alive_at_once():
    # A gate's mask is held from its own step to its last reader's step, a
    # requested wire's to the end; the caller holds every input's mask.
    rng = random.Random(5)
    for _ in range(150):
        c = random_circuit(rng, max_inputs=8, max_gates=40)
        wires = tuple(rng.choices(c.names, k=rng.randint(1, 4))) + c.outputs
        end = len(c.names)
        held_to = {c.names.index(w): end for w in wires}
        for pos in range(end - 1, -1, -1):
            if pos in held_to:
                for a in (c.first[pos], c.second[pos]):
                    if a >= 0:
                        held_to.setdefault(a, pos)
        gates = [p for p in held_to if c.kinds[p] != INPUT]
        most = max((sum(p <= t <= held_to[p] for p in gates) for t in gates),
                   default=0)
        assert Cone(c, wires).peak == most + len(c.inputs)


def _flip(text: str, wire: str, inputs, bit: int) -> str:
    """Netlist ``text`` with ``wire`` negated on the one assignment where
    every wire in ``inputs`` is ``bit``: the first (0) or the last (1)."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[1:2] == [wire])
    kind, _, *args = lines[at].split()
    ok = f"{wire}_ok"
    new = [" ".join([kind, ok, *args])]
    terms = list(inputs)
    if not bit:
        new += [f"not {wire}_n{i} {x}" for i, x in enumerate(inputs)]
        terms = [f"{wire}_n{i}" for i in range(len(inputs))]
    hit = terms[0]
    for i, t in enumerate(terms[1:]):
        new.append(f"and {wire}_h{i} {hit} {t}")
        hit = f"{wire}_h{i}"
    new += [f"not {wire}_a {ok}", f"not {wire}_b {hit}",
            f"and {wire}_c {ok} {wire}_b", f"and {wire}_d {wire}_a {hit}",
            f"or {wire} {wire}_c {wire}_d"]
    lines[at:at + 1] = new
    return "\n".join(lines) + "\n"


def _sources(rng, count: int, make=random_circuit) -> list[str]:
    """Netlists of random circuits with 7 to 10 inputs."""
    out = []
    while len(out) < count:
        c = make(rng, max_inputs=10, max_gates=40)
        if len(c.inputs) >= 7:
            out.append(emit_netlist(c))
    return out


def _full_width(c, masks, n: int, wires) -> list[int]:
    """The masks of ``wires`` from one evaluate_masks call over all 2**n
    assignments."""
    vals = evaluate_masks(c, masks, full_mask(n), wires)
    return [vals[w] for w in wires]


def _equiv_reference(b, m, mode):
    n = len(b.inputs)
    masks = input_masks(n)
    bouts = _full_width(b, masks, n, b.outputs)
    mouts = _full_width(m, masks if mode == RAW else rail_masks(masks, full_mask(n)),
                        n, m.outputs)
    for i in range(1 << n):
        want = tuple((x >> i) & 1 for x in bouts)
        got = tuple((y >> i) & 1 for y in mouts)
        if want != got:
            return CounterexampleReport(EQUIVALENCE, (assignment_of_index(i, n),),
                                        want, got)
    return None


def _monotone_reference(c):
    n = len(c.inputs)
    outs = _full_width(c, input_masks(n), n, c.outputs)
    for u in range(1 << n):
        for j in range(n):
            v = u | 1 << (n - 1 - j)
            for ov in outs:
                if (ov >> u) & 1 > (ov >> v) & 1:
                    return CounterexampleReport(
                        MONOTONICITY,
                        (assignment_of_index(u, n), assignment_of_index(v, n)),
                        (1, 1), (1, 0))
    return None


def _rail_reference(b, m):
    n = len(b.inputs)
    pairs = list(rail_map(b).values())
    vals = _full_width(m, rail_masks(input_masks(n), full_mask(n)), n,
                       [w for pair in pairs for w in pair])
    for (z, _), zero, one in zip(pairs, vals[::2], vals[1::2]):
        for i in range(1 << n):
            if (zero >> i) & 1 == (one >> i) & 1:
                x = "".join(map(str, assignment_of_index(i, n)))
                return CounterexampleReport(
                    RAIL, (tuple(map(int, flatten_bits(x))),),
                    (1 - ((one >> i) & 1),), ((zero >> i) & 1,), z)
    return None


def _interpreter_calls(monkeypatch) -> list:
    """The circuit of every Cone.evaluate call from now on, in call order."""
    calls = []
    evaluate = Cone.evaluate

    def counted(cone, masks, full):
        calls.append(cone.circuit)
        return evaluate(cone, masks, full)

    monkeypatch.setattr(Cone, "evaluate", counted)
    return calls


def test_blocked_sweeps_match_one_full_width_sweep(monkeypatch):
    """Every block width from 64 assignments up to all 2**n gives the
    report one full-width evaluation gives, with mismatches planted on
    the first and the last assignment and rail faults in two pairs."""
    calls = _interpreter_calls(monkeypatch)
    rng = random.Random(11)
    for text, mono in zip(_sources(rng, 6), _sources(rng, 6, random_monotone_circuit)):
        # head is read by no gate and comes before tail in rail_map order
        out = text.split()[-1]
        text = (gate_lines(parse_netlist(text)) + f"and head x0 x1\n"
                f"and tail {out} x1\noutput tail\noutput head\n")
        b = parse_netlist(text)
        n = len(b.inputs)
        xs = list(b.inputs)
        ones = [f"{x}__1" for x in xs]
        flat = emit_netlist(dual_rail_transform(b))
        monotone = parse_netlist(mono)
        low = (0,) * len(monotone.inputs)
        # (check, reference, arguments, the reference's witness or None;
        # ... where the random circuit decides)
        cases = [(exhaustive_equiv, _equiv_reference, (b, b, RAW), None),
                 (exhaustive_equiv, _equiv_reference, (b, parse_netlist(flat), FLATTENED),
                  None),
                 (check_semantic_monotone, _monotone_reference, (b,), ...),
                 (check_semantic_monotone, _monotone_reference, (monotone,), None),
                 # raising the first input drops the planted output: the
                 # pair of assignments straddles two blocks
                 (check_semantic_monotone, _monotone_reference,
                  (parse_netlist(mono + "not planted x0\noutput planted\n"),),
                  (low, (1,) + low[1:])),
                 # a violating output listed twice after the clean ones:
                 # small budgets split the outputs across sweeps
                 (check_semantic_monotone, _monotone_reference,
                  (parse_netlist(mono + "not planted x1\n"
                                 "output planted\noutput planted\n"),),
                  (low, (0, 1) + low[2:])),
                 (validate_rail_complement, _rail_reference, (b, parse_netlist(flat)),
                  None)]
        for bit in (0, 1):
            witness = ((bit,) * n,)
            cases += [
                (exhaustive_equiv, _equiv_reference,
                 (b, parse_netlist(_flip(text, "tail", xs, bit)), RAW), witness),
                (exhaustive_equiv, _equiv_reference,
                 (b, parse_netlist(_flip(flat, "tail__1", ones, bit)), FLATTENED),
                 witness),
                (validate_rail_complement, _rail_reference,
                 (b, parse_netlist(_flip(flat, "tail__0", ones, bit))),
                 ((1 - bit, bit) * n,))]
        # head fails on the last assignment only, tail on the first only:
        # the report names head, the first failing pair in rail_map order
        both = _flip(_flip(flat, "head__0", ones, 1), "tail__0", ones, 0)
        cases.append((validate_rail_complement, _rail_reference,
                      (b, parse_netlist(both)), ((0, 1) * n,)))
        widths = set()
        for check, reference, args, witness in cases:
            want = reference(*args)
            if witness is not ...:
                assert (want and want.witness) == witness
            for budget in (1 << e for e in range(18)):
                monkeypatch.setattr(bitsim, "_BLOCK_BYTES", budget)
                calls.clear()
                assert check(*args) == want
                if check is validate_rail_complement:
                    widths.add(len(calls))
        assert widths == {1 << (n - k) for k in range(6, n + 1)}


def test_a_first_assignment_mismatch_evaluates_one_block_per_circuit(monkeypatch):
    calls = _interpreter_calls(monkeypatch)
    monkeypatch.setattr(bitsim, "_BLOCK_BYTES", 1)  # 64-assignment blocks
    text, = _sources(random.Random(12), 1)
    b = parse_netlist(text)
    n = len(b.inputs)
    for bit, blocks in ((0, 1), (1, 1 << (n - 6))):
        m = parse_netlist(_flip(text, b.outputs[0], b.inputs, bit))
        calls.clear()
        assert exhaustive_equiv(b, m, RAW).witness == ((bit,) * n,)
        assert [c is b for c in calls] == [True, False] * blocks
