"""Machine-to-circuit compilation: grid layout, agreement, invariants, size."""

import random

import pytest

from railcirc import (ACCEPT, BLANK, FLATTENED, NOT, CellAlphabet, GateCapError,
                      TIMEOUT, compile_tm, compile_tm_flattened,
                      config_cells, evaluate, exhaustive_equiv,
                      initial_configuration, parse_tm, run, stats, step,
                      tableau_trace, wire_values)
from railcirc.bitsim import evaluate_masks, full_mask, input_masks
from railcirc.tableau import SIZE_COEFF

from helpers import fixture_text, one_hot_report


def _machines():
    return [parse_tm(fixture_text("contains_one.tm")),
            parse_tm(fixture_text("parity.tm"))]


def _words(n):
    if n == 0:
        return [""]
    return [format(v, f"0{n}b") for v in range(1 << n)]


def test_cell_alphabet_order():
    tm = parse_tm(fixture_text("contains_one.tm"))
    ab = CellAlphabet.from_machine(tm)
    assert ab.entries[:3] == ("0", "1", BLANK)
    assert ab.entries[3:6] == (("q0", "0"), ("q0", "1"), ("q0", BLANK))
    assert len(ab) == 3 + 3 * 3
    assert ab.index_of(("qa", "1")) == 3 + 3 + 1


def test_wire_naming_contract():
    # c_{row}_{col}_{k}, k indexing the cell alphabet, over a (t+1)^2 grid
    tm = parse_tm(fixture_text("contains_one.tm"))
    ab = CellAlphabet.from_machine(tm)
    c = compile_tm(tm, 2, 4)
    assert ab.index_of(("q0", "0")) == 3 and ab.index_of("1") == 1
    assert "c_0_0_3" in c and "c_4_2_1" in c
    # the head starts on cell 0 in state q0, reading the first input bit
    assert wire_values(c, [0, 1])["c_0_0_3"] == 1
    assert wire_values(c, [1, 0])["c_0_0_3"] == 0
    assert "c_5_0_0" not in c and "c_0_5_0" not in c


def test_dimension_validation():
    tm = parse_tm(fixture_text("contains_one.tm"))
    with pytest.raises(ValueError, match="at least 1"):
        compile_tm(tm, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        compile_tm(tm, -1, 4)
    with pytest.raises(ValueError, match="does not fit"):
        compile_tm(tm, 5, 3)


def test_not_gates_are_exactly_the_input_complements():
    tm = parse_tm(fixture_text("parity.tm"))
    for n in (0, 1, 3):
        c = compile_tm(tm, n, max(1, 2 * n))
        nots = [g for g in c.gates if g.op == NOT]
        assert len(nots) == n
        assert sorted(g.args[0] for g in nots) == sorted(c.inputs)
        assert c.inputs == tuple(f"x{i}" for i in range(n))
        assert c.outputs == ("accepted",)


def test_row_zero_encodes_initial_configuration():
    tm = parse_tm(fixture_text("contains_one.tm"))
    grid = tableau_trace(tm, "01", 3)
    conf = initial_configuration(tm, "01")
    assert grid[0] == config_cells(tm, conf, 4)
    assert grid[0] == [("q0", "0"), "1", BLANK, BLANK]


def test_trace_rows_match_simulator_configurations():
    for tm in _machines():
        for word in ("", "1", "0", "011", "000"):
            t = 2 * len(word) + 4
            grid = tableau_trace(tm, word, t)
            conf = initial_configuration(tm, word)
            for r in range(t + 1):
                assert grid[r] == config_cells(tm, conf, t + 1), (word, r)
                if conf.state not in (tm.accept, tm.reject):
                    conf = step(tm, conf)
                # else: halted rows repeat verbatim, which the grid
                # comparison above keeps checking row after row


def test_circuit_agrees_with_simulator_pointwise():
    tm = parse_tm(fixture_text("contains_one.tm"))
    c = compile_tm(tm, 3, 5)
    for word in _words(3):
        verdict, _ = run(tm, word, 5)
        assert evaluate(c, [int(ch) for ch in word]) == \
            [1 if verdict == ACCEPT else 0]


def test_timeout_reads_as_zero():
    tm = parse_tm(fixture_text("contains_one.tm"))
    # accepting "0001" needs 4 steps; a 3-step budget times out
    assert run(tm, "0001", 3)[0] == TIMEOUT
    c = compile_tm(tm, 4, 3)
    assert evaluate(c, [0, 0, 0, 1]) == [0]
    c = compile_tm(tm, 4, 4)
    assert evaluate(c, [0, 0, 0, 1]) == [1]


def test_halting_is_absorbing_in_the_grid():
    tm = parse_tm(fixture_text("contains_one.tm"))
    grid = tableau_trace(tm, "1", 4)
    accept_rows = [r for r, row in enumerate(grid)
                   if any(isinstance(cell, tuple) and cell[0] == tm.accept
                          for cell in row)]
    assert accept_rows == [1, 2, 3, 4]
    assert grid[1] == grid[2] == grid[3] == grid[4]


def test_head_movement_in_trace():
    # parity backs up one cell before accepting
    tm = parse_tm(fixture_text("parity.tm"))
    assert run(tm, "1", 4)[0] == ACCEPT
    grid = tableau_trace(tm, "1", 4)
    heads = [next(c for c, cell in enumerate(row) if isinstance(cell, tuple))
             for row in grid]
    assert heads == [0, 1, 0, 1, 1]
    c = compile_tm(tm, 1, 4)
    assert evaluate(c, [1]) == [1]
    assert evaluate(c, [0]) == [0]


def test_left_wall_in_circuit_matches_simulator():
    # a left move at cell 0 keeps the head in place; the rewritten symbol
    # is then re-read, so this machine accepts "0" on its second step
    text = ("states: q0 qa qr\nalphabet: 0 1 _\nstart: q0\naccept: qa\n"
            "reject: qr\ndelta: q0 0 -> q0 1 L\ndelta: q0 1 -> qa 1 R\n"
            "delta: q0 _ -> qr _ L\n")
    tm = parse_tm(text)
    for word in _words(1) + _words(2):
        t = 2 * len(word) + 2
        verdict, _ = run(tm, word, t)
        c = compile_tm(tm, len(word), t)
        assert evaluate(c, [int(ch) for ch in word]) == \
            [1 if verdict == ACCEPT else 0], word
    grid = tableau_trace(tm, "0", 2)
    assert grid[0][0] == ("q0", "0")
    assert grid[1][0] == ("q0", "1")  # wrote 1, stayed put at the wall
    assert grid[2][0] == "1" and grid[2][1] == ("qa", BLANK)


def test_one_hot_on_every_boolean_input():
    for tm in _machines():
        for n, t in ((0, 2), (1, 3), (3, 6)):
            report = one_hot_report(compile_tm(tm, n, t), tm, t)
            assert report is None, report.to_line()


def _random_machine(rng):
    """A machine with 1-3 working states and a random total transition table."""
    work = [f"q{i}" for i in range(rng.randint(1, 3))]
    states = work + ["qa", "qr"]
    alphabet = ["0", "1", BLANK] + ["y"] * rng.randint(0, 1)
    lines = [f"states: {' '.join(states)}", f"alphabet: {' '.join(alphabet)}",
             "start: q0", "accept: qa", "reject: qr"]
    for q in work:
        for s in alphabet:
            lines.append(f"delta: {q} {s} -> {rng.choice(states)} "
                         f"{rng.choice(alphabet)} {rng.choice('LR')}")
    return parse_tm("\n".join(lines) + "\n")


def test_invariants_on_generated_machines():
    rng = random.Random(5)
    for _ in range(40):
        tm = _random_machine(rng)
        n = rng.randint(0, 4)
        t = rng.randint(max(1, n - 1), 7)
        raw = compile_tm(tm, n, t)
        where = (tm.delta, n, t)
        accepted = evaluate_masks(raw, input_masks(n), full_mask(n),
                                  raw.outputs)["accepted"]
        assert accepted == sum(1 << i for i, word in enumerate(_words(n))
                               if run(tm, word, t)[0] == ACCEPT), where
        assert stats(raw).not_count == n, where
        report = one_hot_report(raw, tm, t)
        assert report is None, (where, report.to_line())
        report = exhaustive_equiv(raw, compile_tm_flattened(tm, n, t), FLATTENED)
        assert report is None, (where, report.to_line())


def test_empty_input_circuit():
    for tm in _machines():
        for t in (1, 4):
            c = compile_tm(tm, 0, t)
            assert c.inputs == ()
            verdict, _ = run(tm, "", t)
            assert evaluate(c, []) == [1 if verdict == ACCEPT else 0]


def test_flattened_compile_is_monotone_and_agrees():
    tm = parse_tm(fixture_text("parity.tm"))
    b = compile_tm(tm, 2, 6)
    m = compile_tm_flattened(tm, 2, 6)
    assert all(g.op != NOT for g in m.gates)
    assert m.inputs == ("x0__0", "x0__1", "x1__0", "x1__1")
    sb, sm = stats(b), stats(m)
    assert (sb.and_count, sb.or_count, sb.const_count) == \
        (sm.and_count, sm.or_count, sm.const_count)
    # valid rail assignments only: complement rail = full ^ identity rail
    full = full_mask(2)
    masks = input_masks(2)
    rail_masks = [full ^ masks[0], masks[0], full ^ masks[1], masks[1]]
    bvals = evaluate_masks(b, masks, full)
    mvals = evaluate_masks(m, rail_masks, full)
    assert bvals["accepted"] == mvals["accepted"]
    report = one_hot_report(m, tm, 6, masks=rail_masks, full=full)
    assert report is None, report.to_line()


def test_gate_cap_enforced():
    tm = parse_tm(fixture_text("contains_one.tm"))
    with pytest.raises(GateCapError):
        compile_tm(tm, 2, 8, gate_cap=500)
    # the cap is on the total, not the grid bound
    big = compile_tm(tm, 2, 8)
    assert len(big.gates) <= 10_000_000


def test_size_bound_and_growth():
    tm = parse_tm(fixture_text("contains_one.tm"))
    na = len(CellAlphabet.from_machine(tm))
    totals = {}
    for t in (4, 8, 16, 32):
        s = stats(compile_tm(tm, 2, t))
        totals[t] = s.total_gates
        assert s.total_gates <= SIZE_COEFF * (t + 1) * (t + 1) * na ** 3
    # quadratic growth: frozen from measurement, constant 160 leaves headroom
    for t, total in totals.items():
        assert total <= 160 * t * t
    # and it really does grow: 4x the budget is well under 16x the gates
    assert totals[32] < 16 * totals[8]
    assert totals[32] > 4 * totals[8]
