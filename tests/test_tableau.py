"""Machine-to-circuit compilation: grid layout, agreement, invariants, size."""

import hashlib
import random
import re
import tracemalloc
from itertools import count, product

import pytest

from railcirc import (ACCEPT, AND, BLANK, CONST, FLATTENED, INPUT, NOT, OR,
                      GateCapError, TIMEOUT, cell_alphabet, compile_tm,
                      compile_tm_flattened, config_cells, emit_netlist,
                      evaluate, exhaustive_equiv, initial_configuration,
                      parse_netlist, parse_tm, run, stats, step, tableau_trace,
                      wire_values)
from railcirc import circuit, tableau
from railcirc.bitsim import evaluate_masks, full_mask, input_masks
from railcirc.cli import main
from railcirc.tableau import DEFAULT_GATE_CAP, SIZE_COEFF, compile_netlist

from helpers import FIXTURES, fixture_text, gate_lines, one_hot_report


def _machines():
    return [parse_tm(fixture_text("contains_one.tm")),
            parse_tm(fixture_text("parity.tm"))]


def _words(n):
    if n == 0:
        return [""]
    return [format(v, f"0{n}b") for v in range(1 << n)]


def test_cell_alphabet_order():
    tm = parse_tm(fixture_text("contains_one.tm"))
    cells = cell_alphabet(tm)
    assert cells[:3] == ("0", "1", BLANK)
    assert cells[3:6] == (("q0", "0"), ("q0", "1"), ("q0", BLANK))
    assert len(cells) == 3 + 3 * 3
    assert cells.index(("qa", "1")) == 3 + 3 + 1


def test_wire_naming_contract():
    # c_{row}_{col}_{k}, k indexing the cell alphabet, over a (t+1)^2 grid
    tm = parse_tm(fixture_text("contains_one.tm"))
    cells = cell_alphabet(tm)
    c = compile_tm(tm, 2, 4)
    assert cells.index(("q0", "0")) == 3 and cells.index("1") == 1
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
        nots = [c.names[a] for k, a in zip(c.kinds, c.first) if k == NOT]
        assert len(nots) == n
        assert sorted(nots) == sorted(c.inputs)
        assert c.inputs == tuple(f"x{i}" for i in range(n))
        assert c.outputs == ("accepted",)


def test_row_zero_encodes_initial_configuration():
    tm = parse_tm(fixture_text("contains_one.tm"))
    grid = tableau_trace(compile_tm(tm, 2, 3), tm, "01", 3)
    conf = initial_configuration(tm, "01")
    assert grid[0] == config_cells(tm, conf, 4)
    assert grid[0] == [("q0", "0"), "1", BLANK, BLANK]


def test_trace_rows_match_simulator_configurations():
    for tm in _machines():
        for word in ("", "1", "0", "011", "000"):
            t = 2 * len(word) + 4
            grid = tableau_trace(compile_tm(tm, len(word), t), tm, word, t)
            conf = initial_configuration(tm, word)
            for r in range(t + 1):
                assert grid[r] == config_cells(tm, conf, t + 1), (word, r)
                if conf.state not in (tm.accept, tm.reject):
                    conf = step(tm, conf)
                # else: halted rows repeat verbatim, which the grid
                # comparison above keeps checking row after row


@pytest.mark.parametrize("x", ["\uff11", "a", "0\u0661"],
                         ids=["fullwidth-one", "letter", "arabic-indic-one"])
def test_trace_rejects_a_non_bit_as_run_does(x):
    # int() reads a fullwidth or Arabic-Indic digit as a bit; run() does not
    tm = parse_tm(fixture_text("parity.tm"))
    c = compile_tm(tm, len(x), 2)
    message = f"^input symbol {x[-1]!r} is not a bit$"
    with pytest.raises(ValueError, match=message):
        run(tm, x, 2)
    with pytest.raises(ValueError, match=message):
        tableau_trace(c, tm, x, 2)


def test_trace_names_a_cell_that_is_not_one_hot():
    # cell (0, 2) lies past the input: all consts, the blank alone set
    tm = parse_tm(fixture_text("parity.tm"))
    text = emit_netlist(compile_tm(tm, 1, 2))
    assert "const c_0_2_0 0\n" in text
    broken = parse_netlist(text.replace("const c_0_2_0 0\n", "const c_0_2_0 1\n"))
    with pytest.raises(RuntimeError,
                       match=r"^cell \(0, 2\) is not one-hot: 2 wires set$"):
        tableau_trace(broken, tm, "1", 2)


@pytest.mark.parametrize("t", [2, 5], ids=["below-budget", "above-budget"])
def test_trace_rejects_a_budget_the_circuit_was_not_compiled_for(t):
    tm = parse_tm(fixture_text("parity.tm"))
    c = compile_tm(tm, 2, 3)
    with pytest.raises(ValueError,
                       match=f"^circuit is not compiled for a step budget of {t}$"):
        tableau_trace(c, tm, "01", t)


@pytest.mark.parametrize("compiled, decoded", [("contains_one.tm", "parity.tm"),
                                               ("parity.tm", "contains_one.tm")])
def test_trace_rejects_a_machine_the_circuit_was_not_compiled_for(compiled, decoded):
    # parity's cells take 18 symbols, contains_one's 12
    c = compile_tm(parse_tm(fixture_text(compiled)), 2, 3)
    tm = parse_tm(fixture_text(decoded))
    na = len(cell_alphabet(tm))
    with pytest.raises(ValueError,
                       match=f"^circuit is not compiled for {na} cell symbols$"):
        tableau_trace(c, tm, "01", 3)


@pytest.mark.parametrize("compiled, decoded", [("qa", "qr"), ("qr", "qa")])
def test_trace_rejects_a_machine_with_the_same_cell_alphabet(compiled, decoded):
    # the grid names carry only the alphabet's size; the decoded rows are
    # checked against the machine's own steps
    text = fixture_text("contains_one.tm")
    assert "q0 1 -> qa 1 R" in text

    def machine(q):
        return parse_tm(text.replace("q0 1 -> qa 1 R", f"q0 1 -> {q} 1 R"))

    c = compile_tm(machine(compiled), 1, 2)
    message = (f"cell (1, 1) holds ('{compiled}', '_') in the circuit, "
               f"('{decoded}', '_') in the machine")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tableau_trace(c, machine(decoded), "1", 2)


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
    grid = tableau_trace(compile_tm(tm, 1, 4), tm, "1", 4)
    accept_rows = [r for r, row in enumerate(grid)
                   if any(isinstance(cell, tuple) and cell[0] == tm.accept
                          for cell in row)]
    assert accept_rows == [1, 2, 3, 4]
    assert grid[1] == grid[2] == grid[3] == grid[4]


def test_head_movement_in_trace():
    # parity backs up one cell before accepting
    tm = parse_tm(fixture_text("parity.tm"))
    assert run(tm, "1", 4)[0] == ACCEPT
    c = compile_tm(tm, 1, 4)
    grid = tableau_trace(c, tm, "1", 4)
    heads = [next(c for c, cell in enumerate(row) if isinstance(cell, tuple))
             for row in grid]
    assert heads == [0, 1, 0, 1, 1]
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
    grid = tableau_trace(compile_tm(tm, 1, 2), tm, "0", 2)
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
    return parse_tm(_random_machine_text(rng))


def _random_machine_text(rng):
    """The description file of ``_random_machine(rng)``."""
    work = [f"q{i}" for i in range(rng.randint(1, 3))]
    states = work + ["qa", "qr"]
    alphabet = ["0", "1", BLANK] + ["y"] * rng.randint(0, 1)
    lines = [f"states: {' '.join(states)}", f"alphabet: {' '.join(alphabet)}",
             "start: q0", "accept: qa", "reject: qr"]
    for q in work:
        for s in alphabet:
            lines.append(f"delta: {q} {s} -> {rng.choice(states)} "
                         f"{rng.choice(alphabet)} {rng.choice('LR')}")
    return "\n".join(lines) + "\n"


def test_invariants_on_generated_machines():
    rng = random.Random(5)
    for _ in range(40):
        tm = _random_machine(rng)
        n = rng.randint(0, 4)
        t = rng.randint(max(1, n - 1), 7)
        raw = compile_tm(tm, n, t)
        where = (tm.delta, n, t)
        na = len(cell_alphabet(tm))
        assert len(raw.names) <= SIZE_COEFF * (t + 1) * (t + 1) * na, where
        # every row of the grid, on every input, is the simulator's
        # configuration after that many steps (frozen once it halts)
        for word in _words(n):
            grid = tableau_trace(raw, tm, word, t)
            for r, row in enumerate(grid):
                assert row == config_cells(tm, run(tm, word, r)[1], t + 1), \
                    (where, word, r)
        accepted = evaluate_masks(raw, input_masks(n), full_mask(n),
                                  raw.outputs)["accepted"]
        assert accepted == sum(1 << i for i, word in enumerate(_words(n))
                               if run(tm, word, t)[0] == ACCEPT), where
        assert stats(raw).not_count == n, where
        report = one_hot_report(raw, tm, t)
        assert report is None, (where, report.to_line())
        flat = compile_tm_flattened(tm, n, t)
        report = exhaustive_equiv(raw, flat, FLATTENED)
        assert report is None, (where, report.to_line())
        # outside the light cone, c > r, every wire copies row 0: a const
        # where row 0 has one, else an OR buffer of the wire the row-0
        # buffer reads
        for c_ in (raw, flat):
            rows = map(str.split, gate_lines(c_).splitlines())
            gate = {row[1]: row for row in rows}
            for r in range(1, t + 1):
                for col in range(r + 1, t + 1):
                    for k in range(na):
                        g, g0 = gate[f"c_{r}_{col}_{k}"], gate[f"c_0_{col}_{k}"]
                        if g0[0] == CONST:
                            assert g == [CONST, g[1], g0[2]], (where, g)
                        else:
                            assert g == [OR, g[1], g0[2], g0[2]], (where, g)


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
    assert NOT not in m.kinds
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
    assert len(big.names) <= 10_000_000


@pytest.mark.parametrize("flattened", [False, True], ids=["raw", "flattened"])
def test_gate_cap_is_exact(flattened):
    build = compile_tm_flattened if flattened else compile_tm
    for tm in _machines():
        for n, t in ((0, 1), (1, 1), (2, 1), (2, 3), (3, 6), (4, 12)):
            exact = len(build(tm, n, t).names)
            assert len(build(tm, n, t, gate_cap=exact).names) == exact
            with pytest.raises(GateCapError, match=f"^{exact} gates exceed"):
                build(tm, n, t, gate_cap=exact - 1)


def test_gate_cap_rejects_before_building():
    # 728,031 gates, counted by the tag pass before row 0 is built.  The
    # cap is the 727,218 wires of the grid alone: the largest cap the grid
    # check admits and below the exact count, so a changed count fails the
    # match at once instead of building the circuit
    tm = parse_tm(fixture_text("parity.tm"))
    exact, cap = 728_031, 201 * 201 * len(cell_alphabet(tm))
    assert cap == 727_218 < exact
    tracemalloc.start()
    try:
        with pytest.raises(GateCapError, match=f"^{exact} gates exceed"):
            compile_tm(tm, 6, 200, gate_cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


class _Written(Exception):
    """Raised by a stub writer: the compile got past both cap checks."""


def _refuse_to_write(*args):
    raise _Written


@pytest.mark.parametrize("name, n, windows", [
    ("parity.tm", 6, 28), ("contains_one.tm", 6, 30),
    ("parity.tm", 2, 22), ("contains_one.tm", 2, 19)])
def test_one_rule_folds_each_window_once_at_every_budget(monkeypatch, name, n,
                                                         windows):
    # fold is memoized on its window alone, so a rule reused across budgets
    # folds no window twice, and longer budgets meet no new window
    tm = parse_tm(fixture_text(name))
    rule = tableau._rule(tm)
    monkeypatch.setattr(tableau, "_rule", lambda tm: rule)
    monkeypatch.setattr(tableau, "_write", _refuse_to_write)
    for t in (24, 64, 128, 200):
        with pytest.raises(_Written):
            compile_netlist(tm, n, t, False, DEFAULT_GATE_CAP)
        assert rule.fold.cache_info().currsize == windows, t


def test_tag_pass_counts_without_writing(monkeypatch):
    # the exact count of test_gate_cap_rejects_before_building, from the tag
    # pass alone: the cap is checked against it before the writer runs
    tm = parse_tm(fixture_text("parity.tm"))
    n, t, na = 6, 200, len(cell_alphabet(tm))
    passes = []
    tag_pass = tableau._tag_pass
    monkeypatch.setattr(tableau, "_tag_pass",
                        lambda *args: passes.append(tag_pass(*args)) or passes[-1])
    monkeypatch.setattr(tableau, "_write", _refuse_to_write)
    with pytest.raises(_Written):
        compile_netlist(tm, n, t, False, 728_031)
    folds, accept, gates = passes[0]
    assert len(folds) == t and all(len(row) == t + 1 for row, _ in folds)
    assert gates + 2 * n + (t + 1) * na == 728_031
    with pytest.raises(GateCapError, match="^728031 gates exceed"):
        compile_netlist(tm, n, t, False, 728_030)


def test_or_tree_merges_the_two_shallowest_first():
    lines = []
    leaves = [(3, "a", "a"), (0, "b", "b"), (1, "c", "c")]
    assert tableau._or_tree(lines, count(), leaves, "out") == (4, "out", "out")
    assert lines == ["or t0 b c", "or out t0 a"]


def test_or_tree_breaks_depth_ties_by_key():
    # by key, not by wire: wires a < b would merge a first
    lines = []
    leaves = [(0, "k2", "a"), (0, "k1", "b"), (0, "k3", "c")]
    assert tableau._or_tree(lines, count(), leaves, "out") == (2, "out", "out")
    assert lines == ["or t0 b a", "or out c t0"]


def test_or_tree_buffers_one_leaf_and_returns_it():
    lines = []
    leaf = (5, "k", "w")
    assert tableau._or_tree(lines, count(), [leaf], "out") is leaf
    assert lines == ["or out w w"]


def test_or_tree_depth_is_one_past_the_deepest_leaf():
    lines = []
    leaves = [(2, "a", "a"), (7, "b", "b")]
    assert tableau._or_tree(lines, count(), leaves, "out") == (8, "out", "out")
    assert lines == ["or out a b"]


def test_or_trees_name_their_nodes_from_one_counter():
    lines, nodes = [], count(4)
    tableau._or_tree(lines, nodes, [(0, k, k) for k in "abcd"], "x")
    tableau._or_tree(lines, nodes, [(0, k, k) for k in "efg"], "y")
    assert lines == ["or t4 a b", "or t5 c d", "or x t4 t5",
                     "or t6 e f", "or y g t6"]
    assert next(nodes) == 7


def test_size_bound_and_growth():
    tm = parse_tm(fixture_text("contains_one.tm"))
    na = len(cell_alphabet(tm))
    totals = {}
    for t in (4, 8, 16, 32):
        s = stats(compile_tm(tm, 2, t))
        totals[t] = s.total_gates
        assert s.total_gates <= SIZE_COEFF * (t + 1) * (t + 1) * na
    # quadratic growth: frozen from measurement, constant 160 leaves headroom
    for t, total in totals.items():
        assert total <= 160 * t * t
    # and it really does grow: 4x the budget is well under 16x the gates
    assert totals[32] < 16 * totals[8]
    assert totals[32] > 4 * totals[8]


def test_factored_compile_is_small_and_shallow():
    # keep/arrive factoring, OR trees that merge their two shallowest
    # operands first and the fold of the input-independent wires, which
    # knows that a cell with no head holds a plain symbol, give 11,359
    # gates of depth 15 (14 flattened) at t=24 and 76,319 of depth 15 (14)
    # at t=64.  Without the fold they were 23,848 / 147 and 164,668 / 388;
    # building every cell, with balanced trees in leaf order, took 36,344
    # gates of depth 264 at t=24
    tm = parse_tm(fixture_text("parity.tm"))
    for t, most, deepest in ((24, 11_400, 15), (64, 76_400, 15)):
        for compile_ in (compile_tm, compile_tm_flattened):
            s = stats(compile_(tm, 6, t))
            assert s.total_gates <= most, (t, compile_.__name__)
            assert s.depth <= deepest, (t, compile_.__name__)


def test_depth_per_row():
    # Once the machine has halted on every input a row adds no level: its
    # wires are consts, or buffers whose readers read the buffered wire.
    # While the head reads the input, contains_one adds one level per row
    # (34 at n=31, t=32; 66 at n=63, t=64).  Unfolded, a row added about 6
    # (193 from t=32 to t=64 at n=2).
    tm = parse_tm(fixture_text("contains_one.tm"))
    depth = {t: stats(compile_tm(tm, 2, t)).depth for t in (32, 64)}
    assert depth[64] == depth[32] <= 5, depth
    wide = {t: stats(compile_tm(tm, t - 1, t)).depth for t in (32, 64)}
    assert wide[64] - wide[32] <= 32, wide


@pytest.mark.parametrize("name, n, per_row", [("parity.tm", 6, 9),
                                              ("contains_one.tm", 2, 17)])
def test_logic_per_row_stops_growing(name, n, per_row):
    # A cell the head never reaches folds to consts and buffers, so a row
    # adds the same AND/OR logic at every budget; were the input-dependent
    # tag to spread right through the blanks, the added logic would grow
    # with t.
    tm = parse_tm(fixture_text(name))

    def logic(t):
        c = compile_tm(tm, n, t)
        return sum(k == AND or k == OR and a != b
                   for k, a, b in zip(c.kinds, c.first, c.second))

    assert [logic(t + 1) - logic(t) for t in (16, 32, 64)] == [per_row] * 3


def _assert_folded(c, where):
    """No AND or OR reads a const or an OR(x, x) buffer; a const or a
    buffer is a c_r_c_k wire or the output; every other gate but an input
    or an input NOT is read by some gate."""
    kinds, first, second = c.kinds, c.first, c.second
    read = set(first) | set(second)
    for pos, name in enumerate(c.names):
        kind, a, b = kinds[pos], first[pos], second[pos]
        contract = name == "accepted" or re.fullmatch(r"c_\d+_\d+_\d+", name)
        if kind in (AND, OR):
            assert CONST not in (kinds[a], kinds[b]), (where, name)
            for op in (a, b):
                assert kinds[op] != OR or first[op] != second[op], \
                    (where, name, c.names[op])
        if kind == CONST or kind == OR and a == b:
            assert contract, (where, name)
        elif kind not in (INPUT, NOT) and not contract:
            assert pos in read, (where, name)


def test_fold_is_complete_on_generated_machines():
    rng = random.Random(2026)
    for _ in range(40):
        tm = _random_machine(rng)
        n = rng.randint(0, 5)
        t = rng.randint(max(1, n - 1), 12)
        where = (tm.delta, n, t)
        raw, flat = compile_tm(tm, n, t), compile_tm_flattened(tm, n, t)
        for flattened, c in ((False, raw), (True, flat)):
            assert _parsed_line_by_line(tm, n, t, flattened) == c, where
        _assert_folded(raw, where)
        _assert_folded(flat, where)
        sr, sf = stats(raw), stats(flat)
        assert (sr.and_count, sr.or_count, sr.const_count) == \
            (sf.and_count, sf.or_count, sf.const_count), where
        # the tag pass counts the folded gates exactly
        exact = len(raw.names)
        with pytest.raises(GateCapError, match=f"^{exact} gates exceed"):
            compile_tm(tm, n, t, gate_cap=exact - 1)


def test_fold_is_complete_on_the_fixtures():
    for name, n, t in NETLIST_DIGESTS:
        tm = parse_tm(fixture_text(name))
        where = (name, n, t)
        _assert_folded(compile_tm(tm, n, t), where)
        _assert_folded(compile_tm_flattened(tm, n, t), where)


def test_folding_only_removes_gates(monkeypatch):
    # Every window a compile meets costs no more than the unfolded cell, an
    # all-input-dependent window (its left third all const 0 at the wall),
    # and the unfolded cell plus its sym_ tree keeps the per-cell bound
    # 2S + 4P - A that the SIZE_COEFF comment derives, A being the number
    # of states some transition moves into.
    make_rule = tableau._rule
    monkeypatch.setattr(tableau, "_write", _refuse_to_write)
    rng = random.Random(2026)
    cases = [(tm, 6, 24) for tm in _machines()]
    for _ in range(40):
        tm = _random_machine(rng)
        n = rng.randint(0, 5)
        cases.append((tm, n, rng.randint(max(1, n - 1), 12)))
    for tm, n, t in cases:
        rule, met = make_rule(tm), set()
        recording = rule._replace(fold=lambda win: met.add(win) or rule.fold(win))
        monkeypatch.setattr(tableau, "_rule", lambda tm: recording)
        with pytest.raises(_Written):
            compile_netlist(tm, n, t, False, DEFAULT_GATE_CAP)
        na, s = rule.na, len(tm.alphabet)
        unfolded = bytes([tableau._X]) * 3 * na
        cost = [rule.fold(unfolded).cost,
                rule.fold(bytes(na) + unfolded[na:]).cost]
        where = (tm.delta, n, t)
        assert met, where
        for win in met:
            assert rule.fold(win).cost <= cost[not any(win[:na])], (where, win)
        p, a = len(tm.states) * s, len({q for q, _, _ in tm.delta.values()})
        assert max(cost) + s - 1 <= 2 * s + 4 * p - a, where


def test_raw_and_flattened_share_one_body():
    # Past the input layer the two texts are one: drop the raw input and
    # NOT lines and the flattened input lines, and name the raw rails as
    # the flattened ones.
    def body(text, rails):
        return [" ".join(rails.get(w, w) for w in line.split())
                for line in text.splitlines()
                if not line.startswith(("input ", "not "))]

    for seed in (5, 2026):
        rng = random.Random(seed)
        for _ in range(120):
            tm = _random_machine(rng)
            n = rng.randint(0, 5)
            t = rng.randint(max(1, n - 1), 9)
            rails = {f"x{i}{suffix}": f"x{i}__{bit}" for i in range(n)
                     for suffix, bit in (("", 1), ("_not", 0))}
            raw, flat = (compile_netlist(tm, n, t, flattened, DEFAULT_GATE_CAP)
                         for flattened in (False, True))
            assert body(raw, rails) == body(flat, {}), (seed, tm.delta, n, t)


def test_benchmark_tableau_figures():
    # the gates and depth the tableau workload of bench/run.py reports:
    # parity at n=6, t=24, raw plus flattened
    tm = parse_tm(fixture_text("parity.tm"))
    raw, flat = stats(compile_tm(tm, 6, 24)), stats(compile_tm_flattened(tm, 6, 24))
    assert raw.total_gates + flat.total_gates == 22_718
    assert max(raw.depth, flat.depth) == 15


# sha256 of emit_netlist(compile_tm(...)) and of compile_tm_flattened, per
# (fixture, n, t)
NETLIST_DIGESTS = {
    ("contains_one.tm", 6, 24): (
        "33ff575cd8ec92b75844f1f98c278dd1763992f17352be269940d83c1a27ec9d",
        "389138aeef2c0261ea154666c64dfa7ab0b4050c87daf26d27c1d7d652c89bc2"),
    ("contains_one.tm", 2, 8): (
        "1d458351dce05bf9eb18d5889444264643b7a94084f3e843b3bb91aec04fb971",
        "eb12225abbb91454a9153d09fe5761a7b51d45d9f6ec5e86ada317b7583a8714"),
    ("parity.tm", 6, 24): (
        "5e6de07e876212a64b0a30bea9e91548c12707f448567d0093b29d9c6b5bb08d",
        "1b07cf567fc75d733193998675ff1974fbd23e4422e1ac485c06d30978522f28"),
    ("parity.tm", 2, 8): (
        "06b2e8376b145ec371164f550bb44d5bc56c4ecdf7fe41979338985c07ae6464",
        "13f4783d4549ee7aba520d658e3b2208c7c89e731242517e10e5e9d66e07ba11"),
}


def test_netlists_match_recorded_digests():
    """The compiler's output, raw and flattened, is pinned byte for byte.

    A refactor of the tableau must leave wire names, gate order and gate
    count as they are.  A change that alters the construction on purpose
    records new digests here and says why in CHANGES.md.
    """
    for (name, n, t), digests in NETLIST_DIGESTS.items():
        tm = parse_tm(fixture_text(name))
        got = tuple(hashlib.sha256(emit_netlist(compile_(tm, n, t)).encode())
                    .hexdigest() for compile_ in (compile_tm, compile_tm_flattened))
        assert got == digests, (name, n, t)


def _parsed_line_by_line(tm, n, t, flattened):
    """The compile's netlist parsed with a tab after each const keyword, so
    that no const line is checked as part of a run."""
    text = compile_netlist(tm, n, t, flattened, DEFAULT_GATE_CAP)
    return parse_netlist(text.replace("const ", "const\t"))


def test_const_runs_parse_as_their_lines():
    for name, n, t in NETLIST_DIGESTS:
        tm = parse_tm(fixture_text(name))
        assert _parsed_line_by_line(tm, n, t, False) == compile_tm(tm, n, t)
        assert _parsed_line_by_line(tm, n, t, True) == compile_tm_flattened(tm, n, t)


def test_compiled_const_lines_are_checked_a_run_at_a_time(monkeypatch):
    # Only the lines outside the const runs reach the per-line check: at
    # parity n=6, t=24 that is 512 of the 11,360 lines.
    handed = []
    read_netlist = circuit.read_netlist

    def counting(lines, index, start=1):
        lines = list(lines)
        handed.extend(line for line in lines if line.strip())
        return read_netlist(lines, index, start)

    monkeypatch.setattr(circuit, "read_netlist", counting)
    c = compile_tm(parse_tm(fixture_text("parity.tm")), 6, 24)
    assert len(c.names) + len(c.outputs) == 11_360
    assert len(handed) == 512
    assert not any(line.startswith("const") for line in handed)


def _const_runs(text):
    """The number of const runs a parse of text takes, one _const_run each."""
    runs, pos = 0, 0
    while run := circuit._const_run(text, pos):
        runs, pos = runs + 1, run.end()
    return runs


def test_each_rows_const_lines_are_one_run():
    # Row r's const lines, const accepted among row t's, are consecutive
    # lines after row r's logic, so a parse takes at most t + 1 const runs.
    cases = [(parse_tm(fixture_text(name)), n, t)
             for name in ("contains_one.tm", "parity.tm")
             for n, t in ((6, 24), (2, 8), (6, 64))]
    rng = random.Random(2018)
    for _ in range(40):
        tm = _random_machine(rng)
        n = rng.randint(0, 5)
        cases.append((tm, n, rng.randint(max(1, n - 1), 12)))
    for (tm, n, t), flattened in product(cases, (False, True)):
        text = compile_netlist(tm, n, t, flattened, DEFAULT_GATE_CAP)
        consts, logic = {}, {}
        for i, line in enumerate(text.split("\n")):
            if line.startswith(("const ", "and c_", "or c_")):
                name = line.split()[1]
                r = t if name == "accepted" else int(name.split("_")[1])
                (consts if line[0] == "c" else logic).setdefault(r, []).append(i)
        first = [consts[r][0] for r in sorted(consts)]
        assert first == sorted(first), (tm.delta, n, t, flattened)
        for r, at in consts.items():
            where = (tm.delta, n, t, flattened, r)
            assert at == list(range(at[0], at[0] + len(at))), where
            assert max(logic.get(r, [-1])) < at[0] <= at[-1] < min(
                logic.get(r + 1, [len(text)])), where
        assert _const_runs(text) <= t + 1, (tm.delta, n, t, flattened)
    parity = parse_tm(fixture_text("parity.tm"))
    assert _const_runs(compile_netlist(parity, 6, 24, False, DEFAULT_GATE_CAP)) == 25


def test_a_parse_of_a_compile_peaks_near_200_bytes_per_gate():
    # parity at n=6, t=64: about 200 B per gate with one const run per row,
    # 280 with every const line in one block
    text = compile_netlist(parse_tm(fixture_text("parity.tm")), 6, 64, False,
                           DEFAULT_GATE_CAP)
    tracemalloc.start()
    try:
        c = parse_netlist(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 220 * len(c.names)


# sha256 over compile_netlist's raw, then flattened, text of each of 40
# generated machines, n and t drawn as in
# test_fold_is_complete_on_generated_machines.  Like NETLIST_DIGESTS it is
# re-recorded only by a change that alters the construction on purpose.
GENERATED_DIGEST = "facfc97e6c29cf54cd0cc4e73c02487258e25b2787a53e87019bd8342918d5d9"


def test_generated_netlists_match_recorded_digest():
    rng = random.Random(2018)
    digest = hashlib.sha256()
    dims = []
    for _ in range(40):
        tm = _random_machine(rng)
        n = rng.randint(0, 5)
        t = rng.randint(max(1, n - 1), 12)
        dims.append((n, t))
        for flattened in (False, True):
            text = compile_netlist(tm, n, t, flattened, DEFAULT_GATE_CAP)
            digest.update(text.encode())
    # the grid's edges are covered: a one-step budget, and an input that
    # reaches the last column
    assert any(t == 1 for _, t in dims) and any(n == t + 1 for n, t in dims)
    assert digest.hexdigest() == GENERATED_DIGEST


def test_cli_writes_the_recorded_bytes(tmp_path, capsys):
    """railcirc compile-tm writes its own text, not emit_netlist's, so its
    bytes are pinned too: on stdout and with --out, raw and flattened."""
    out = tmp_path / "c.net"
    for (name, n, t), digests in NETLIST_DIGESTS.items():
        for flags, digest in zip(([], ["--flattened"]), digests):
            argv = ["compile-tm", str(FIXTURES / name), "-n", str(n),
                    "-t", str(t), *flags]
            assert main(argv) == 0
            stdout = capsys.readouterr().out.encode()
            assert main(argv + ["--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            for got in (stdout, out.read_bytes()):
                assert hashlib.sha256(got).hexdigest() == digest, argv


def test_cli_text_is_the_library_circuit_on_generated_machines(tmp_path, capsys):
    rng = random.Random(15)
    path = tmp_path / "m.tm"
    for _ in range(30):
        text = _random_machine_text(rng)
        path.write_text(text)
        tm = parse_tm(text)
        n = rng.randint(0, 5)
        t = rng.randint(max(1, n - 1), 10)
        for flags, compile_ in (([], compile_tm),
                                (["--flattened"], compile_tm_flattened)):
            assert main(["compile-tm", str(path), "-n", str(n), "-t", str(t),
                         *flags]) == 0
            assert capsys.readouterr().out == \
                emit_netlist(compile_(tm, n, t)), (tm.delta, n, t, flags)
