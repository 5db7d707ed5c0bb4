"""Census, truth tables, equivalence and monotonicity verification."""

import random

import pytest

from railcirc import (FLATTENED, RAW, TruthTable, check_semantic_monotone,
                      dual_rail_transform, enumerate_monotone_functions,
                      eq_truth_table, evaluate, exhaustive_equiv,
                      is_monotone_table, parse_netlist, refute_eq_monotone,
                      size_report, truth_table, verify)

from helpers import fixture_text, random_circuit

EQ_RAW = ("input x\ninput y\nand a x y\nnot nx x\nnot ny y\nand b nx ny\n"
          "or e a b\noutput e\n")


def test_truth_table_of_and():
    tt = truth_table(parse_netlist("input x\ninput y\nand g x y\noutput g\n"))
    assert tt.arity == 2
    # assignment order 00, 01, 10, 11 (first input most significant)
    assert tt.bits == (0, 0, 0, 1)


def test_truth_table_of_eq():
    assert truth_table(parse_netlist(EQ_RAW)).bits == (1, 0, 0, 1)
    assert truth_table(parse_netlist(EQ_RAW)) == eq_truth_table(1)


def test_truth_table_guards():
    with pytest.raises(ValueError, match="single-output"):
        truth_table(parse_netlist("input x\noutput x\noutput x\n"))
    with pytest.raises(ValueError, match="arity 5"):
        TruthTable(6, tuple([0] * 64))
    with pytest.raises(ValueError, match="entries"):
        TruthTable(2, (0, 1))


def test_truth_table_rejects_arity_before_evaluating(monkeypatch):
    def refuse(*args):
        raise AssertionError("masks built before the arity check")
    monkeypatch.setattr(verify, "input_masks", refuse)
    monkeypatch.setattr(verify, "evaluate_masks", refuse)
    wide = "".join(f"input x{i}\n" for i in range(6)) + "output x5\n"
    with pytest.raises(ValueError, match="capped at arity 5"):
        truth_table(parse_netlist(wide))


def test_monotone_check_refuses_17_inputs_before_evaluating(monkeypatch):
    def refuse(*args):
        raise AssertionError("masks built before the width check")
    monkeypatch.setattr(verify, "input_masks", refuse)
    monkeypatch.setattr(verify, "evaluate_masks", refuse)
    wide = "".join(f"input x{i}\n" for i in range(17)) + "output x16\n"
    with pytest.raises(ValueError, match="^exhaustive sweep caps at 16 inputs$"):
        check_semantic_monotone(parse_netlist(wide))


def test_is_monotone_table():
    assert is_monotone_table(TruthTable(2, (0, 0, 0, 1)))  # and
    assert is_monotone_table(TruthTable(2, (0, 1, 1, 1)))  # or
    assert is_monotone_table(TruthTable(2, (0, 0, 0, 0)))  # const
    assert not is_monotone_table(TruthTable(2, (1, 0, 0, 1)))  # eq
    assert not is_monotone_table(TruthTable(2, (0, 1, 1, 0)))  # xor
    assert not is_monotone_table(TruthTable(1, (1, 0)))  # not


def test_census_counts():
    # 3, 6, 20, 168: the monotone function counts for 1..4 inputs
    assert [len(enumerate_monotone_functions(n)) for n in (1, 2, 3, 4)] == \
        [3, 6, 20, 168]


def test_census_two_inputs_exact():
    tables = enumerate_monotone_functions(2)
    assert [t.bits for t in tables] == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1),
        (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1),
    ]


def test_census_members_are_monotone_and_complete():
    for n in (1, 2, 3):
        tables = enumerate_monotone_functions(n)
        assert len(set(tables)) == len(tables)
        for t in tables:
            assert t.arity == n
            assert is_monotone_table(t)
        # nothing monotone is missing: re-derive by brute force
        size = 1 << n
        brute = sum(
            1 for code in range(1 << size)
            if is_monotone_table(
                TruthTable(n, tuple((code >> i) & 1 for i in range(size)))))
        assert brute == len(tables)


def _filtered_census(n):
    """The census by filtering all 2**(2**n) codes for single-bit raises,
    which covers the pointwise order by transitivity."""
    size = 1 << n
    raises = [(i, i | (1 << w))
              for i in range(size) for w in range(n) if not i & (1 << w)]
    found = []
    for code in range(1 << size):
        if all((code >> lo) & 1 <= (code >> hi) & 1 for lo, hi in raises):
            found.append(TruthTable(n, tuple((code >> i) & 1 for i in range(size))))
    return found


def test_census_matches_the_filter_in_order():
    for n in (1, 2, 3, 4):
        assert enumerate_monotone_functions(n) == _filtered_census(n)


def test_census_arity_guard():
    with pytest.raises(ValueError):
        enumerate_monotone_functions(0)
    with pytest.raises(ValueError):
        enumerate_monotone_functions(5)


def test_eq_is_not_in_any_census():
    # the census cross-check of the refutation's certified chain
    for pairs in (1, 2):
        eq = eq_truth_table(pairs)
        assert eq not in enumerate_monotone_functions(2 * pairs)
        assert not is_monotone_table(eq)


def test_eq_truth_table_two_pairs():
    tt = eq_truth_table(2)
    assert tt.arity == 4
    for i in range(16):
        x, y = i >> 2, i & 3
        assert tt.bits[i] == (1 if x == y else 0)
    for pairs in (0, 3):
        with pytest.raises(ValueError, match="support 1 or 2 bit pairs"):
            eq_truth_table(pairs)


def test_refute_eq_monotone():
    report = refute_eq_monotone(1)
    assert report.kind == "MONOTONICITY"
    assert report.witness == ((0, 0), (0, 1), (1, 1))
    assert report.expected == (1, 1, 1)
    assert report.observed == (1, 0, 1)
    assert report.to_line() == (
        "kind=MONOTONICITY witness=00<=01<=11 expected=1,1,1 observed=1,0,1")


def test_refute_eq_monotone_two_bits():
    report = refute_eq_monotone(2)
    assert report.observed == (1, 0, 1)
    # the chain really is increasing
    for lo, hi in zip(report.witness, report.witness[1:]):
        assert all(a <= b for a, b in zip(lo, hi))
    with pytest.raises(ValueError):
        refute_eq_monotone(3)


def test_exhaustive_equiv_raw_self():
    c = parse_netlist(EQ_RAW)
    assert exhaustive_equiv(c, c, RAW) is None


def test_exhaustive_equiv_detects_difference():
    a = parse_netlist("input x\ninput y\nand g x y\noutput g\n")
    o = parse_netlist("input x\ninput y\nor g x y\noutput g\n")
    report = exhaustive_equiv(a, o, RAW)
    assert report is not None
    assert report.kind == "EQUIVALENCE"
    # lowest differing assignment: and=0, or=1 on (0, 1)
    assert report.witness == ((0, 1),)
    assert (report.expected, report.observed) == ((0,), (1,))


def test_exhaustive_equiv_flattened_mode():
    b = parse_netlist(EQ_RAW)
    assert exhaustive_equiv(b, dual_rail_transform(b), FLATTENED) is None
    # feeding the raw circuit in flattened mode is an input-count error
    with pytest.raises(ValueError, match="inputs"):
        exhaustive_equiv(b, b, FLATTENED)


def test_exhaustive_equiv_guards():
    c = parse_netlist(EQ_RAW)
    with pytest.raises(ValueError, match="mode"):
        exhaustive_equiv(c, c, "HALF")
    two_out = parse_netlist("input x\noutput x\noutput x\n")
    with pytest.raises(ValueError, match="output count"):
        exhaustive_equiv(c, two_out)
    lines = [f"input x{i}" for i in range(21)] + ["output x0"]
    wide = parse_netlist("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="caps at"):
        exhaustive_equiv(wide, wide, RAW)


def test_check_semantic_monotone_accepts_and_or():
    c = parse_netlist("input x\ninput y\nand a x y\nor g a y\noutput g\n")
    assert check_semantic_monotone(c) is None


def test_check_semantic_monotone_rejects_eq():
    report = check_semantic_monotone(parse_netlist(EQ_RAW))
    assert report is not None
    assert report.kind == "MONOTONICITY"
    assert report.witness == ((0, 0), (1, 0))
    assert (report.expected, report.observed) == ((1, 1), (1, 0))


def test_check_semantic_monotone_witness_is_real():
    # the reported pair must reproduce the violation on re-evaluation
    rng = random.Random(13)
    found = 0
    while found < 10:
        c = random_circuit(rng, max_inputs=6, max_gates=25)
        report = check_semantic_monotone(c)
        if report is None:
            continue
        found += 1
        lo, hi = report.witness
        assert all(a <= b for a, b in zip(lo, hi))
        assert evaluate(c, list(lo))[0] == 1
        assert evaluate(c, list(hi))[0] == 0


def test_semantically_monotone_despite_not_gates():
    # double negation: not-not-x computes x, monotone without being NOT-free
    c = parse_netlist("input x\nnot a x\nnot b a\noutput b\n")
    assert check_semantic_monotone(c) is None


def test_size_report():
    b = parse_netlist(EQ_RAW)
    m = dual_rail_transform(b)
    r = size_report(b, m)
    assert r.source_gates == 7 and r.not_count_source == 2
    assert r.not_count_target == 0
    assert r.target_gates == len(m.gates)
    assert r.ratio == len(m.gates) / 7
    assert r.ratio <= 2.0


def test_size_report_of_a_source_with_no_gates():
    empty = parse_netlist("")
    assert size_report(empty, empty).ratio == 1.0
    r = size_report(empty, parse_netlist("const k 1\noutput k\n"))
    assert (r.source_gates, r.target_gates) == (0, 1)
    assert r.ratio == float("inf")
