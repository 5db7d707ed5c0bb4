"""Netlist parsing, emission, evaluation and the structural analyses."""

import random

import pytest

from railcirc import (AND, CONST, INPUT, NOT, OR, Circuit, Gate, NetlistError, emit_dot,
                      emit_netlist, evaluate, is_structurally_monotone,
                      parse_netlist, stats, wire_values)
from railcirc.verify import check_semantic_monotone

from helpers import random_circuit, random_monotone_circuit

EQ_CLASSIFIER_SRC = """\
input x0
input x1
input y0
input y1
and a x0 y0
and b x1 y1
or  e a b
output e
"""

EQ_CLASSIFIER_CANONICAL = EQ_CLASSIFIER_SRC.replace("or  e", "or e")


def test_parse_identity():
    c = parse_netlist("input x\noutput x\n")
    assert c.inputs == ("x",)
    assert c.outputs == ("x",)
    assert len(c.gates) == 1 and c.gates[0].op == INPUT


def test_parse_classifier_structure():
    c = parse_netlist(EQ_CLASSIFIER_SRC)
    assert [g.op for g in c.gates] == [INPUT] * 4 + [AND, AND, OR]
    assert [g.name for g in c.gates] == ["x0", "x1", "y0", "y1", "a", "b", "e"]
    assert c.gates[4].args == ("x0", "y0")


def test_parse_tolerates_comments_blanks_and_spacing():
    text = "# header\n\ninput   x \t\n  not n x  # trailing\noutput n\n"
    c = parse_netlist(text)
    assert [g.name for g in c.gates] == ["x", "n"]
    assert c.outputs == ("n",)


def test_parse_undefined_reference_reports_line():
    with pytest.raises(NetlistError, match="line 2.*'y'"):
        parse_netlist("input x\nand g x y\noutput g\n")


def test_parse_rejects_duplicates_and_bad_tokens():
    with pytest.raises(NetlistError, match="duplicate"):
        parse_netlist("input x\ninput x\n")
    with pytest.raises(NetlistError, match="unknown keyword"):
        parse_netlist("nand g x y\n")
    with pytest.raises(NetlistError, match="token"):
        parse_netlist("input x\nand g x\n")
    with pytest.raises(NetlistError, match="const value"):
        parse_netlist("const k 2\n")
    with pytest.raises(NetlistError, match="invalid name"):
        parse_netlist("input 9x\n")
    with pytest.raises(NetlistError, match="undefined"):
        parse_netlist("output ghost\n")


def test_forward_reference_is_rejected():
    with pytest.raises(NetlistError, match="line 1"):
        parse_netlist("not n x\ninput x\noutput n\n")


# Four lines of comments and blanks, so the first netlist line is line 5.
_PREAMBLE = "# bad netlist\n\n   # indented comment\n\t\n"


@pytest.mark.parametrize("body, line, match", [
    ("input x\n# again\ninput x\n", 7, "duplicate name 'x'"),
    ("input x\nnot 9x x\n", 6, "invalid name '9x'"),
    ("input x\nand g x y\noutput g\n", 6, "undefined reference 'y'"),
    ("not n x\ninput x\noutput n\n", 5, "undefined reference 'x'"),
    ("input x\noutput n\nnot n x\n", 6, "undefined reference 'n'"),
    ("input x\n\noutput x\noutput ghost\n", 8, "undefined reference 'ghost'"),
    ("input x\nnand g x x\n", 6, "unknown keyword 'nand'"),
    ("input x\nconst k 2\n", 6, "const value must be 0 or 1"),
    ("input x\nand g x\n", 6, "token"),
], ids=["duplicate", "invalid-name", "undefined-operand", "forward-reference",
        "output-before-definition", "output-never-defined", "unknown-keyword",
        "bad-const", "token-count"])
def test_parse_errors_name_their_line(body, line, match):
    with pytest.raises(NetlistError, match=match) as info:
        parse_netlist(_PREAMBLE + body)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("gates, pos, match", [
    ((Gate("x", INPUT), Gate("g", "nand", ("x", "x"))), 1, "unknown gate kind 'nand'"),
    ((Gate("x", INPUT, value=1),), 0, "must not carry a value"),
    ((Gate("x", INPUT), Gate("k", CONST)), 1, "must carry 0 or 1"),
    ((Gate("x", INPUT), Gate("k", CONST, value=2)), 1, "must carry 0 or 1"),
    ((Gate("x", INPUT), Gate("x y", INPUT)), 1, "invalid name"),
    ((Gate("x", INPUT), Gate("é", INPUT)), 1, "invalid name"),
    ((Gate(5, INPUT),), 0, "invalid name 5"),
    ((Gate("x", INPUT), Gate("g", ["and"], ("x", "x"))), 1, "unknown gate kind"),
])
def test_circuit_rejects_bad_gates(gates, pos, match):
    with pytest.raises(NetlistError, match=match) as info:
        Circuit(gates, ())
    assert info.value.gate == pos and info.value.line is None


def test_circuit_turns_list_args_into_a_tuple():
    c = Circuit((Gate("x", INPUT), Gate("g", NOT, ["x"])), ["g"])
    assert c.gates[1].args == ("x",)
    assert c.outputs == ("g",)
    hash(c.gates[1])
    assert hash(c) == hash(Circuit((Gate("x", INPUT), Gate("g", NOT, ("x",))), ("g",)))


def test_parse_accepts_tabs_and_crlf():
    text = "input\tx\ninput\ty  # tabbed\nand\tg\tx\ty\nnot n g\noutput\tn\n"
    c = parse_netlist(text)
    assert parse_netlist(text.replace("\n", "\r\n")) == c
    assert emit_netlist(c) == "input x\ninput y\nand g x y\nnot n g\noutput n\n"


def test_emit_identity_and_classifier():
    assert emit_netlist(parse_netlist("input x\noutput x\n")) == "input x\noutput x\n"
    assert emit_netlist(parse_netlist(EQ_CLASSIFIER_SRC)) == EQ_CLASSIFIER_CANONICAL


def test_emit_const_line():
    c = parse_netlist("const one 1\noutput one\n")
    assert emit_netlist(c) == "const one 1\noutput one\n"


def test_round_trip_on_random_circuits():
    rng = random.Random(101)
    for _ in range(50):
        c = random_circuit(rng, max_inputs=6, max_gates=30)
        again = parse_netlist(emit_netlist(c))
        assert again == c
        # canonical text is a fixed point
        assert emit_netlist(again) == emit_netlist(c)


def test_evaluate_classifier():
    c = parse_netlist(EQ_CLASSIFIER_SRC)
    # valid rail encodings of (x, y): equal pairs accept
    assert evaluate(c, [1, 0, 1, 0]) == [1]
    assert evaluate(c, [0, 1, 0, 1]) == [1]
    assert evaluate(c, [1, 0, 0, 1]) == [0]
    assert evaluate(c, [0, 1, 1, 0]) == [0]


def test_evaluate_gate_semantics():
    c = parse_netlist("input a\ninput b\nand g a b\nor h a b\nnot m a\n"
                      "output g\noutput h\noutput m\n")
    assert evaluate(c, [0, 0]) == [0, 0, 1]
    assert evaluate(c, [0, 1]) == [0, 1, 1]
    assert evaluate(c, [1, 1]) == [1, 1, 0]


def test_evaluate_checks_assignment():
    c = parse_netlist(EQ_CLASSIFIER_SRC)
    with pytest.raises(ValueError, match="4 inputs"):
        evaluate(c, [1, 0])
    with pytest.raises(ValueError, match="not a bit"):
        evaluate(c, [1, 0, 2, 0])


def test_evaluate_is_deterministic():
    rng = random.Random(5)
    c = random_circuit(rng, max_inputs=5, max_gates=25)
    a = [rng.randint(0, 1) for _ in c.inputs]
    assert evaluate(c, a) == evaluate(c, a)


def test_structural_monotonicity():
    assert is_structurally_monotone(parse_netlist(EQ_CLASSIFIER_SRC))
    assert not is_structurally_monotone(parse_netlist("input x\nnot n x\noutput n\n"))
    assert is_structurally_monotone(parse_netlist("input x\noutput x\n"))


def test_structural_implies_semantic_monotone():
    # exhaustive over every assignment, NOT-free circuits up to 12 inputs
    rng = random.Random(77)
    for _ in range(30):
        c = random_monotone_circuit(rng, max_inputs=12, max_gates=40)
        assert check_semantic_monotone(c) is None


def test_stats_classifier():
    s = stats(parse_netlist(EQ_CLASSIFIER_SRC))
    assert (s.and_count, s.or_count, s.not_count) == (2, 1, 0)
    assert s.input_count == 4 and s.output_count == 1
    assert s.depth == 2
    assert s.total_gates == 7


def test_stats_depth_chain():
    lines = ["input x"]
    prev = "x"
    for i in range(5):
        lines.append(f"not n{i} {prev}")
        prev = f"n{i}"
    lines.append(f"output {prev}")
    s = stats(parse_netlist("\n".join(lines) + "\n"))
    assert s.depth == 5 and s.not_count == 5
    assert stats(parse_netlist("input x\noutput x\n")).depth == 0


def test_emit_dot_counts():
    dot = emit_dot(parse_netlist("input x\noutput x\n"))
    assert dot.count(" [") == 1 and dot.count(" -> ") == 0
    dot = emit_dot(parse_netlist(EQ_CLASSIFIER_SRC))
    assert dot.count(" [") == 7 and dot.count(" -> ") == 6
    assert dot.startswith("digraph circuit {")
    # deterministic output
    assert dot == emit_dot(parse_netlist(EQ_CLASSIFIER_SRC))


def test_emit_dot_node_per_gate():
    rng = random.Random(3)
    c = random_circuit(rng, max_inputs=5, max_gates=20)
    dot = emit_dot(c)
    assert dot.count(" [") == len(c.gates)
    assert dot.count(" -> ") == sum(len(g.args) for g in c.gates)


def _reachable_from(c: Circuit, source: str) -> set:
    reach = {source}
    for g in c.gates:
        if any(a in reach for a in g.args):
            reach.add(g.name)
    return reach


def test_locality_of_input_flips():
    # flipping one input only moves wires on a path from that input
    rng = random.Random(11)
    for _ in range(20):
        c = random_circuit(rng, max_inputs=6, max_gates=30)
        base = [rng.randint(0, 1) for _ in c.inputs]
        before = wire_values(c, base)
        i = rng.randrange(len(c.inputs))
        flipped = list(base)
        flipped[i] ^= 1
        after = wire_values(c, flipped)
        reach = _reachable_from(c, c.inputs[i])
        for name in before:
            if before[name] != after[name]:
                assert name in reach


def test_circuit_constructor_validates():
    with pytest.raises(NetlistError, match="duplicate"):
        Circuit((Gate("x", INPUT), Gate("x", INPUT)), ())
    with pytest.raises(NetlistError, match="operand"):
        Circuit((Gate("x", INPUT), Gate("g", AND, ("x",))), ())
    with pytest.raises(NetlistError, match="undefined"):
        Circuit((Gate("g", NOT, ("x",)),), ())
