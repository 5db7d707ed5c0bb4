"""Netlist parsing, emission, evaluation and the structural analyses."""

import random

import pytest

from railcirc import (AND, INPUT, OR, Circuit, NetlistError, build_eq_classifier,
                      compile_tm, compile_tm_flattened, dual_rail_transform, emit_dot,
                      emit_netlist, evaluate, is_structurally_monotone,
                      parse_netlist, parse_tm, stats, wire_values)
from railcirc.dualrail import dual_rail_netlist
from railcirc.verify import check_semantic_monotone

from helpers import (fixture_text, gate_lines, messy_netlist, random_circuit,
                     random_monotone_circuit)

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
    # the kind constants themselves, not a keyword token kept per gate
    assert all(g.op is op for g, op in zip(c.gates, [INPUT] * 4 + [AND, AND, OR]))
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
    ("input x\ninput é\n", 6, "invalid name 'é'"),
    ("input x\nand g x y\noutput g\n", 6, "undefined reference 'y'"),
    ("not n x\ninput x\noutput n\n", 5, "undefined reference 'x'"),
    ("input x\noutput n\nnot n x\n", 6, "undefined reference 'n'"),
    ("input x\n\noutput x\noutput ghost\n", 8, "undefined reference 'ghost'"),
    ("input x\nnand g x x\n", 6, "unknown keyword 'nand'"),
    ("input x\nconst k 2\n", 6, "const value must be 0 or 1"),
    ("input x\nand g x\n", 6, "token"),
    # the first faulty line in file order, whatever the kind of its fault
    ("input x\nand g x ghost\ninput y z\noutput g\n", 6, "undefined reference 'ghost'"),
    ("input x\noutput ghost\nand g x y\n", 6, "undefined reference 'ghost'"),
], ids=["duplicate", "invalid-name", "non-ascii-name", "undefined-operand",
        "forward-reference", "output-before-definition", "output-never-defined",
        "unknown-keyword", "bad-const", "token-count", "structural-above-token-count",
        "output-above-undefined-operand"])
def test_parse_errors_name_their_line(body, line, match):
    with pytest.raises(NetlistError, match=match) as info:
        parse_netlist(_PREAMBLE + body)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


def _defined_name(line):
    """The name a netlist line defines, or None."""
    tokens = line.split("#")[0].split()
    return tokens[1] if tokens and tokens[0] != "output" else None


def _fault_line(kind, rng, above, below):
    """A netlist line with one fault of ``kind``, given the names defined
    above it and below it, and the message it raises there."""
    a = rng.choice(above)
    if kind == "keyword":
        return f"nand fresh {a} {a}", "unknown keyword 'nand'"
    if kind == "token-count":
        return f"and fresh {a}", "and line takes 3 token(s) after the keyword, got 2"
    if kind == "const-value":
        return "const fresh 2", "const value must be 0 or 1, got '2'"
    if kind == "name":
        return f"not 9fresh {a}", "invalid name '9fresh'"
    if kind == "duplicate":
        return f"input {a}", f"duplicate name {a!r}"
    if kind == "undefined-operand":
        return f"or fresh {a} ghost", "undefined reference 'ghost' in gate 'fresh'"
    if kind == "early-output":
        b = rng.choice(below or ["ghost"])
        return f"output {b}", f"undefined reference {b!r}"
    return "input a__b", "gate name 'a__b' contains the reserved rail separator '__'"


_FAULT_KINDS = ("keyword", "token-count", "const-value", "name", "duplicate",
                "undefined-operand", "early-output", "reserved-separator")


def test_parse_and_flatten_report_the_same_first_fault():
    """On generated netlists with one fault of each kind at a random line,
    and often a second fault of any kind below it, parse_netlist and the
    streamed rewrite raise at the first faulty line with one message.  The
    reserved separator is a fault of the rewrite only."""
    rng = random.Random(1212)
    for _ in range(40):
        c = random_circuit(rng, max_inputs=5, max_gates=25)
        lines = messy_netlist(rng, c, early_outputs=rng.random() < 0.5).splitlines(True)
        defines = [_defined_name(line) for line in lines]
        first = 1 + next(i for i, d in enumerate(defines) if d)
        for kind in _FAULT_KINDS:
            at = rng.randint(first, len(lines))
            above = [d for d in defines[:at] if d]
            below = [d for d in defines[at:] if d]
            bad, message = _fault_line(kind, rng, above, below)
            faulty = lines[:at] + [bad + "\r\n"] + lines[at:]
            if rng.random() < 0.7:  # a second fault below the first
                later = rng.randint(at + 1, len(faulty))
                second, _ = _fault_line(rng.choice(_FAULT_KINDS), rng,
                                        [d for d in defines[:later - 1] if d],
                                        [d for d in defines[later - 1:] if d])
                faulty.insert(later, second + "\n")
            text = "".join(faulty)
            with pytest.raises(NetlistError) as flat:
                dual_rail_netlist(text.splitlines())
            assert (flat.value.line, str(flat.value)) == (at + 1, f"line {at + 1}: {message}")
            if kind != "reserved-separator":
                with pytest.raises(NetlistError) as parsed:
                    parse_netlist(text)
                assert (parsed.value.line, str(parsed.value)) == (flat.value.line,
                                                                   str(flat.value))


# Faulty gates, one netlist line each, so the gate at position pos is on line
# pos + 1.  Each id names the fault as the gate-list form of these rows did;
# in text, a value on an input, a const without one and a name with a space
# all give a line the wrong number of tokens.
@pytest.mark.parametrize("gates, pos, match", [
    pytest.param(("input x", "nand g x x"), 1, "unknown keyword 'nand'",
                 id="gates0-1-unknown gate kind 'nand'"),
    pytest.param(("input x 1",), 0, "input line takes 1 token",
                 id="gates1-0-must not carry a value"),
    pytest.param(("input x", "const k"), 1, "const line takes 2 token",
                 id="gates2-1-must carry 0 or 1"),
    pytest.param(("input x", "const k 2"), 1, "const value must be 0 or 1, got '2'",
                 id="gates3-1-must carry 0 or 1"),
    pytest.param(("input x", "input x y"), 1, "input line takes 1 token",
                 id="gates4-1-invalid name"),
])
def test_circuit_rejects_bad_gates(gates, pos, match):
    with pytest.raises(NetlistError, match=match) as info:
        parse_netlist("\n".join(gates) + "\n")
    assert info.value.line == pos + 1


def test_parse_accepts_tabs_and_crlf():
    text = "input\tx\ninput\ty  # tabbed\nand\tg\tx\ty\nnot n g\noutput\tn\n"
    c = parse_netlist(text)
    assert parse_netlist(text.replace("\n", "\r\n")) == c
    assert hash(parse_netlist(text.replace("\n", "\r\n"))) == hash(c)
    # a lone CR ends a line, as universal newlines read it
    assert parse_netlist(text.replace("\n", "\r")) == c
    assert parse_netlist("input x\rinput y\n").inputs == ("x", "y")
    # form feed is whitespace, not a line end
    assert parse_netlist(text.replace("\t", "\f")) == c
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


def test_round_trip_through_generated_netlist_text():
    rng = random.Random(2718)
    for _ in range(60):
        b = random_circuit(rng, max_inputs=6, max_gates=30)
        c = parse_netlist(f"const k {rng.randint(0, 1)}\n{gate_lines(b)}"
                          f"output {b.outputs[0]}\noutput k\n")
        text = messy_netlist(rng, c)
        assert "\r\n" in text and "#" in text and "\t" in text
        assert emit_netlist(parse_netlist(text)) == emit_netlist(c)
        assert parse_netlist(emit_netlist(c)) == c


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
    dot = emit_dot(parse_netlist("const k 1\noutput k\n"))
    assert '  "k" [shape=diamond, label="k=1", peripheries=2];' in dot
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
    # Circuit(text) is the constructor parse_netlist calls: same checks
    with pytest.raises(NetlistError, match="line 2: duplicate"):
        Circuit("input x\ninput x\n")
    with pytest.raises(NetlistError, match="line 2: and line takes 3 token"):
        Circuit("input x\nand g x\n")
    with pytest.raises(NetlistError, match="line 1: undefined reference 'x'"):
        Circuit("not g x\n")
    assert Circuit(EQ_CLASSIFIER_SRC) == parse_netlist(EQ_CLASSIFIER_SRC)


def test_columns_and_gates_view():
    c = parse_netlist("input x\nconst k 1\nnot n x\nand g n k\noutput g\noutput x\n")
    assert c.names == ("x", "k", "n", "g")
    assert c.kinds == ("input", "const", "not", "and")
    assert (c.first, c.second) == ((-1, -1, 0, 2), (-1, -1, -1, 1))
    assert c.values == (None, 1, None, None)
    assert (c.inputs, c.outputs) == (("x",), ("g", "x"))
    assert len(c.gates) == 4
    assert list(c.gates) == [("x", INPUT, (), None), ("k", "const", (), 1),
                             ("n", "not", ("x",), None), ("g", AND, ("n", "k"), None)]
    assert c.gates[-1].args == ("n", "k")
    with pytest.raises(IndexError):
        c.gates[4]
    with pytest.raises(AttributeError):
        c.names = ()


def test_every_circuit_runs_the_checked_constructor_once(monkeypatch):
    """A wrapper on Circuit.__post_init__, the way the benchmark's spans
    wrap it, runs once per Circuit each builder returns."""
    built = []
    post_init = Circuit.__post_init__

    def counted(self, *args, **kwargs):
        built.append(self)
        return post_init(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "__post_init__", counted)
    tm = parse_tm(fixture_text("contains_one.tm"))
    b = parse_netlist(EQ_CLASSIFIER_SRC)
    for build in (lambda: parse_netlist("input x\nnot n x\noutput n\n"),
                  lambda: compile_tm(tm, 2, 4),
                  lambda: compile_tm_flattened(tm, 2, 4),
                  lambda: dual_rail_transform(b),
                  lambda: build_eq_classifier(1),
                  lambda: build_eq_classifier(3)):
        built.clear()
        c = build()
        assert len(built) == 1 and built[0] is c
