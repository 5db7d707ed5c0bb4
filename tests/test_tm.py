"""Machine description parsing and the reference simulator."""

import pytest

from railcirc import (ACCEPT, BLANK, REJECT, TIMEOUT, TMError,
                      initial_configuration, parse_tm, run, step)

from helpers import fixture_text


def test_parse_contains_one():
    tm = parse_tm(fixture_text("contains_one.tm"))
    assert tm.start == "q0" and tm.accept == "qa" and tm.reject == "qr"
    assert set(tm.alphabet) == {"0", "1", BLANK}
    assert tm.delta[("q0", "1")] == ("qa", "1", "R")


def test_parse_parity():
    tm = parse_tm(fixture_text("parity.tm"))
    assert tm.start == "qe"
    # total on every non-halting state
    for q in tm.states:
        if q in (tm.accept, tm.reject):
            continue
        for s in tm.alphabet:
            assert (q, s) in tm.delta


def test_parse_errors():
    base = fixture_text("contains_one.tm")
    with pytest.raises(TMError, match="duplicate transition"):
        parse_tm(base + "delta: q0 1 -> qa 1 R\n")
    with pytest.raises(TMError, match="unknown state"):
        parse_tm(base + "delta: qz 1 -> qa 1 R\n")
    with pytest.raises(TMError, match="halting"):
        parse_tm(base + "delta: qa 1 -> qa 1 R\n")
    with pytest.raises(TMError, match="missing alphabet"):
        parse_tm("states: q0 qa qr\nstart: q0\naccept: qa\nreject: qr\n")
    with pytest.raises(TMError, match="missing transition"):
        parse_tm("states: q0 qa qr\nalphabet: 0 1 _\nstart: q0\naccept: qa\n"
                 "reject: qr\ndelta: q0 0 -> qa 0 R\n")
    with pytest.raises(TMError, match="must differ"):
        parse_tm("states: q0 qa\nalphabet: 0 1 _\nstart: q0\naccept: qa\n"
                 "reject: qa\ndelta: q0 0 -> qa 0 R\n"
                 "delta: q0 1 -> qa 1 R\ndelta: q0 _ -> qa _ R\n")
    with pytest.raises(TMError, match="alphabet must contain"):
        parse_tm("states: q0 qa qr\nalphabet: 0 1\nstart: q0\naccept: qa\n"
                 "reject: qr\ndelta: q0 0 -> qa 0 R\ndelta: q0 1 -> qa 1 R\n")
    with pytest.raises(TMError, match="line 1.*direction"):
        parse_tm("delta: q0 0 -> qa 0 X\n" + base)
    with pytest.raises(TMError, match="'->'"):
        parse_tm(base.replace("-> qr", "qr"))


_CONTAINS_ONE = fixture_text("contains_one.tm")


@pytest.mark.parametrize("old, new, line, message", [
    ("", "q0 0 -> q0 0 R\n", 11, "expected 'key: value'"),
    ("states: q0 qa qr", "states:", 3, "empty state list"),
    ("states: q0 qa qr", "states: q0 qa q0", 3, "repeated state name"),
    ("alphabet: 0 1 _", "alphabet: 0 1 _ 1", 4, "repeated symbol"),
    ("accept: qa", "accept: qa qr", 6, "accept takes exactly one state"),
    ("", "delta: q0 0 -> q0 0\n", 11, "delta format is: q s -> q' s' (L|R)"),
    ("", "halt: qa\n", 11, "unknown directive 'halt'"),
    ("start: q0", "start: qz", None, "start state 'qz' not declared"),
    ("-> q0 0 R", "-> qz 0 R", 8, "unknown state 'qz'"),
    ("-> q0 0 R", "-> q0 2 R", 8, "unknown symbol in delta"),
], ids=["no-key", "empty-states", "repeated-state", "repeated-symbol",
        "two-accept-states", "delta-format", "unknown-directive",
        "undeclared-role", "unknown-target", "unknown-symbol"])
def test_parse_rejection_names_message_and_line(old, new, line, message):
    # an empty old appends new as line 11, after the fixture's ten lines
    text = _CONTAINS_ONE.replace(old, new) if old else _CONTAINS_ONE + new
    with pytest.raises(TMError) as info:
        parse_tm(text)
    prefix = "" if line is None else f"line {line}: "
    assert (str(info.value), info.value.line) == (prefix + message, line)


@pytest.mark.parametrize("name", ["contains_one.tm", "parity.tm"])
@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_parse_reads_cr_and_crlf_line_ends(name, newline):
    text = fixture_text(name)
    assert parse_tm(text.replace("\n", newline)) == parse_tm(text)


@pytest.mark.parametrize("line", ["start: qa", "accept: qr", "reject: qa",
                                  "states: qe qo qa qr", "alphabet: 0 1 _"])
def test_parse_rejects_a_repeated_directive(line):
    # a second start, accept or reject line must not replace the first
    base = fixture_text("parity.tm")
    key = line.split(":")[0]
    with pytest.raises(TMError, match=f"^line {base.count(chr(10)) + 1}: "
                                      f"{key} given twice$"):
        parse_tm(base + line + "\n")


def test_initial_configuration():
    tm = parse_tm(fixture_text("contains_one.tm"))
    conf = initial_configuration(tm, "01")
    assert conf.tape == ("0", "1")
    assert conf.head == 0 and conf.state == tm.start and conf.steps_taken == 0
    empty = initial_configuration(tm, "")
    assert empty.symbol_under_head() == BLANK


def test_step_moves_and_writes():
    tm = parse_tm(fixture_text("contains_one.tm"))
    conf = initial_configuration(tm, "01")
    conf = step(tm, conf)
    assert (conf.state, conf.head, conf.steps_taken) == ("q0", 1, 1)
    conf = step(tm, conf)
    assert conf.state == tm.accept and conf.head == 2


def test_left_wall_clamps_head():
    text = ("states: q0 qa qr\nalphabet: 0 1 _\nstart: q0\naccept: qa\n"
            "reject: qr\ndelta: q0 0 -> q0 1 L\ndelta: q0 1 -> qa 1 R\n"
            "delta: q0 _ -> qr _ L\n")
    tm = parse_tm(text)
    conf = initial_configuration(tm, "0")
    conf = step(tm, conf)
    # moving left at cell 0 stays at cell 0
    assert conf.head == 0
    assert conf.tape[0] == "1"
    verdict, _ = run(tm, "0", 10)
    assert verdict == ACCEPT


def test_step_refuses_halted_configuration():
    tm = parse_tm(fixture_text("contains_one.tm"))
    verdict, final = run(tm, "1", 10)
    assert verdict == ACCEPT
    with pytest.raises(ValueError, match="halted"):
        step(tm, final)


def test_run_contains_one_language():
    tm = parse_tm(fixture_text("contains_one.tm"))
    for n in range(0, 7):
        for v in range(1 << n):
            word = format(v, f"0{n}b") if n else ""
            verdict, conf = run(tm, word, n + 2)
            expected = ACCEPT if "1" in word else REJECT
            assert verdict == expected
            assert conf.steps_taken <= n + 1


def test_run_parity_language():
    tm = parse_tm(fixture_text("parity.tm"))
    for n in range(0, 7):
        for v in range(1 << n):
            word = format(v, f"0{n}b") if n else ""
            verdict, _ = run(tm, word, 2 * n + 4)
            expected = ACCEPT if word.count("1") % 2 == 1 else REJECT
            assert verdict == expected


def test_run_timeout():
    tm = parse_tm(fixture_text("contains_one.tm"))
    verdict, conf = run(tm, "0000", 2)
    assert verdict == TIMEOUT
    assert conf.steps_taken == 2
    verdict, _ = run(tm, "0000", 0)
    assert verdict == TIMEOUT


def test_run_rejects_bad_arguments():
    tm = parse_tm(fixture_text("contains_one.tm"))
    with pytest.raises(ValueError):
        run(tm, "01", -1)
    with pytest.raises(ValueError):
        run(tm, "012", 5)
