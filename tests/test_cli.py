"""Command line behavior: output formats, files, and exit codes."""

import io
import os
import random
import shlex
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from railcirc import (RAIL_SEPARATOR, compile_tm, compile_tm_flattened,
                      dual_rail_transform, emit_netlist, flatten_bits,
                      parse_netlist, parse_tm, stats)
from railcirc.cli import main
from railcirc.dualrail import _BLOCK

from helpers import FIXTURES, fixture_text, gate_lines, messy_netlist, random_circuit

CONTAINS_ONE = str(FIXTURES / "contains_one.tm")
EQ_NOT = str(FIXTURES / "eq_not.net")


def test_flatten_bits_subcommand(capsys):
    assert main(["flatten", "--bits", "0110"]) == 0
    assert capsys.readouterr().out == "10010110\n"


def test_flatten_bits_subcommand_names_the_first_non_bit(capsys):
    assert main(["flatten", "--bits", "0x2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-bit symbol 'x' at position 1\n"


def test_flatten_circuit_subcommand(capsys):
    assert main(["flatten", EQ_NOT]) == 0
    flat = parse_netlist(capsys.readouterr().out)
    s = stats(flat)
    assert s.not_count == 0 and s.input_count == 4


def test_compile_tm_stdout(capsys):
    assert main(["compile-tm", CONTAINS_ONE, "-n", "2", "-t", "4"]) == 0
    c = parse_netlist(capsys.readouterr().out)
    assert c.inputs == ("x0", "x1")
    assert c.outputs == ("accepted",)
    assert stats(c).not_count == 2


def test_compile_tm_flattened_and_out_file(tmp_path, capsys):
    out = tmp_path / "m.net"
    assert main(["compile-tm", CONTAINS_ONE, "-n", "2", "-t", "4",
                 "--flattened", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    c = parse_netlist(out.read_text())
    assert stats(c).not_count == 0
    assert c.inputs == ("x0__0", "x0__1", "x1__0", "x1__1")


def test_compile_tm_gate_cap(capsys):
    assert main(["--gate-cap", "50", "compile-tm", CONTAINS_ONE,
                 "-n", "2", "-t", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_successive_calls_share_no_state(capsys):
    # the parser is built once; a flag given to one call does not stick
    argv = ["compile-tm", CONTAINS_ONE, "-n", "2", "-t", "4"]
    assert main(["--gate-cap", "5", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    machine = parse_tm(fixture_text("contains_one.tm"))
    assert captured.out == emit_netlist(compile_tm(machine, 2, 4))


@pytest.mark.parametrize("flattened", [False, True], ids=["raw", "flattened"])
def test_compile_tm_gate_cap_is_exact(tmp_path, capsys, flattened):
    # at the exact count compile-tm writes that many gate lines; one below
    # it exits 2 before writing anything, and an existing --out file stays
    argv = ["compile-tm", CONTAINS_ONE, "-n", "3", "-t", "6"]
    argv += ["--flattened"] if flattened else []
    build = compile_tm_flattened if flattened else compile_tm
    exact = len(build(parse_tm(fixture_text("contains_one.tm")), 3, 6).names)
    out = tmp_path / "m.net"
    assert main(["--gate-cap", str(exact), *argv]) == 0
    text = capsys.readouterr().out
    assert sum(not line.startswith("output ") for line in text.splitlines()) == exact
    assert main(["--gate-cap", str(exact), *argv, "--out", str(out)]) == 0
    assert out.read_text() == text
    out.write_bytes(b"kept\r\n")
    for dest in ([], ["--out", str(out)]):
        assert main(["--gate-cap", str(exact - 1), *argv, *dest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {exact} gates exceed")
    assert out.read_bytes() == b"kept\r\n"


def test_stats_line(capsys):
    assert main(["stats", EQ_NOT]) == 0
    assert capsys.readouterr().out == \
        "inputs=2 consts=0 and=2 or=1 not=2 outputs=1 depth=3 total=7\n"


def test_out_of_memory_exits_2(monkeypatch, capsys):
    def exhausted(c):
        raise MemoryError

    monkeypatch.setattr("railcirc.cli.stats", exhausted)
    assert main(["stats", EQ_NOT]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_emit_dot(tmp_path, capsys):
    assert main(["emit-dot", EQ_NOT]) == 0
    assert capsys.readouterr().out.startswith("digraph circuit {")
    out = tmp_path / "c.dot"
    assert main(["emit-dot", EQ_NOT, "--out", str(out)]) == 0
    assert out.read_text().rstrip().endswith("}")


def test_verify_equiv_raw(tmp_path, capsys):
    assert main(["verify", "equiv", EQ_NOT, EQ_NOT]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    other = tmp_path / "xor.net"
    other.write_text("input x\ninput y\nnot nx x\nnot ny y\nand a x ny\n"
                     "and b nx y\nor g a b\noutput g\n")
    assert main(["verify", "equiv", EQ_NOT, str(other)]) == 1
    line = capsys.readouterr().out
    assert line.startswith("kind=EQUIVALENCE witness=")


def test_verify_equiv_flattened(tmp_path, capsys):
    flat = tmp_path / "flat.net"
    assert main(["compile-tm", CONTAINS_ONE, "-n", "2", "-t", "4",
                 "--flattened", "--out", str(flat)]) == 0
    raw = tmp_path / "raw.net"
    assert main(["compile-tm", CONTAINS_ONE, "-n", "2", "-t", "4",
                 "--out", str(raw)]) == 0
    capsys.readouterr()
    assert main(["verify", "equiv", "--flattened", str(raw), str(flat)]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_verify_monotone(tmp_path, capsys):
    mono = tmp_path / "mono.net"
    mono.write_text("input x\ninput y\nor g x y\noutput g\n")
    assert main(["verify", "monotone", str(mono)]) == 0
    assert capsys.readouterr().out == "monotone\n"
    assert main(["verify", "monotone", EQ_NOT]) == 1
    line = capsys.readouterr().out
    assert line == "kind=MONOTONICITY witness=00<=10 expected=1,1 observed=1,0\n"


def test_verify_census(capsys):
    assert main(["verify", "census", "-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["0000", "0001", "0101", "0011", "0111", "1111"]
    assert main(["verify", "census", "-n", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["00", "01", "11"]


def test_verify_census_rejects_large_arity(capsys):
    assert main(["verify", "census", "-n", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_eq_refute(capsys):
    assert main(["verify", "eq-refute"]) == 0
    out = capsys.readouterr().out
    assert "(0,0) <= (0,1) <= (1,1)" in out
    assert out.splitlines()[-1] == \
        "kind=MONOTONICITY witness=00<=01<=11 expected=1,1,1 observed=1,0,1"


def test_verify_eq_refute_two_bits(capsys):
    assert main(["verify", "eq-refute", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "(0,0,0,0) <= (0,0,0,1) <= (0,1,0,1)" in out


def test_stream_flatten(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0110\n"))
    assert main(["stream-flatten"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "10010110"
    assert captured.err.strip() == "read=4 written=8 peak_state_bits=5"


def test_stream_flatten_rejects_junk(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("01a1\n"))
    assert main(["stream-flatten"]) == 2
    assert "error:" in capsys.readouterr().err


def test_stream_flatten_across_chunk_edges(monkeypatch, capsys):
    rng = random.Random(8192)
    bits = "".join(rng.choice("01") for _ in range(20000))
    # newlines every 1..97 bits, plus one on each side of the first
    # 8192-character read edge and one opening the third read
    pieces, i = [], 0
    while i < len(bits):
        step = rng.randint(1, 97)
        pieces.append(bits[i:i + step])
        i += step
    text = "\n".join(pieces) + "\n"
    text = text[:8191] + "\n\n" + text[8191:]
    text = text[:16384] + "\n" + text[16384:]
    assert text[8191:8193] == "\n\n" and text[16384] == "\n"
    assert len(text) > 2 * 8192
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["stream-flatten"]) == 0
    captured = capsys.readouterr()
    assert captured.out == flatten_bits(bits)
    assert captured.err == "read=20000 written=40000 peak_state_bits=17\n"


def test_stream_flatten_junk_after_the_first_read(monkeypatch, capsys):
    # the first 8192-character read is all bits; the second holds junk
    first = "".join(random.Random(2).choice("01") for _ in range(8192))
    monkeypatch.setattr("sys.stdin", io.StringIO(first + "1\n0x1"))
    assert main(["stream-flatten"]) == 2
    captured = capsys.readouterr()
    assert captured.out == flatten_bits(first) + "0110"
    assert captured.err == "error: non-bit symbol 'x' at position 8194\n"


@pytest.mark.parametrize("tail", ["", "0x1"], ids=["bits", "junk"])
@pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_stream_flatten_ignores_every_line_ending(monkeypatch, capsys, eol, tail):
    # the first line fills the first 8192-character read but for one
    # character, so a "\r\n" ending it straddles the read edge
    rng = random.Random(13)
    pieces = ["".join(rng.choice("01") for _ in range(8191))]
    pieces += ["".join(rng.choice("01") for _ in range(rng.randint(1, 97)))
               for _ in range(120)]
    lf = "\n".join(pieces) + "\n" + tail
    text = lf.replace("\n", eol)
    assert text[8191:8191 + len(eol)] == eol
    results = []
    for stdin in (lf, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        results.append((main(["stream-flatten"]), *capsys.readouterr()))
    assert results[1] == results[0]
    assert results[0][0] == (2 if tail else 0)


@pytest.mark.parametrize("tail", ["", "0x1"], ids=["bits", "junk"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_stream_flatten_drops_a_leading_byte_order_mark(monkeypatch, capsys,
                                                        eol, tail):
    plain = eol.join(["0110", "1", "001"]) + eol + tail
    results = []
    for stdin in (plain, "\ufeff" + plain):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        results.append((main(["stream-flatten"]), *capsys.readouterr()))
    assert results[1] == results[0]
    assert results[0][0] == (2 if tail else 0)


@pytest.mark.parametrize("stdin, position", [
    ("0\ufeff1\n", 1), ("\ufeff\ufeff0\n", 0), ("\n\ufeff0\n", 0),
    ("0" * 8192 + "\ufeff1\n", 8192)],
    ids=["after-a-bit", "second-mark", "after-a-newline", "opening-the-second-read"])
def test_stream_flatten_refuses_a_later_byte_order_mark(monkeypatch, capsys,
                                                        stdin, position):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["stream-flatten"]) == 2
    assert capsys.readouterr().err == \
        f"error: non-bit symbol '\\ufeff' at position {position}\n"


_FLATTEN_FAULTS = [
    ("input x\nnand g x x\n", 2, "unknown keyword 'nand'"),
    ("input x\nand g x\n", 2, "and line takes 3 token(s) after the keyword, got 2"),
    ("input x\nconst k 2\n", 2, "const value must be 0 or 1, got '2'"),
    ("input x\nnot 9x x\n", 2, "invalid name '9x'"),
    ("input x\n# again\n\ninput x\n", 4, "duplicate name 'x'"),
    ("input x\nand g x y\noutput g\n", 2, "undefined reference 'y' in gate 'g'"),
    ("input x\noutput n\nnot n x\n", 2, "undefined reference 'n'"),
    ("input x\ninput a__b\nand g x a__b\noutput g\n", 2,
     "gate name 'a__b' contains the reserved rail separator '__'"),
    # the first faulty line in file order, whatever the kind of its fault
    ("input x\nand g x ghost\ninput y z\noutput g\n", 2,
     "undefined reference 'ghost' in gate 'g'"),
]


@pytest.mark.parametrize("text, line, message", _FLATTEN_FAULTS, ids=[
    "unknown-keyword", "token-count", "const-value", "bad-name", "duplicate",
    "undefined-operand", "output-above-its-gate", "reserved-separator",
    "structural-above-token"])
def test_flatten_fault_table(tmp_path, capsys, text, line, message):
    """flatten, and stats on a fault that is not the rewrite's own, report
    the first faulty line with one message."""
    src = tmp_path / "bad.net"
    src.write_text(text)
    for command in ("flatten",) if RAIL_SEPARATOR in text else ("flatten", "stats"):
        assert main([command, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line {line}: {message}\n"


def test_flatten_matches_the_library_rewrite(tmp_path, capsys):
    """CLI flatten output is byte for byte the emitted library rewrite of
    the parsed netlist, on messy renderings with early output lines."""
    rng = random.Random(6060)
    for i in range(60):
        b = random_circuit(rng, max_inputs=6, max_gates=30)
        # a const, NOT of NOT, NOTs as outputs and a repeated output
        c = parse_netlist(
            f"const k {rng.randint(0, 1)}\n{gate_lines(b)}not n1 {b.names[-1]}\n"
            f"not n2 n1\n" + "".join(f"output {o}\n" for o in
                                    b.outputs + ("n1", "k", "n2", b.outputs[0])))
        text = messy_netlist(rng, c, early_outputs=True)
        assert "\r\n" in text and "#" in text and "\t" in text
        src = tmp_path / f"c{i}.net"
        src.write_bytes(text.encode("utf-8"))
        assert main(["flatten", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == emit_netlist(dual_rail_transform(parse_netlist(text)))
        assert captured.out == emit_netlist(dual_rail_transform(c))


def test_flatten_reads_every_line_ending(tmp_path, capsys):
    # files are read with universal newlines, as by the other subcommands
    src = tmp_path / "endings.net"
    src.write_bytes(b"input x\rinput y\r\nand g x y\routput g\n")
    assert main(["flatten", str(src)]) == 0
    assert capsys.readouterr().out == emit_netlist(dual_rail_transform(
        parse_netlist("input x\ninput y\nand g x y\noutput g\n")))


@pytest.mark.parametrize("argv", [
    ["stats", EQ_NOT], ["flatten", EQ_NOT], ["verify", "equiv", EQ_NOT, EQ_NOT],
    ["compile-tm", CONTAINS_ONE, "-n", "2", "-t", "4"],
    ["compile-tm", CONTAINS_ONE, "-n", "2", "-t", "4", "--flattened"]])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, argv):
    # a file saved with a UTF-8 byte-order mark reads as the file without it
    marked = {}
    for name in ("eq_not.net", "contains_one.tm"):
        copy = tmp_path / name
        copy.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
        marked[str(FIXTURES / name)] = str(copy)
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([marked.get(arg, arg) for arg in argv]) == 0
    assert capsys.readouterr() == plain


def _chain_netlist(gates: int) -> str:
    """A seeded netlist of exactly ``gates`` gates: 16 inputs, then AND/OR
    gates over recent wires with every fifth gate a NOT, one output."""
    rng = random.Random(2020)
    names = [f"x{i}" for i in range(16)]
    lines = [f"input {x}" for x in names]
    for j in range(gates - len(names)):
        a = rng.choice(names[-64:])
        if j % 5 == 4:
            lines.append(f"not g{j} {a}")
        else:
            lines.append(f"{rng.choice(('and', 'or'))} g{j} {a} {rng.choice(names)}")
        names.append(f"g{j}")
    lines.append(f"output {names[-1]}")
    return "\n".join(lines) + "\n"


def test_flatten_peak_memory(tmp_path, capsys):
    """flatten holds one zero-rail name per wire and one block of per-gate
    text, not two circuits: on 20,000 gates its traced peak is under 5.5 MB
    (Python 3.11: 24.3 MB through parse_netlist and dual_rail_transform,
    7.4 MB with both rails of each wire and every line kept to the end,
    4.2 MB now)."""
    src = tmp_path / "chain.net"
    src.write_text(_chain_netlist(20_000))
    tracemalloc.start()
    try:
        assert main(["flatten", str(src)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.count("\n") == 2 * 16 + 2 * 15_988 + 1
    assert peak <= 5.5e6


def _block_rows(rng, rail_gates: int, tail_nots: int, early: bool) -> list[list[str]]:
    """Netlist rows with exactly ``rail_gates`` gates that get rails: four
    inputs, then AND/OR gates, each fourth followed by a NOT of it, then
    ``tail_nots`` NOT gates in a chain.  The last gate is an output; with
    ``early`` the fifth gate is one too, placed right below it."""
    rows = [["input", f"x{i}"] for i in range(4)]
    names = [row[1] for row in rows]
    for j in range(rail_gates - 4):
        rows.append([rng.choice(("and", "or")), f"g{j}", rng.choice(names[-8:]),
                     rng.choice(names)])
        names.append(f"g{j}")
        if j % 4 == 3:
            rows.append(["not", f"n{j}", f"g{j}"])
            names.append(f"n{j}")
        if early and j == 0:
            rows.append(["output", "g0"])
    for k in range(tail_nots):
        rows.append(["not", f"t{k}", names[-1]])
        names.append(f"t{k}")
    rows.append(["output", names[-1]])
    return rows


def _reference_rewrite(rows: list[list[str]]) -> str:
    """The dual-rail text of netlist rows, rule by rule, keeping both rails."""
    rails, lines, outputs = {}, [], []
    for op, name, *args in rows:
        if op == "output":
            outputs.append(f"output {rails[name][1]}")
        elif op == "not":
            z, o = rails[args[0]]
            rails[name] = (o, z)
        else:
            z, o = rails[name] = (f"{name}__0", f"{name}__1")
            if op == "input":
                lines += [f"input {z}", f"input {o}"]
            else:
                (za, oa), (zb, ob) = rails[args[0]], rails[args[1]]
                dual = "or" if op == "and" else "and"
                lines += [f"{dual} {z} {za} {zb}", f"{op} {o} {oa} {ob}"]
    return "".join(line + "\n" for line in lines + outputs)


@pytest.mark.parametrize("rail_gates, tail_nots, early", [
    (_BLOCK - 1, 0, False), (_BLOCK, 0, True), (_BLOCK + 1, 0, False),
    (2 * _BLOCK, 0, True), (2 * _BLOCK, 0, False), (_BLOCK, 5, True),
], ids=["one-below", "at", "one-above", "two-blocks-early", "two-blocks",
        "not-tail-after-a-block"])
def test_flatten_across_block_edges(tmp_path, capsys, rail_gates, tail_nots, early):
    """No line is lost or doubled and none is blank where the rewrite's
    text is joined from one block of gates to the next."""
    rows = _block_rows(random.Random(rail_gates + tail_nots), rail_gates, tail_nots, early)
    text = "".join(" ".join(row) + "\n" for row in rows)
    src = tmp_path / "blocks.net"
    src.write_text(text)
    assert main(["flatten", str(src)]) == 0
    out = capsys.readouterr().out
    assert out == _reference_rewrite(rows)
    assert out == emit_netlist(dual_rail_transform(parse_netlist(text)))
    assert out.count("\n") == 2 * rail_gates + 1 + early and "\n\n" not in out


def test_flatten_fault_on_the_last_line_of_many_blocks(tmp_path, capsys):
    """A fault below two full blocks of rewritten text still leaves stdout
    empty and names its line."""
    rows = _block_rows(random.Random(1), 2 * _BLOCK + 1, 0, True)[:-1]
    text = "".join(" ".join(row) + "\n" for row in rows) + "and z x0 ghost\n"
    src = tmp_path / "late.net"
    src.write_text(text)
    assert main(["flatten", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: line {len(rows) + 1}: "
                            "undefined reference 'ghost' in gate 'z'\n")


def test_missing_file_is_a_usage_error(capsys):
    assert main(["stats", "/nonexistent/nothing.net"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_netlist_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("input x\nand g x ghost\noutput g\n")
    assert main(["stats", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["explode"]) == 2
    assert main([]) == 2
    capsys.readouterr()


_MUTATION_TOKENS = ("input", "const", "and", "or", "not", "output", "states:",
                    "alphabet:", "start:", "accept:", "reject:", "delta:", "->",
                    "0", "1", "9", " ", "\n", "\r", "\t", "\0", "\u00e9")


def _mutate(rng, text: str) -> str:
    """text after one to three edits: a token inserted, a run of characters
    deleted, or a span repeated in place."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + rng.choice(_MUTATION_TOKENS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def test_mutated_files_exit_0_1_or_2(tmp_path, capsys):
    # every subcommand that reads a file, on seeded mutants of the fixtures
    # and of one small compile: nothing is raised out of main, and each
    # exit code is one the CLI documents
    rng = random.Random(2121)
    machines = [fixture_text("contains_one.tm"), fixture_text("parity.tm")]
    netlists = [fixture_text("eq_not.net"),
                emit_netlist(compile_tm(parse_tm(machines[0]), 2, 3))]
    sources = [tmp_path / f"source{k}.net" for k in range(len(netlists))]
    for source, text in zip(sources, netlists):
        source.write_text(text, encoding="utf-8")
    mutant = tmp_path / "mutant"
    codes = set()
    for k in range(1000):
        kind = k % 4
        text = _mutate(rng, (machines + netlists)[kind])
        mutant.write_bytes(text.encode("utf-8"))
        if kind < 2:
            runs = [["compile-tm", str(mutant), "-n", "2", "-t", "3"],
                    ["compile-tm", str(mutant), "-n", "2", "-t", "3", "--flattened"]]
        else:
            runs = [["stats", str(mutant)], ["flatten", str(mutant)],
                    ["verify", "equiv", str(sources[kind - 2]), str(mutant)],
                    ["verify", "monotone", str(mutant)], ["emit-dot", str(mutant)]]
        for argv in runs:
            code = main(argv)
            assert code in (0, 1, 2), (argv, text)
            codes.add(code)
        capsys.readouterr()
    assert codes == {0, 1, 2}


def test_readme_command_block_runs(tmp_path):
    # the sh block under README's "Command line" heading, verbatim, with
    # railcirc run from this checkout's sources
    root = FIXTURES.parent
    section = (root / "README.md").read_text(encoding="utf-8").split(
        "\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    python = shlex.quote(sys.executable)
    script = f'set -e\nrailcirc() {{ {python} -m railcirc.cli "$@"; }}\n' + block
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(["sh", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "10010110" in proc.stdout.splitlines()
