"""Rail encoding, the equality classifier and the two-rail transform."""

import random

import pytest

import railcirc.dualrail as dualrail
from railcirc import (FLATTENED, NOT, RAIL_SEPARATOR, build_eq_classifier,
                      dual_rail_transform, emit_netlist, evaluate,
                      exhaustive_equiv, flatten_bits,
                      is_structurally_monotone, parse_netlist, rail_map,
                      stats, unflatten_bits, validate_rail_complement)

from helpers import fixture_text, random_circuit

EQ1_EXPECTED = """\
input x0
input x1
input y0
input y1
and a x0 y0
and b x1 y1
or e a b
output e
"""


def test_flatten_bits_table():
    assert flatten_bits("") == ""
    assert flatten_bits("0") == "10"
    assert flatten_bits("1") == "01"
    assert flatten_bits("0110") == "10010110"


def test_flatten_bits_rejects_non_bits():
    with pytest.raises(ValueError):
        flatten_bits("01x")


def test_flatten_bits_names_the_first_non_bit_in_input_order():
    with pytest.raises(ValueError, match=r"^non-bit symbol 'x' at position 1$"):
        flatten_bits("0x2")
    with pytest.raises(ValueError, match=r"^non-bit symbol 'é' at position 2$"):
        flatten_bits("01é")


def test_unflatten_inverts_flatten():
    rng = random.Random(9)
    for _ in range(100):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 24)))
        assert unflatten_bits(flatten_bits(bits)) == bits


def test_unflatten_rejects_bad_pairs():
    with pytest.raises(ValueError, match="odd"):
        unflatten_bits("100")
    with pytest.raises(ValueError, match="position 1"):
        unflatten_bits("10 11".replace(" ", ""))
    with pytest.raises(ValueError, match="position 0"):
        unflatten_bits("00")


def test_unflatten_names_the_first_bad_pair_of_random_strings():
    """Every short string over a mixed alphabet gets the pair-by-pair verdict."""
    rng = random.Random(79)
    for _ in range(2000):
        flat = "".join(rng.choice("0101x\u00e9") for _ in range(2 * rng.randint(1, 12)))
        pairs = [flat[i:i + 2] for i in range(0, len(flat), 2)]
        bad = next((i for i, p in enumerate(pairs) if p not in ("01", "10")), None)
        if bad is None:
            assert unflatten_bits(flat) == "".join(p[1] for p in pairs)
            continue
        with pytest.raises(ValueError) as err:
            unflatten_bits(flat)
        assert str(err.value) == (f"rail pair {pairs[bad]!r} at position {bad} "
                                  "is not exclusive")


def test_unflatten_long_round_trip():
    rng = random.Random(77)
    for n in (1 << 20, (1 << 18) + 3):
        bits = format(rng.getrandbits(n), f"0{n}b")
        assert unflatten_bits(flatten_bits(bits)) == bits


@pytest.mark.parametrize("bad", ["11", "00", "1x", "\u00e90", " 1"])
def test_unflatten_names_a_bad_pair_deep_in_a_long_string(bad):
    """The first non-exclusive pair is named, whatever follows it."""
    rng = random.Random(78)
    n = 1 << 18
    flat = flatten_bits(format(rng.getrandbits(n), f"0{n}b"))
    at = n - 1000
    broken = flat[:2 * at] + bad + flat[2 * at + 2:2 * n - 2] + "00"
    with pytest.raises(ValueError, match=rf"^rail pair {bad!r} at position {at} "
                                         r"is not exclusive$"):
        unflatten_bits(broken)


def test_eq_classifier_one_pair_exact_netlist():
    assert emit_netlist(build_eq_classifier(1)) == EQ1_EXPECTED


def test_eq_classifier_is_monotone_and_accepts_equal_words():
    for n in (1, 2, 3):
        c = build_eq_classifier(n)
        assert is_structurally_monotone(c)
        for xv in range(1 << n):
            for yv in range(1 << n):
                x = format(xv, f"0{n}b")
                y = format(yv, f"0{n}b")
                bits = [int(b) for b in flatten_bits(x) + flatten_bits(y)]
                assert evaluate(c, bits) == [1 if x == y else 0]


def test_eq_classifier_rejects_bad_arity():
    with pytest.raises(ValueError):
        build_eq_classifier(0)


def test_rail_map_swaps_rails_for_not():
    c = parse_netlist("input x\nnot n x\noutput n\n")
    m = rail_map(c)
    assert m["x"][0] == "x" + RAIL_SEPARATOR + "0"
    assert m["x"][1] == "x" + RAIL_SEPARATOR + "1"
    # negation costs nothing: the pair is the source pair flipped
    assert m["n"][0] == m["x"][1]
    assert m["n"][1] == m["x"][0]


def test_rail_map_rejects_reserved_separator():
    c = parse_netlist("input a__b\noutput a__b\n")
    with pytest.raises(ValueError, match="__"):
        rail_map(c)


def test_transform_of_eq_with_not():
    b = parse_netlist(fixture_text("eq_not.net"))
    m = dual_rail_transform(b)
    assert is_structurally_monotone(m)
    s = stats(m)
    assert s.not_count == 0
    assert s.input_count == 2 * len(b.inputs)
    assert exhaustive_equiv(b, m, FLATTENED) is None
    assert validate_rail_complement(b, m) is None


def test_transform_preserves_semantics_on_random_circuits():
    rng = random.Random(2024)
    for _ in range(60):
        b = random_circuit(rng, max_inputs=8, max_gates=40)
        m = dual_rail_transform(b)
        assert is_structurally_monotone(m)
        assert stats(m).not_count == 0
        assert exhaustive_equiv(b, m, FLATTENED) is None


def test_transform_rail_complement_invariant():
    rng = random.Random(321)
    for _ in range(40):
        b = random_circuit(rng, max_inputs=7, max_gates=35)
        m = dual_rail_transform(b)
        assert validate_rail_complement(b, m) is None


def test_transform_size_at_most_doubles():
    rng = random.Random(55)
    for _ in range(40):
        b = random_circuit(rng, max_inputs=8, max_gates=50)
        m = dual_rail_transform(b)
        assert len(m.names) <= 2 * len(b.names)


def test_transform_handles_const_and_multiple_outputs():
    b = parse_netlist("input x\nconst one 1\nnot n x\nand g n one\n"
                      "output g\noutput one\n")
    m = dual_rail_transform(b)
    assert is_structurally_monotone(m)
    assert len(m.outputs) == 2
    assert exhaustive_equiv(b, m, FLATTENED) is None


def test_transform_output_names_are_one_rails():
    b = parse_netlist(fixture_text("eq_not.net"))
    m = dual_rail_transform(b)
    # the identity rail of the source output carries the answer
    assert m.outputs == ("e" + RAIL_SEPARATOR + "1",)
    # an output fed by a negation borrows its operand's complement rail
    b2 = parse_netlist("input x\nnot n x\noutput n\n")
    m2 = dual_rail_transform(b2)
    assert m2.outputs == ("x" + RAIL_SEPARATOR + "0",)
    assert exhaustive_equiv(b2, m2, FLATTENED) is None


def test_rail_complement_detects_broken_pairing():
    b = parse_netlist("input x\ninput y\nand g x y\noutput g\n")
    # g's zero-rail ignores y, so on x=1, y=0 both rails of g read 0
    broken = parse_netlist(
        "input x__0\ninput x__1\ninput y__0\ninput y__1\n"
        "or g__0 x__0 x__0\nand g__1 x__1 y__1\noutput g__1\n")
    report = validate_rail_complement(b, broken)
    assert report is not None
    assert report.kind == "RAIL"
    assert report.detail == "g__0"
    assert report.witness == ((0, 1, 1, 0),)
    assert (report.expected, report.observed) == ((1,), (0,))
    assert report.to_line() == (
        "kind=RAIL witness=0110 expected=1 observed=0 detail=g__0")


def test_rail_complement_names_a_missing_rail():
    # m has four inputs, as b's rails need, but none of b's rail wires
    b = parse_netlist("input a\ninput b\nand c a b\noutput c\n")
    m = parse_netlist("input x__0\ninput x__1\ninput y__0\ninput y__1\n"
                      "and g__1 x__1 y__1\noutput g__1\n")
    with pytest.raises(ValueError, match="circuit defines no wire 'a__0'"):
        validate_rail_complement(b, m)


def test_rail_complement_refuses_13_inputs_before_evaluating(monkeypatch):
    b = parse_netlist("".join(f"input x{i}\n" for i in range(13)) + "output x0\n")
    m = dual_rail_transform(b)

    def evaluated(*args, **kwargs):
        raise AssertionError("evaluated a circuit of 13 inputs")

    monkeypatch.setattr(dualrail, "rail_map", evaluated)
    monkeypatch.setattr(dualrail, "Cone", evaluated)
    monkeypatch.setattr(dualrail, "assignment_blocks", evaluated)
    with pytest.raises(ValueError, match="max 12 inputs"):
        validate_rail_complement(b, m)


EQ_NOT_FLAT = """\
input x__0
input x__1
input y__0
input y__1
or p__0 x__0 y__0
and p__1 x__1 y__1
or q__0 x__1 y__1
and q__1 x__0 y__0
and e__0 p__0 q__0
or e__1 p__1 q__1
output e__1
"""

# NOT of NOT, a NOT as output, a const pair and two outputs.
SWAPS_SRC = """\
input x
input y
const k 0
not n x
not nn n
and a nn y
or b a k
not nb b
output nb
output a
"""

SWAPS_FLAT = """\
input x__0
input x__1
input y__0
input y__1
const k__0 1
const k__1 0
or a__0 x__0 y__0
and a__1 x__1 y__1
and b__0 a__0 k__0
or b__1 a__1 k__1
output b__0
output a__1
"""


@pytest.mark.parametrize("src, flat", [
    (fixture_text("eq_not.net"), EQ_NOT_FLAT),
    (SWAPS_SRC, SWAPS_FLAT),
], ids=["eq_not", "not-swaps"])
def test_transform_exact_netlist(src, flat):
    b = parse_netlist(src)
    m = dual_rail_transform(b)
    assert emit_netlist(m) == flat
    assert exhaustive_equiv(b, m, FLATTENED) is None


def test_rail_map_names_wires_of_the_rewrite():
    rng = random.Random(4242)
    for _ in range(60):
        b = random_circuit(rng, max_inputs=8, max_gates=50)
        m = dual_rail_transform(b)
        rails = rail_map(b)
        for name, kind in zip(b.names, b.kinds):
            if kind != NOT:
                assert rails[name][0] in m
                assert rails[name][1] in m
        assert m.outputs == tuple(rails[o][1] for o in b.outputs)
