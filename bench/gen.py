"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` drawn from the
workload seed, so one seed always yields byte-identical netlists and bit
streams.  Circuits come out as gate lists ``(op, name, args)`` that the
benchmark writes as netlist text itself; the program under test only ever
sees that text.
"""

from __future__ import annotations

import hashlib


def layered_circuit(rng, inputs: int, layers: int, width: int, nots: int):
    """A random single-output AND/OR/NOT circuit with exact size and depth.

    Each of ``layers`` layers holds ``width`` AND/OR gates followed by
    ``nots`` NOT gates over them, so the gate total is exactly
    ``inputs + layers * (width + nots)`` and the dual-rail rewrite has
    exactly ``2 * inputs + 2 * layers * width`` gates.  Every AND/OR gate
    takes its first operand from the layer below (through a NOT or not), so
    once NOT gates become rail swaps each layer-l gate sits at depth exactly
    l and the output, the last AND/OR gate, at depth ``layers``.  The second
    operand is a primary input half the time, which keeps deep wires from
    collapsing into constants: a constant mask is a small integer and would
    make the verifier's cost depend on the seed.
    """
    names = [f"x{i}" for i in range(inputs)]
    gates = [("input", x, ()) for x in names]
    earlier = list(names)
    below = list(names)
    k = 0
    for _ in range(layers):
        layer = []
        for _ in range(width):
            a = rng.choice(below)
            b = rng.choice(names) if rng.random() < 0.5 else rng.choice(earlier)
            name = f"g{k}"
            k += 1
            gates.append((rng.choice(("and", "or")), name, (a, b)))
            layer.append(name)
        out = layer[-1]
        for _ in range(nots):
            name = f"g{k}"
            k += 1
            gates.append(("not", name, (rng.choice(layer[:width]),)))
            layer.append(name)
        earlier.extend(layer)
        below = layer
    return gates, [out]


def negated(gates, outputs):
    """The same circuit with its output negated: it differs everywhere."""
    return gates + [("not", "planted", (outputs[0],))], ["planted"]


def xor_all_ones(gates, outputs):
    """The output XORed with the AND of all inputs.

    The result differs from the original only on the all-ones assignment,
    the last one in the verifier's order.
    """
    xs = [name for op, name, _ in gates if op == "input"]
    extra = []
    acc = xs[0]
    for i, x in enumerate(xs[1:]):
        extra.append(("and", f"every{i}", (acc, x)))
        acc = f"every{i}"
    out = outputs[0]
    extra += [
        ("not", "not_every", (acc,)),
        ("not", "not_out", (out,)),
        ("and", "keep", (out, "not_every")),
        ("and", "flip", ("not_out", acc)),
        ("or", "planted", ("keep", "flip")),
    ]
    return gates + extra, ["planted"]


def netlist_text(gates, outputs, header: str) -> str:
    """Netlist text as a foreign tool might write it: a comment header and
    double-spaced operands, which the parser must accept."""
    lines = [f"# {header}"]
    for op, name, args in gates:
        lines.append(f"{op} {name}  {'  '.join(args)}".rstrip())
    lines.extend(f"output {o}" for o in outputs)
    return "\n".join(lines) + "\n"


def bit_stream(rng, bits: int, line: int = 1024) -> str:
    """``bits`` random bits as 0/1 text, broken into lines of ``line`` bits."""
    text = format(rng.getrandbits(bits), f"0{bits}b")
    return "\n".join(text[i:i + line] for i in range(0, bits, line)) + "\n"


def digest(named_texts: dict[str, str]) -> str:
    """SHA-256 over every generated input, in name order."""
    h = hashlib.sha256()
    for name in sorted(named_texts):
        h.update(name.encode())
        h.update(b"\0")
        h.update(named_texts[name].encode())
        h.update(b"\0")
    return h.hexdigest()
