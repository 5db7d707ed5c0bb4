"""Boolean circuit IR: a named-gate DAG plus a line-oriented netlist format.

Gate kinds are ``input``, ``const``, ``and``, ``or`` and ``not``.  A circuit
is an immutable sequence of gates in definition order together with the
designated output wires; definitions must appear before use, so a well-formed
gate list is already topologically sorted and acyclic.

Netlist grammar (UTF-8, LF line endings, ``#`` starts a comment):

    input  NAME
    const  NAME (0|1)
    and    NAME A B
    or     NAME A B
    not    NAME A
    output NAME

The first NAME after a keyword defines a new gate; ``output`` references an
already-defined one.  Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.  Tokens
are separated by any whitespace; emission always uses single spaces, one
definition per line, output lines last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

INPUT = "input"
CONST = "const"
AND = "and"
OR = "or"
NOT = "not"

_ARITY = {INPUT: 0, CONST: 0, AND: 2, OR: 2, NOT: 1}
# Tokens on a netlist line, keyword included.
_TOKENS = {INPUT: 2, CONST: 3, AND: 4, OR: 4, NOT: 3, "output": 2}


class NetlistError(ValueError):
    """Malformed netlist text or ill-formed circuit structure.

    ``line`` is the 1-based source line of a parse error; ``gate`` is the
    position, in the gate sequence, of the gate a structural check rejected.
    """

    def __init__(self, message: str, line: int | None = None,
                 gate: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.gate = gate


class Gate(NamedTuple):
    """One gate definition: name, operation, operand wires, const payload.

    A named tuple: cheap to build, and since it holds only strings, ints and
    a tuple of strings, the garbage collector stops tracking it after one
    collection.  Nothing is checked here; the Circuit built from it checks
    every gate, and turns a list ``args`` into a tuple.
    """

    name: str
    op: str
    args: tuple[str, ...] = ()
    value: int | None = None  # const gates only


@dataclass(frozen=True, repr=False)
class Circuit:
    """Immutable gate DAG in definition order plus the output wire list.

    Construction validates the whole structure (unique names, known kinds,
    correct arities, no forward references), so every reachable Circuit is
    well formed; it is the only structural check, parse_netlist included.
    Evaluation and the analyses below are pure functions; a Circuit can be
    shared freely between threads.
    """

    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        gates = tuple(self.gates)
        index: dict[str, int] = {}
        find = index.get
        inputs: list[str] = []
        arg_pos: list[tuple[int, ...]] = []
        retupled: list[Gate] | None = None
        for pos, (name, op, args, value) in enumerate(gates):
            try:
                arity = _ARITY.get(op)
            except TypeError:  # an unhashable op names no gate kind either
                arity = None
            if arity is None:
                raise NetlistError(f"unknown gate kind {op!r}", gate=pos)
            # for ASCII text, isidentifier() is exactly [A-Za-z_][A-Za-z0-9_]*
            try:
                named = name.isascii() and name.isidentifier()
            except AttributeError:  # not a string
                named = False
            if not named:
                raise NetlistError(f"invalid name {name!r}", gate=pos)
            if name in index:
                raise NetlistError(f"duplicate name {name!r}", gate=pos)
            if len(args) != arity:
                raise NetlistError(
                    f"{op} gate {name!r} takes {arity} operand(s), "
                    f"got {len(args)}", gate=pos)
            if op == CONST:
                if value not in (0, 1):
                    raise NetlistError(f"const gate {name!r} must carry 0 or 1",
                                       gate=pos)
            elif value is not None:
                raise NetlistError(f"{op} gate {name!r} must not carry a value",
                                   gate=pos)
            if arity == 2:
                a, b = args
                pa = find(a)
                pb = find(b)
                if pa is None or pb is None:
                    raise NetlistError(
                        f"undefined reference {a if pa is None else b!r} "
                        f"in gate {name!r}", gate=pos)
                arg_pos.append((pa, pb))
            elif arity:
                (a,) = args
                pa = find(a)
                if pa is None:
                    raise NetlistError(
                        f"undefined reference {a!r} in gate {name!r}", gate=pos)
                arg_pos.append((pa,))
            else:
                arg_pos.append(())
                if op == INPUT:
                    inputs.append(name)
            if type(args) is not tuple:
                if retupled is None:
                    retupled = list(gates)
                retupled[pos] = Gate(name, op, tuple(args), value)
            index[name] = pos
        outputs = tuple(self.outputs)
        for o in outputs:
            if o not in index:
                raise NetlistError(f"output references undefined gate {o!r}")
        object.__setattr__(self, "gates", gates if retupled is None else tuple(retupled))
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_arg_pos", tuple(arg_pos))
        object.__setattr__(self, "_inputs", tuple(inputs))

    @property
    def inputs(self) -> tuple[str, ...]:
        """Input wire names, in definition order."""
        return self._inputs

    def gate(self, name: str) -> Gate:
        return self.gates[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return (f"Circuit(inputs={len(self._inputs)}, gates={len(self.gates)}, "
                f"outputs={len(self.outputs)})")


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit, enforcing definition-before-use.

    Only tokens are checked here; the Circuit constructor checks structure,
    and a fault it finds is reported at the source line of the failing gate.
    """
    gates: list[Gate] = []
    gate_lines: list[int] = []
    outputs: list[str] = []
    # (line, gates defined above it) per output line
    output_at: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        keyword = tokens[0]
        width = _TOKENS.get(keyword)
        if width is None:
            raise NetlistError(f"unknown keyword {keyword!r}", lineno)
        if len(tokens) != width:
            raise NetlistError(
                f"{keyword} line takes {width - 1} token(s) after the keyword, "
                f"got {len(tokens) - 1}", lineno)
        if width == 4:
            gates.append(Gate(tokens[1], keyword, (tokens[2], tokens[3])))
        elif keyword == "output":
            outputs.append(tokens[1])
            output_at.append((lineno, len(gates)))
            continue
        elif keyword == CONST:
            if tokens[2] not in ("0", "1"):
                raise NetlistError(f"const value must be 0 or 1, got {tokens[2]!r}", lineno)
            gates.append(Gate(tokens[1], CONST, (), int(tokens[2])))
        else:
            gates.append(Gate(tokens[1], keyword, tuple(tokens[2:])))
        gate_lines.append(lineno)
    try:
        c = Circuit(gates, outputs)
    except NetlistError as exc:
        if exc.gate is not None:
            raise NetlistError(str(exc), gate_lines[exc.gate]) from None
        defined = {g.name for g in gates}
        for o, (lineno, _) in zip(outputs, output_at):
            if o not in defined:
                raise NetlistError(f"undefined reference {o!r}", lineno) from None
        raise
    index = c._index
    for o, (lineno, defined_above) in zip(outputs, output_at):
        if index[o] >= defined_above:
            raise NetlistError(f"undefined reference {o!r}", lineno)
    return c


def emit_netlist(c: Circuit) -> str:
    """Render the canonical netlist text; parse(emit(c)) reproduces c."""
    lines = []
    for g in c.gates:
        if g.op == CONST:
            lines.append(f"const {g.name} {g.value}")
        elif g.op == INPUT:
            lines.append(f"input {g.name}")
        else:
            lines.append(f"{g.op} {g.name} " + " ".join(g.args))
    for o in c.outputs:
        lines.append(f"output {o}")
    return "\n".join(lines) + "\n" if lines else ""


def is_structurally_monotone(c: Circuit) -> bool:
    """True when the circuit contains no NOT gate (and/or/input/const only)."""
    return all(g.op != NOT for g in c.gates)


@dataclass(frozen=True)
class CircuitStats:
    input_count: int
    const_count: int
    and_count: int
    or_count: int
    not_count: int
    output_count: int
    depth: int
    total_gates: int


def stats(c: Circuit) -> CircuitStats:
    """Gate counts per kind plus the longest source-to-output path length."""
    counts = {INPUT: 0, CONST: 0, AND: 0, OR: 0, NOT: 0}
    depth = [0] * len(c.gates)
    arg_pos = c._arg_pos
    for pos, g in enumerate(c.gates):
        counts[g.op] += 1
        if arg_pos[pos]:
            depth[pos] = 1 + max(depth[a] for a in arg_pos[pos])
    idx = c._index
    circuit_depth = max((depth[idx[o]] for o in c.outputs), default=0)
    return CircuitStats(
        input_count=counts[INPUT],
        const_count=counts[CONST],
        and_count=counts[AND],
        or_count=counts[OR],
        not_count=counts[NOT],
        output_count=len(c.outputs),
        depth=circuit_depth,
        total_gates=len(c.gates),
    )


_DOT_SHAPE = {INPUT: "ellipse", CONST: "diamond", AND: "box", OR: "box", NOT: "box"}


def emit_dot(c: Circuit) -> str:
    """Graphviz rendering: one node per gate, one edge per operand use.

    Nodes and edges are emitted in gate definition order, so the output is
    byte-stable for a given circuit.  Output gates get a double border.
    """
    out = ["digraph circuit {", "  rankdir=LR;"]
    marked = set(c.outputs)
    for g in c.gates:
        if g.op == INPUT:
            label = g.name
        elif g.op == CONST:
            label = f"{g.name}={g.value}"
        else:
            label = f"{g.op}\\n{g.name}"
        attrs = f'shape={_DOT_SHAPE[g.op]}, label="{label}"'
        if g.name in marked:
            attrs += ", peripheries=2"
        out.append(f'  "{g.name}" [{attrs}];')
    for g in c.gates:
        for a in g.args:
            out.append(f'  "{a}" -> "{g.name}";')
    out.append("}")
    return "\n".join(out) + "\n"
