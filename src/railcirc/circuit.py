"""Boolean circuit IR: a named-gate DAG plus a line-oriented netlist format.

Gate kinds are ``input``, ``const``, ``and``, ``or`` and ``not``.  A circuit
is an immutable sequence of gates in definition order together with the
designated output wires; definitions must appear before use, so a well-formed
gate list is already topologically sorted and acyclic.

Netlist grammar (UTF-8, ``#`` starts a comment; lines end at LF, CRLF or
a lone CR):

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

Netlist text is checked by one scanner, ``read_netlist``, one line at a
time: ``parse_netlist`` and the streamed dual-rail rewrite both read it, so
both report the first faulty line in file order with the same message.  A
Circuit built from Gate values in the library is checked by its
constructor instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

INPUT = "input"
CONST = "const"
AND = "and"
OR = "or"
NOT = "not"
OUTPUT = "output"  # the keyword of an output line, not a gate kind

_ARITY = {INPUT: 0, CONST: 0, AND: 2, OR: 2, NOT: 1}
# Per netlist keyword: its kind and its number of tokens, keyword included.
# The kind is the module's own string object, so a parsed gate holds no
# per-line keyword token.
_KEYWORDS = {kind: (kind, width) for kind, width in (
    (INPUT, 2), (CONST, 3), (AND, 4), (OR, 4), (NOT, 3), (OUTPUT, 2))}


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
    collection.  Nothing is checked here; a Circuit checks it with
    ``check_gate`` and turns a list ``args`` into a tuple.
    """

    name: str
    op: str
    args: tuple[str, ...] = ()
    value: int | None = None  # const gates only


def check_gate(name, op, args, value, index) -> tuple:
    """Check one library-built gate against the gates defined before it;
    return the positions of its operands.

    ``index`` maps every name defined so far to its position.  The rules:
    known kind, name syntax, no duplicate, a tuple or list of operands of
    the kind's arity, a 0/1 payload on const gates only, operands defined
    above.  Values of any type may come in, so each is checked for its
    type as well.  Raises NetlistError without a location; the Circuit adds
    the gate position.
    """
    try:
        arity = _ARITY.get(op)
    except TypeError:  # an unhashable op names no gate kind either
        arity = None
    if arity is None:
        raise NetlistError(f"unknown gate kind {op!r}")
    # for ASCII text, isidentifier() is exactly [A-Za-z_][A-Za-z0-9_]*
    try:
        named = name.isascii() and name.isidentifier()
    except AttributeError:  # not a string
        named = False
    if not named:
        raise NetlistError(f"invalid name {name!r}")
    if name in index:
        raise NetlistError(f"duplicate name {name!r}")
    if type(args) is not tuple and not isinstance(args, (tuple, list)):
        raise NetlistError(
            f"operands of gate {name!r} must be a tuple or a list, got {args!r}")
    if len(args) != arity:
        raise NetlistError(
            f"{op} gate {name!r} takes {arity} operand(s), got {len(args)}")
    if op == CONST:
        if type(value) is not int or value not in (0, 1):
            raise NetlistError(f"const gate {name!r} must carry 0 or 1")
    elif value is not None:
        raise NetlistError(f"{op} gate {name!r} must not carry a value")
    try:
        if arity == 2:
            return index[args[0]], index[args[1]]
        if arity:
            return (index[args[0]],)
        return ()
    except KeyError as exc:
        raise NetlistError(
            f"undefined reference {exc.args[0]!r} in gate {name!r}") from None
    except TypeError:  # an unhashable operand names no wire
        raise NetlistError(f"invalid operand in gate {name!r}: {args!r}") from None


@dataclass(frozen=True, repr=False)
class Circuit:
    """Immutable gate DAG in definition order plus the output wire list.

    Construction runs ``check_gate`` on every gate (unique names, known
    kinds, correct arities, no forward references) and checks the outputs,
    so every reachable Circuit is well formed.  ``parse_netlist`` checks
    its text with ``read_netlist`` instead and stores the parts through the
    same ``_fill``, without checking them again.  Evaluation and the
    analyses below are pure functions; a Circuit can be shared freely
    between threads.
    """

    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        gates = tuple(self.gates)
        index: dict[str, int] = {}
        inputs: list[str] = []
        arg_pos: list[tuple[int, ...]] = []
        retupled: list[Gate] | None = None
        pos = 0
        try:
            for pos, (name, op, args, value) in enumerate(gates):
                arg_pos.append(check_gate(name, op, args, value, index))
                if type(args) is not tuple:  # a list or a tuple subclass
                    if retupled is None:
                        retupled = list(gates)
                    retupled[pos] = Gate(name, op, tuple(args), value)
                if op == INPUT:
                    inputs.append(name)
                index[name] = pos
        except NetlistError as exc:
            raise NetlistError(str(exc), gate=pos) from None
        outputs = tuple(self.outputs)
        for o in outputs:
            try:
                defined = o in index
            except TypeError:  # an unhashable output names no wire
                defined = False
            if not defined:
                raise NetlistError(f"output references undefined gate {o!r}")
        self._fill(gates if retupled is None else tuple(retupled), outputs,
                   index, tuple(arg_pos), tuple(inputs))

    def _fill(self, gates, outputs, index, arg_pos, inputs) -> Circuit:
        """Store checked parts: the gates and outputs, each name's position,
        each gate's operand positions and the input names."""
        setattr_ = object.__setattr__
        setattr_(self, "gates", gates)
        setattr_(self, "outputs", outputs)
        setattr_(self, "_index", index)
        setattr_(self, "_arg_pos", arg_pos)
        setattr_(self, "_inputs", inputs)
        return self

    @property
    def inputs(self) -> tuple[str, ...]:
        """Input wire names, in definition order."""
        return self._inputs

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return (f"Circuit(inputs={len(self._inputs)}, gates={len(self.gates)}, "
                f"outputs={len(self.outputs)})")


def read_netlist(lines: Iterable[str], index: dict) -> Iterator[tuple]:
    """Check netlist lines one at a time and resolve their operands.

    Yields ``(line, kind, name, args, value, operands)`` per definition
    line and ``(line, OUTPUT, name, (), None, (index[name],))`` per
    ``output`` line, comments and blanks skipped.  ``kind`` is one of the
    module's kind constants, ``args`` the operand names and ``operands``
    what ``index`` maps them to.  ``index`` maps every name defined above
    the line: ``parse_netlist`` passes name -> position, the streamed
    dual-rail rewrite name -> zero-rail name, and the caller adds each yielded
    gate's name before it asks for the next line.

    Each line is checked once, in this order: keyword, token count, const
    value, name syntax, duplicate name, operands defined above.  The first
    fault raises NetlistError at its line.  Lines may keep their newline.
    """
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        try:
            kind, width = _KEYWORDS[tokens[0]]
        except KeyError:
            raise NetlistError(f"unknown keyword {tokens[0]!r}", lineno) from None
        if len(tokens) != width:
            raise NetlistError(
                f"{kind} line takes {width - 1} token(s) after the keyword, "
                f"got {len(tokens) - 1}", lineno)
        name = tokens[1]
        if kind is OUTPUT:
            if name not in index:
                raise NetlistError(f"undefined reference {name!r}", lineno)
            yield lineno, OUTPUT, name, (), None, (index[name],)
            continue
        value = None
        if kind is CONST:
            value = tokens[2]
            if value != "0" and value != "1":
                raise NetlistError(f"const value must be 0 or 1, got {value!r}", lineno)
            value = int(value)
        # for ASCII text, isidentifier() is exactly [A-Za-z_][A-Za-z0-9_]*
        if not (name.isascii() and name.isidentifier()):
            raise NetlistError(f"invalid name {name!r}", lineno)
        if name in index:
            raise NetlistError(f"duplicate name {name!r}", lineno)
        try:
            if width == 4:
                a = tokens[2]
                b = tokens[3]
                args = (a, b)
                operands = (index[a], index[b])
            elif kind is NOT:
                a = tokens[2]
                args = (a,)
                operands = (index[a],)
            else:
                args = operands = ()
        except KeyError as exc:
            raise NetlistError(f"undefined reference {exc.args[0]!r} in gate {name!r}",
                               lineno) from None
        yield lineno, kind, name, args, value, operands


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit, enforcing definition-before-use.

    Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as the CLI's files are
    read; other whitespace, form feed included, only separates tokens.
    Every check is ``read_netlist``'s, so the first faulty line in file
    order is reported; the checked parts become the Circuit as they are.
    """
    index: dict[str, int] = {}
    gates: list[Gate] = []
    arg_pos: list[tuple[int, ...]] = []
    inputs: list[str] = []
    outputs: list[str] = []
    if "\r" in text:  # universal newlines: \r\n and a lone \r end a line
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for _, kind, name, args, value, operands in read_netlist(text.split("\n"), index):
        if kind is OUTPUT:
            outputs.append(name)
            continue
        index[name] = len(gates)
        # tuple.__new__ skips the Python frame of Gate.__new__
        gates.append(tuple.__new__(Gate, (name, kind, args, value)))
        arg_pos.append(operands)
        if kind is INPUT:
            inputs.append(name)
    return object.__new__(Circuit)._fill(tuple(gates), tuple(outputs), index,
                                         tuple(arg_pos), tuple(inputs))


def emit_netlist(c: Circuit) -> str:
    """Render the canonical netlist text; parse(emit(c)) reproduces c."""
    lines = []
    append = lines.append
    for name, op, args, value in c.gates:
        if args:
            append(f"{op} {name} {' '.join(args)}")
        elif op == INPUT:
            append(f"input {name}")
        else:
            append(f"const {name} {value}")
    lines += ["output " + o for o in c.outputs]
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
