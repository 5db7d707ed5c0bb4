"""Boolean circuit IR: a named-gate DAG plus a line-oriented netlist format.

The gate kinds are ``input``, ``const``, ``and``, ``or`` and ``not``.  A
circuit is an immutable sequence of gates in definition order together with
the designated output wires; definitions must appear before use, so a
well-formed netlist is already topologically sorted and acyclic.

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

Netlist text is checked in file order by one scanner, ``read_netlist``,
one line at a time: the Circuit constructor and the streamed dual-rail
rewrite both read it, so both report the first faulty line with the same
message.  The one exception is a run of canonical const lines, ``const
NAME 0|1`` with single spaces, each starting a line and ending in a
newline, which is most of a compiled tableau, one run per grid row.  The
constructor checks such a run at a time: a name defined twice is its only
possible fault, and a run that has one goes to ``read_netlist`` line by
line, which reports it.  A Circuit is built from netlist text only (``parse_netlist``), so every
Circuit has passed that one check.  It stores what the check
resolved, one column per field: names, kinds, operand positions and const
values, all indexed by gate position.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator

INPUT = "input"
CONST = "const"
AND = "and"
OR = "or"
NOT = "not"
OUTPUT = "output"  # the keyword of an output line, not a gate kind

# Per netlist keyword: its kind and its number of tokens, keyword included.
# The kind is the module's own string object, so a parsed gate holds no
# per-line keyword token.
_KEYWORDS = {kind: (kind, width) for kind, width in (
    (INPUT, 2), (CONST, 3), (AND, 4), (OR, 4), (NOT, 3), (OUTPUT, 2))}

# A run of canonical const lines, as compile_netlist and emit_netlist write
# them.  It opens with the literal "const ", which re finds by a prefix
# search; an anchor or a leading group would cost a match try per offset.
_CONST_RUN = re.compile(
    r"const [A-Za-z_][A-Za-z0-9_]* [01]\n(?:const [A-Za-z_][A-Za-z0-9_]* [01]\n)*")
_BITS = {"0": 0, "1": 1}


class NetlistError(ValueError):
    """Malformed netlist text: ``line`` is the 1-based line of the first
    fault, or None for a fault a line number cannot place."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, repr=False)
class Circuit:
    """Immutable gate DAG in definition order plus the output wire list,
    built from netlist text.

    ``Circuit(text)``, which ``parse_netlist`` calls, checks the text with
    ``read_netlist`` and keeps what it resolved as columns indexed by gate
    position: ``names``, ``kinds`` (the kind constants), ``first`` and
    ``second`` (operand positions, -1 where the kind takes fewer operands),
    ``values`` (0 or 1 on const gates, else None), plus ``outputs`` and
    ``inputs`` by name.  Definitions precede their uses, so the columns are
    in topological order.  Two circuits are equal when their columns and
    outputs are.  Evaluation and the analyses below are pure functions; a
    Circuit can be shared freely between threads.
    """

    text: InitVar[str]
    names: tuple[str, ...] = field(init=False)
    kinds: tuple[str, ...] = field(init=False)
    first: tuple[int, ...] = field(init=False)
    second: tuple[int, ...] = field(init=False)
    values: tuple[int | None, ...] = field(init=False)
    outputs: tuple[str, ...] = field(init=False)
    inputs: tuple[str, ...] = field(init=False, compare=False)
    _index: dict[str, int] = field(init=False, compare=False)

    def __post_init__(self, text: str):
        """Check ``text`` and store its columns.

        Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as the CLI's
        files are read; other whitespace, form feed included, only
        separates tokens.  Each run of canonical const lines that starts a
        line is checked as one run, every other line by ``read_netlist``.
        """
        index: dict[str, int] = {}
        columns = names, kinds, first, second, values, outputs, inputs = (
            [], [], [], [], [], [], [])
        if "\r" in text:  # universal newlines: \r\n and a lone \r end a line
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        pos, lineno = 0, 1  # the first line not yet checked
        run = _const_run(text, 0)
        while pos < len(text):
            end = run.start() if run else len(text)
            if pos == end:
                # A run's lines are well formed, so a name defined twice is
                # their one possible fault.  index maps each name in names,
                # so it grows by k only if every run name is new; otherwise
                # it is rebuilt and read_netlist reports the first duplicate.
                tokens = run.group().split()
                run_names = tokens[1::3]
                k = len(run_names)
                index.update(zip(run_names, range(len(names), len(names) + k)))
                if len(index) == len(names) + k:
                    names += run_names
                    kinds += [CONST] * k
                    first += [-1] * k
                    second += [-1] * k
                    values += map(_BITS.__getitem__, tokens[2::3])
                    lineno += k
                    pos = run.end()
                    run = _const_run(text, pos)
                    continue
                index.clear()
                index.update(zip(names, range(len(names))))
                end = run.end()  # read_netlist raises within the run
            lines = text[pos:end].split("\n")
            for _, kind, name, value, a, b in read_netlist(lines, index, lineno):
                if kind is OUTPUT:
                    outputs.append(name)
                    continue
                index[name] = len(names)
                names.append(name)
                kinds.append(kind)
                first.append(a)
                second.append(b)
                values.append(value)
                if kind is INPUT:
                    inputs.append(name)
            lineno += len(lines) - 1
            pos = end
        for attr, column in zip(("names", "kinds", "first", "second", "values",
                                 "outputs", "inputs"), columns):
            object.__setattr__(self, attr, tuple(column))
        object.__setattr__(self, "_index", index)

    @property
    def gates(self) -> range:
        """The gate positions in definition order, which index every column."""
        return range(len(self.names))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return (f"Circuit(inputs={len(self.inputs)}, gates={len(self.names)}, "
                f"outputs={len(self.outputs)})")


def _const_run(text: str, pos: int) -> re.Match | None:
    """The first run of canonical const lines in text at or after pos that
    starts a line, or None."""
    run = _CONST_RUN.search(text, pos)
    while run and run.start() and text[run.start() - 1] != "\n":
        run = _CONST_RUN.search(text, run.start() + 1)
    return run


def read_netlist(lines: Iterable[str], index: dict, start: int = 1) -> Iterator[tuple]:
    """Check netlist lines one at a time and resolve their operands.

    Yields ``(line, kind, name, value, a, b)`` per definition line and
    ``(line, OUTPUT, name, None, index[name], -1)`` per ``output`` line,
    comments and blanks skipped.  ``kind`` is one of the module's kind
    constants, ``value`` a const gate's 0 or 1 (else None), and ``a`` and
    ``b`` what ``index`` maps the operands to, -1 where the kind takes
    fewer.  ``index`` maps every name defined above the line: a Circuit
    passes name -> position, the streamed dual-rail rewrite name ->
    zero-rail name, and the caller adds each yielded gate's name before it
    asks for the next line.

    Each line is checked once, in this order: keyword, token count, const
    value, name syntax, duplicate name, operands defined above.  The first
    fault raises NetlistError at its line.  Lines may keep their newline.
    """
    for lineno, raw in enumerate(lines, start):
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
            yield lineno, OUTPUT, name, None, index[name], -1
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
                a = index[tokens[2]]
                b = index[tokens[3]]
            elif kind is NOT:
                a = index[tokens[2]]
                b = -1
            else:
                a = b = -1
        except KeyError as exc:
            raise NetlistError(f"undefined reference {exc.args[0]!r} in gate {name!r}",
                               lineno) from None
        yield lineno, kind, name, value, a, b


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit, enforcing definition-before-use.

    The one way to build a Circuit: every check is ``read_netlist``'s, run
    by the constructor, so the first faulty line in file order is reported.
    """
    return Circuit(text)


def emit_netlist(c: Circuit) -> str:
    """Render the canonical netlist text; parse(emit(c)) reproduces c."""
    names = c.names
    lines = []
    append = lines.append
    for name, kind, a, b, value in zip(names, c.kinds, c.first, c.second, c.values):
        if b >= 0:
            append(f"{kind} {name} {names[a]} {names[b]}")
        elif a >= 0:
            append(f"not {name} {names[a]}")
        elif value is None:
            append(f"input {name}")
        else:
            append(f"const {name} {value}")
    lines += ["output " + o for o in c.outputs]
    return "\n".join(lines) + "\n" if lines else ""


def is_structurally_monotone(c: Circuit) -> bool:
    """True when the circuit contains no NOT gate (and/or/input/const only)."""
    return NOT not in c.kinds


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
    """The gate count per kind plus the longest source-to-output path length."""
    counts = Counter(c.kinds)
    depth = [0] * len(c.names)
    for pos, a, b in zip(range(len(depth)), c.first, c.second):
        if b >= 0:
            depth[pos] = 1 + max(depth[a], depth[b])
        elif a >= 0:
            depth[pos] = 1 + depth[a]
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
        total_gates=len(depth),
    )


_DOT_SHAPE = {INPUT: "ellipse", CONST: "diamond", AND: "box", OR: "box", NOT: "box"}


def emit_dot(c: Circuit) -> str:
    """Graphviz rendering: one node per gate, one edge per operand use.

    Nodes and edges are emitted in gate definition order, so the output is
    byte-stable for a given circuit.  Output gates get a double border.
    """
    out = ["digraph circuit {", "  rankdir=LR;"]
    marked = set(c.outputs)
    names = c.names
    for name, kind, value in zip(names, c.kinds, c.values):
        if kind is INPUT:
            label = name
        elif kind is CONST:
            label = f"{name}={value}"
        else:
            label = f"{kind}\\n{name}"
        attrs = f'shape={_DOT_SHAPE[kind]}, label="{label}"'
        if name in marked:
            attrs += ", peripheries=2"
        out.append(f'  "{name}" [{attrs}];')
    for name, a, b in zip(names, c.first, c.second):
        if a >= 0:
            out.append(f'  "{names[a]}" -> "{name}";')
        if b >= 0:
            out.append(f'  "{names[b]}" -> "{name}";')
    out.append("}")
    return "\n".join(out) + "\n"
