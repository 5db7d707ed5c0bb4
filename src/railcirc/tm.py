"""Deterministic single-tape Turing machines: description format and simulator.

Machine description grammar (line-oriented, ``#`` starts a comment):

    states:   q0 qa qr
    alphabet: 0 1 _
    start:    q0
    accept:   qa
    reject:   qr
    delta:    q0 0 -> q0 0 R

The tape alphabet must contain the input symbols 0 and 1 and the blank
``_``.  The transition table must be total on every non-halting state and
may not leave accept or reject.  The tape is one-way infinite: a left move
at cell 0 leaves the head in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

BLANK = "_"
LEFT = "L"
RIGHT = "R"

ACCEPT = "ACCEPT"
REJECT = "REJECT"
TIMEOUT = "TIMEOUT"


class TMError(ValueError):
    """Malformed machine description."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class TuringMachine:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    start: str
    accept: str
    reject: str
    delta: Mapping[tuple[str, str], tuple[str, str, str]]


@dataclass(frozen=True)
class Configuration:
    """One machine snapshot; cells beyond the written tape read as blank."""

    tape: tuple[str, ...]
    head: int
    state: str
    steps_taken: int = 0

    def symbol_under_head(self) -> str:
        return self.tape[self.head] if self.head < len(self.tape) else BLANK


def parse_tm(text: str) -> TuringMachine:
    states = alphabet = None
    roles: dict[str, str] = {}  # start, accept and reject state names
    delta: dict[tuple[str, str], tuple[str, str, str]] = {}
    delta_lines: list[tuple[int, str, str, str, str, str]] = []

    # lines end at \n, \r\n or a lone \r, as a netlist's do
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise TMError("expected 'key: value'", lineno)
        key = key.strip()
        rest = rest.strip()
        if key == "states":
            if states is not None:
                raise TMError("states given twice", lineno)
            states = tuple(rest.split())
            if not states:
                raise TMError("empty state list", lineno)
            if len(set(states)) != len(states):
                raise TMError("repeated state name", lineno)
        elif key == "alphabet":
            if alphabet is not None:
                raise TMError("alphabet given twice", lineno)
            alphabet = tuple(rest.split())
            if len(set(alphabet)) != len(alphabet):
                raise TMError("repeated symbol", lineno)
        elif key in ("start", "accept", "reject"):
            if key in roles:
                raise TMError(f"{key} given twice", lineno)
            tokens = rest.split()
            if len(tokens) != 1:
                raise TMError(f"{key} takes exactly one state", lineno)
            roles[key] = tokens[0]
        elif key == "delta":
            lhs, arrow, rhs = rest.partition("->")
            if not arrow:
                raise TMError("delta line needs '->'", lineno)
            lt = lhs.split()
            rt = rhs.split()
            if len(lt) != 2 or len(rt) != 3:
                raise TMError("delta format is: q s -> q' s' (L|R)", lineno)
            delta_lines.append((lineno, lt[0], lt[1], rt[0], rt[1], rt[2]))
        else:
            raise TMError(f"unknown directive {key!r}", lineno)

    start, accept, reject = (roles.get(k) for k in ("start", "accept", "reject"))
    for name, value in (("states", states), ("alphabet", alphabet),
                        ("start", start), ("accept", accept), ("reject", reject)):
        if value is None:
            raise TMError(f"missing {name} directive")
    for sym in ("0", "1", BLANK):
        if sym not in alphabet:
            raise TMError(f"alphabet must contain {sym!r}")
    for name, q in (("start", start), ("accept", accept), ("reject", reject)):
        if q not in states:
            raise TMError(f"{name} state {q!r} not declared")
    if accept == reject:
        raise TMError("accept and reject states must differ")

    halting = (accept, reject)
    for lineno, q, s, q2, s2, d in delta_lines:
        if q not in states:
            raise TMError(f"unknown state {q!r}", lineno)
        if q in halting:
            raise TMError(f"transition out of halting state {q!r}", lineno)
        if q2 not in states:
            raise TMError(f"unknown state {q2!r}", lineno)
        if s not in alphabet or s2 not in alphabet:
            raise TMError("unknown symbol in delta", lineno)
        if d not in (LEFT, RIGHT):
            raise TMError(f"direction must be L or R, got {d!r}", lineno)
        if (q, s) in delta:
            raise TMError(f"duplicate transition for ({q}, {s})", lineno)
        delta[(q, s)] = (q2, s2, d)

    for q in states:
        if q in halting:
            continue
        for s in alphabet:
            if (q, s) not in delta:
                raise TMError(f"missing transition ({q}, {s})")

    return TuringMachine(states, alphabet, start, accept, reject, delta)


def initial_configuration(tm: TuringMachine, input_str: str) -> Configuration:
    bad = set(input_str) - {"0", "1"}
    if bad:
        raise ValueError(f"input symbol {sorted(bad)[0]!r} is not a bit")
    return Configuration(tuple(input_str), 0, tm.start, 0)


def step(tm: TuringMachine, conf: Configuration) -> Configuration:
    """Apply one transition; raises if the machine has already halted."""
    if conf.state in (tm.accept, tm.reject):
        raise ValueError("machine already halted")
    sym = conf.symbol_under_head()
    q2, s2, d = tm.delta[(conf.state, sym)]
    tape = list(conf.tape)
    if conf.head >= len(tape):
        tape.extend(BLANK for _ in range(conf.head - len(tape) + 1))
    tape[conf.head] = s2
    if d == RIGHT:
        head = conf.head + 1
    else:
        head = max(0, conf.head - 1)  # left wall
    return Configuration(tuple(tape), head, q2, conf.steps_taken + 1)


def run(tm: TuringMachine, input_str: str, max_steps: int) -> tuple[str, Configuration]:
    """Run for at most max_steps transitions.

    Returns (verdict, final configuration) where verdict is ACCEPT, REJECT
    or TIMEOUT.  A machine that halts early keeps its final configuration;
    TIMEOUT means the step budget ran out first.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    conf = initial_configuration(tm, input_str)
    while conf.state not in (tm.accept, tm.reject) and conf.steps_taken < max_steps:
        conf = step(tm, conf)
    if conf.state == tm.accept:
        return ACCEPT, conf
    if conf.state == tm.reject:
        return REJECT, conf
    return TIMEOUT, conf
