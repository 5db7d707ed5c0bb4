"""Independent reference for checking the program's outputs.

A netlist reader and bit-parallel evaluator written for the benchmark
alone: it shares no code with ``railcirc``, so a defect in the library's
parser, evaluator or verifier cannot hide itself by also breaking the check.
A mask carries one bit per assignment; bit j of an input's mask is that
input's value in assignment j.
"""

from __future__ import annotations

INPUT, CONST, AND, OR, NOT = range(5)
_CODES = {"input": INPUT, "const": CONST, "and": AND, "or": OR, "not": NOT}


class Netlist:
    """Gates as ``(code, a, b)`` with operand positions; no validation
    beyond what reading needs, since the program's output is on trial."""

    def __init__(self, text: str):
        pos: dict[str, int] = {}
        self.ops: list[tuple] = []
        self.inputs: list[str] = []
        self.outputs: list[int] = []
        for line in text.split("\n"):
            tok = line.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] == "output":
                self.outputs.append(pos[tok[1]])
                continue
            code = _CODES[tok[0]]
            pos[tok[1]] = len(self.ops)
            if code == INPUT:
                self.inputs.append(tok[1])
                self.ops.append((INPUT, tok[1], None))
            elif code == CONST:
                self.ops.append((CONST, tok[2] == "1", None))
            elif code == NOT:
                self.ops.append((NOT, pos[tok[2]], None))
            else:
                self.ops.append((code, pos[tok[2]], pos[tok[3]]))

    @property
    def gates(self) -> int:
        return len(self.ops)

    def count(self, code: int) -> int:
        return sum(1 for op in self.ops if op[0] == code)

    def depth(self) -> int:
        """Longest path to an output, counting every gate with operands."""
        d = [0] * len(self.ops)
        for i, (code, a, b) in enumerate(self.ops):
            if code in (AND, OR):
                d[i] = 1 + max(d[a], d[b])
            elif code == NOT:
                d[i] = 1 + d[a]
        return max((d[o] for o in self.outputs), default=0)

    def evaluate(self, masks: dict[str, int], full: int) -> list[int]:
        """Output masks, driving each input by name from ``masks``."""
        vals = [0] * len(self.ops)
        for i, (code, a, b) in enumerate(self.ops):
            if code == AND:
                vals[i] = vals[a] & vals[b]
            elif code == OR:
                vals[i] = vals[a] | vals[b]
            elif code == NOT:
                vals[i] = full ^ vals[a]
            elif code == INPUT:
                vals[i] = masks[a]
            else:
                vals[i] = full if a else 0
        return [vals[o] for o in self.outputs]


def input_masks(names: list[str], assignments: list[str]) -> dict[str, int]:
    """Masks for assignments given as bit strings, one character per input."""
    masks = {}
    for i, name in enumerate(names):
        m = 0
        for j, bits in enumerate(assignments):
            if bits[i] == "1":
                m |= 1 << j
        masks[name] = m
    return masks


def rail_masks(masks: dict[str, int], full: int) -> dict[str, int]:
    """Dual-rail inputs ``w__0`` (hot when w is 0) and ``w__1`` per input w."""
    out = {}
    for name, m in masks.items():
        out[name + "__0"] = full ^ m
        out[name + "__1"] = m
    return out


def all_assignments(n: int) -> list[str]:
    """Every n-bit assignment in index order, first input most significant."""
    return [format(i, f"0{n}b") for i in range(1 << n)] if n else [""]


def is_monotone_bits(bits: str, n: int) -> bool:
    """bits[i] is the value on assignment i, first input most significant;
    monotone means raising any single input never lowers the value."""
    for i in range(1 << n):
        for w in range(n):
            j = i | (1 << w)
            if bits[i] > bits[j]:
                return False
    return True
