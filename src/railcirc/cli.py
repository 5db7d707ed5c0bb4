"""Command line front end.

Exit codes: 0 success, 1 a verification property failed, 2 usage, parse or
out-of-memory errors (including gate-cap overruns).  Results go to stdout,
diagnostics to stderr.  All subcommands are deterministic: the same
invocation produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from .circuit import emit_dot, parse_netlist, stats
from .dualrail import dual_rail_netlist, flatten_bits
from .tableau import DEFAULT_GATE_CAP, compile_netlist
from .tm import parse_tm
from .transducer import stream_flatten
from .verify import (FLATTENED, RAW, check_semantic_monotone,
                     enumerate_monotone_functions, exhaustive_equiv,
                     refute_eq_monotone)


def _read(path: str) -> str:
    # utf-8-sig: a leading byte-order mark is dropped, not read as text
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_compile_tm(args) -> int:
    tm = parse_tm(_read(args.machine))
    _write_out(compile_netlist(tm, args.n, args.t, args.flattened, args.gate_cap),
               args.out)
    return 0


def _cmd_flatten(args) -> int:
    if args.bits is not None:
        print(flatten_bits(args.bits))
        return 0
    with open(args.circuit, "r", encoding="utf-8-sig") as fh:
        text = dual_rail_netlist(fh)
    sys.stdout.write(text)
    return 0


def _verdict(report, holds: str) -> int:
    """Print holds and return 0 if there is no report, else its line and 1."""
    print(holds if report is None else report.to_line())
    return int(report is not None)


def _cmd_verify_equiv(args) -> int:
    b = parse_netlist(_read(args.source))
    m = parse_netlist(_read(args.target))
    return _verdict(exhaustive_equiv(b, m, FLATTENED if args.flattened else RAW),
                    "equivalent")


def _cmd_verify_monotone(args) -> int:
    circuit = parse_netlist(_read(args.circuit))
    return _verdict(check_semantic_monotone(circuit), "monotone")


def _cmd_verify_census(args) -> int:
    for table in enumerate_monotone_functions(args.n):
        print("".join(str(b) for b in table.bits))
    return 0


def _cmd_verify_eq_refute(args) -> int:
    report = refute_eq_monotone(args.n)
    chain = " <= ".join("(" + ",".join(str(b) for b in a) + ")"
                        for a in report.witness)
    mid = len(report.witness) // 2
    print(f"equality is not monotone: on the chain {chain} it takes values "
          f"{','.join(str(v) for v in report.observed)}, but any monotone "
          f"function valued 1 at both ends is forced to 1 at the midpoint, "
          f"where equality gives {report.observed[mid]}")
    print(report.to_line())
    return 0


def _cmd_stream_flatten(args) -> int:
    del args
    reads = iter(functools.partial(sys.stdin.read, 8192), "")
    # a leading byte-order mark is dropped, as when a file is read
    first = next(reads, "").removeprefix("\ufeff")
    bits = (read.replace("\r", "").replace("\n", "")
            for read in itertools.chain((first,), reads))
    result = stream_flatten(bits, sys.stdout)
    print(f"read={result.input_bits_read} written={result.output_bits_written} "
          f"peak_state_bits={result.peak_state_bits}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    s = stats(parse_netlist(_read(args.circuit)))
    print(f"inputs={s.input_count} consts={s.const_count} and={s.and_count} "
          f"or={s.or_count} not={s.not_count} outputs={s.output_count} "
          f"depth={s.depth} total={s.total_gates}")
    return 0


def _cmd_emit_dot(args) -> int:
    circuit = parse_netlist(_read(args.circuit))
    _write_out(emit_dot(circuit), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railcirc",
        description="Dual-rail circuit toolkit: compile Turing machines to "
                    "circuits, flatten away NOT gates, verify exhaustively.")
    parser.add_argument("--gate-cap", type=int, default=DEFAULT_GATE_CAP,
                        help="abort compilation beyond this many gates "
                             "(default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile-tm", help="compile a machine to a netlist")
    p.add_argument("machine", help="machine description file")
    p.add_argument("-n", type=int, required=True, help="input length in bits")
    p.add_argument("-t", type=int, required=True, help="step budget")
    p.add_argument("--flattened", action="store_true",
                   help="emit the NOT-free rail-input variant")
    p.add_argument("--out", help="write the netlist here instead of stdout")
    p.set_defaults(func=_cmd_compile_tm)

    p = sub.add_parser("flatten", help="flatten a bit-string or a circuit")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("circuit", nargs="?",
                       help="netlist to rewrite into dual-rail form")
    group.add_argument("--bits", help="bit-string to encode")
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("verify", help="run a verification pass")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("equiv", help="exhaustive circuit equivalence")
    v.add_argument("--flattened", action="store_true",
                   help="feed the second circuit rail-encoded assignments")
    v.add_argument("source")
    v.add_argument("target")
    v.set_defaults(func=_cmd_verify_equiv)

    v = vsub.add_parser("monotone", help="exhaustive semantic monotonicity")
    v.add_argument("circuit")
    v.set_defaults(func=_cmd_verify_monotone)

    v = vsub.add_parser("census", help="list all monotone functions")
    v.add_argument("-n", type=int, required=True, help="function arity (1..4)")
    v.set_defaults(func=_cmd_verify_census)

    v = vsub.add_parser("eq-refute",
                        help="certify that equality is not monotone")
    v.add_argument("-n", type=int, default=1, choices=(1, 2),
                   help="word width in bits (default 1)")
    v.set_defaults(func=_cmd_verify_eq_refute)

    p = sub.add_parser("stream-flatten",
                       help="flatten stdin bits to stdout, stats on stderr")
    p.set_defaults(func=_cmd_stream_flatten)

    p = sub.add_parser("stats", help="print gate counts and depth")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("emit-dot", help="render a circuit as Graphviz dot")
    p.add_argument("circuit")
    p.add_argument("--out", help="write the dot text here instead of stdout")
    p.set_defaults(func=_cmd_emit_dot)

    return parser


# Built once: parsing reads only argv and writes only a fresh namespace.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
