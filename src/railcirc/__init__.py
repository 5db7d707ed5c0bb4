"""railcirc: dual-rail circuit toolkit.

Compile deterministic Turing machines into Boolean circuits whose only NOT
gates sit at the input layer, flatten circuits and bit-strings into the
dual-rail encoding that eliminates negation entirely, and verify the results
exhaustively (equivalence, monotonicity, one-hot structure, size bounds).
"""

from .bitsim import evaluate, wire_values
from .circuit import (AND, CONST, INPUT, NOT, OR, Circuit, CircuitStats,
                      NetlistError, emit_dot, emit_netlist,
                      is_structurally_monotone, parse_netlist, stats)
from .dualrail import (RAIL_SEPARATOR, build_eq_classifier, dual_rail_transform,
                       flatten_bits, rail_map, unflatten_bits,
                       validate_rail_complement)
from .reports import (EQUIVALENCE, MONOTONICITY, ONE_HOT, RAIL,
                      CounterexampleReport)
from .tableau import (DEFAULT_GATE_CAP, GateCapError, cell_alphabet, compile_tm,
                      compile_tm_flattened, config_cells, tableau_trace)
from .tm import (ACCEPT, BLANK, REJECT, TIMEOUT, Configuration, TMError,
                 TuringMachine, initial_configuration, parse_tm, run, step)
from .transducer import CONTROL_STATE_BITS, TransducerStats, stream_flatten
from .verify import (FLATTENED, RAW, SizeReport, TruthTable,
                     check_semantic_monotone, enumerate_monotone_functions,
                     eq_truth_table, exhaustive_equiv, is_monotone_table,
                     refute_eq_monotone, size_report, truth_table)

__version__ = "0.1.0"
