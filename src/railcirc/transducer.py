"""Single-pass streaming bit flattener with working-memory accounting.

The transducer reads the input once, front to back, and emits the two-bit
encoding of each bit (0 -> 10, 1 -> 01) before the next read.  Its working
state is a position counter plus a fixed finite control, so the instrumented
peak is exactly ceil(log2(bits_read + 1)) + CONTROL_STATE_BITS, i.e. the
memory footprint is logarithmic in the input length.
"""

from __future__ import annotations

from dataclasses import dataclass

# Width of the fixed control component of the streaming loop (phase plus
# halt flag); everything else the transducer remembers is the position
# counter, whose width is what grows with the input.
CONTROL_STATE_BITS = 2

_ENCODE = {"0": "10", "1": "01", 0: "10", 1: "01"}


@dataclass(frozen=True)
class TransducerStats:
    input_bits_read: int
    output_bits_written: int
    peak_state_bits: int


def stream_flatten(source, sink) -> TransducerStats:
    """Flatten a bit stream into ``sink`` in one forward pass.

    ``source`` yields bits as '0'/'1' characters (ints 0/1 also accepted);
    each is looked up in one encoding table, and anything else raises
    ``ValueError``.  ``sink`` is file-like (a ``write`` method taking str).
    Both encoded output bits of a read are written before the next read
    happens.  The peak grows by one bit each time the read count reaches a
    power of two, so it equals ``reads.bit_length() + CONTROL_STATE_BITS``.
    """
    write = sink.write
    reads = 0
    widens_at = 1  # the read count at which the counter needs one more bit
    peak = CONTROL_STATE_BITS
    for bit in source:
        try:
            pair = _ENCODE[bit]
        except (KeyError, TypeError):  # TypeError: an unhashable symbol
            raise ValueError(f"non-bit symbol {bit!r} in source") from None
        write(pair)
        reads += 1
        if reads == widens_at:
            peak += 1
            widens_at <<= 1
    return TransducerStats(reads, 2 * reads, peak)
