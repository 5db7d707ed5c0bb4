"""Single-pass streaming bit flattener with working-memory accounting.

The transducer reads its source once, front to back, a block of bits at a
time, and writes the two-bit encoding of each block (0 -> 10, 1 -> 01)
before it reads the next.  What it remembers between reads is a count of
the bits read plus a fixed finite control, so the instrumented peak is
exactly ceil(log2(bits_read + 1)) + CONTROL_STATE_BITS: logarithmic in the
input length.  The count leaves out the block the caller hands over and the
encoded block on its way to the sink; both pass through, and their size is
the caller's choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dualrail import non_bit, rail_block

# Width of the fixed control component of the streaming loop (phase plus
# halt flag); everything else the transducer remembers is the read counter,
# whose width is what grows with the input.
CONTROL_STATE_BITS = 2


@dataclass(frozen=True)
class TransducerStats:
    input_bits_read: int
    output_bits_written: int
    peak_state_bits: int


def stream_flatten(source, sink) -> TransducerStats:
    """Flatten a bit stream into ``sink`` in one forward pass.

    Each item of ``source`` is a ``str`` block of zero or more '0'/'1'
    characters; any other item is a non-bit and raises ValueError naming
    it.  A ``str`` source is already whole in memory, so it is one block,
    not one per character.  A block is checked and encoded by
    ``dualrail.rail_block``, the encoder ``flatten_bits`` uses, and goes to
    ``sink`` (anything with a ``write`` method taking str) in one write,
    before the next item is read.  A symbol that is not a bit raises
    ValueError naming it and its position in the stream, after the
    encoding of the bits before it in its block has been written.

    ``peak_state_bits`` counts the read counter and the control only:
    ``reads.bit_length() + CONTROL_STATE_BITS``.  The counter only grows,
    so its width at the end is its widest.
    """
    if isinstance(source, str):
        source = (source,)
    write = sink.write
    reads = 0
    for item in source:
        if not isinstance(item, str):
            raise non_bit(item, reads)
        rails, bad = rail_block(item)
        write(rails)
        if bad >= 0:
            raise non_bit(item[bad], reads + bad)
        reads += len(item)
    return TransducerStats(reads, 2 * reads, reads.bit_length() + CONTROL_STATE_BITS)
