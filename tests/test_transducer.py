"""Streaming flattener: single pass, interleaving, logarithmic state."""

import random
import re

import pytest

from railcirc import (CONTROL_STATE_BITS, TransducerStats, flatten_bits,
                      stream_flatten)

from helpers import OneShotSource


class RecordingSink:
    def __init__(self):
        self.chunks = []

    def write(self, s):
        self.chunks.append(s)

    @property
    def text(self):
        return "".join(self.chunks)


def test_empty_stream():
    sink = RecordingSink()
    assert stream_flatten("", sink) == TransducerStats(0, 0, CONTROL_STATE_BITS)
    assert sink.text == ""


def test_single_bits():
    sink = RecordingSink()
    assert stream_flatten("0", sink) == TransducerStats(1, 2, 3)
    assert sink.text == "10"
    sink = RecordingSink()
    assert stream_flatten("1", sink) == TransducerStats(1, 2, 3)
    assert sink.text == "01"


def test_output_matches_block_flattening():
    rng = random.Random(42)
    for _ in range(30):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 200)))
        sink = RecordingSink()
        result = stream_flatten(bits, sink)
        assert sink.text == flatten_bits(bits)
        assert result.input_bits_read == len(bits)
        assert result.output_bits_written == 2 * len(bits)


def test_str_source_is_one_block():
    sink = RecordingSink()
    assert stream_flatten("0110", sink) == TransducerStats(4, 8, 5)
    assert sink.chunks == ["10010110"]


def test_refuses_number_items():
    # an item is a str block; a number equal to a bit is not one
    for bad in (0, 1, True, False, 0.0, 1.0):
        sink = RecordingSink()
        message = f"^non-bit symbol {re.escape(repr(bad))} at position 0$"
        with pytest.raises(ValueError, match=message):
            stream_flatten([bad, "1"], sink)
        assert sink.chunks == [], bad


def test_source_consumed_in_one_forward_pass():
    src = OneShotSource("01101")
    sink = RecordingSink()
    result = stream_flatten(src, sink)
    assert src.reads == 5
    assert result.input_bits_read == 5


def test_both_output_bits_written_before_next_read():
    sink = RecordingSink()
    written_at_read = []

    def src():
        for ch in "0110":
            written_at_read.append(len(sink.text))
            yield ch

    stream_flatten(src(), sink)
    assert written_at_read == [0, 2, 4, 6]


def test_rejects_non_bit_mid_stream():
    sink = RecordingSink()
    with pytest.raises(ValueError, match="non-bit"):
        stream_flatten("01x0", sink)
    # everything before the bad symbol was already emitted
    assert sink.text == "1001"


def test_peak_state_is_logarithmic():
    for k in range(1, 15):
        n = 1 << k
        sink = RecordingSink()
        result = stream_flatten("0" * n, sink)
        assert result.peak_state_bits == k + 1 + CONTROL_STATE_BITS
        assert result.peak_state_bits <= k + 8
    # concretely: 16384 input bits fit in a 17-bit working state
    assert stream_flatten("1" * 16384, RecordingSink()).peak_state_bits == 17


def test_peak_grows_by_at_most_one_per_doubling():
    peaks = {}
    for k in range(1, 14):
        sink = RecordingSink()
        peaks[k] = stream_flatten("10" * (1 << (k - 1)), sink).peak_state_bits
    for k in range(2, 14):
        assert 0 <= peaks[k] - peaks[k - 1] <= 1


def test_peak_is_monotone_in_prefix_length():
    # a longer input can only raise the peak
    prev = 0
    for n in range(0, 40):
        result = stream_flatten("1" * n, RecordingSink())
        assert result.peak_state_bits >= prev
        prev = result.peak_state_bits


def test_peak_is_exact_across_powers_of_two():
    # 0..2100 crosses every power of two up to 2**11
    for n in range(0, 2101):
        result = stream_flatten("1" * n, RecordingSink())
        assert result.input_bits_read == n
        assert result.peak_state_bits == n.bit_length() + CONTROL_STATE_BITS


@pytest.mark.parametrize("bad", ["2", "\r", None, 2, [0]],
                         ids=["char-2", "carriage-return", "none", "int-2", "unhashable"])
def test_rejects_each_non_bit_after_writing_the_prefix(bad):
    sink = RecordingSink()
    with pytest.raises(ValueError, match="non-bit"):
        stream_flatten(["1", "0", bad, "0"], sink)
    assert sink.text == "0110"


def test_sink_errors_are_not_reported_as_non_bits():
    class BrokenSink:
        def write(self, s):
            raise TypeError("sink refuses")

    with pytest.raises(TypeError, match="sink refuses"):
        stream_flatten("01", BrokenSink())


def _rails(bits):
    return "".join({"0": "10", "1": "01"}[b] for b in bits)


def test_random_block_splits_match_flatten_bits():
    rng = random.Random(9)
    for _ in range(200):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
        cuts = sorted(rng.randint(0, len(bits)) for _ in range(rng.randint(0, 8)))
        blocks = [bits[i:j] for i, j in zip([0] + cuts, cuts + [len(bits)])]
        sink = RecordingSink()
        result = stream_flatten(iter(blocks), sink)
        assert sink.text == flatten_bits(bits) == _rails(bits)
        assert result == TransducerStats(
            len(bits), 2 * len(bits), len(bits).bit_length() + CONTROL_STATE_BITS)


def test_bad_symbol_mid_block_leaves_the_prefix_encoding():
    sink = RecordingSink()
    with pytest.raises(ValueError, match=r"^non-bit symbol 'x' at position 5$"):
        stream_flatten(iter(["011", "01x10", "1"]), sink)
    assert sink.text == _rails("01101")


def test_non_ascii_symbol_is_a_non_bit():
    sink = RecordingSink()
    with pytest.raises(ValueError, match=r"^non-bit symbol 'é' at position 1$"):
        stream_flatten(iter(["0é1"]), sink)
    assert sink.text == "10"


def test_a_byte_order_mark_is_a_non_bit():
    # only the CLI drops a leading mark; the library refuses it anywhere
    with pytest.raises(ValueError, match=r"^non-bit symbol '\\ufeff' at position 0$"):
        stream_flatten("\ufeff01", RecordingSink())


def test_block_encoding_written_before_next_block_read():
    sink = RecordingSink()
    written_at_read = []

    def src():
        for block in ("011", "", "1", "0000"):
            written_at_read.append(len(sink.text))
            yield block

    stream_flatten(src(), sink)
    assert written_at_read == [0, 6, 6, 8]
    assert sink.chunks == ["100101", "", "01", "10101010"]


def test_empty_block_reads_nothing():
    sink = RecordingSink()
    assert stream_flatten([""], sink) == TransducerStats(0, 0, CONTROL_STATE_BITS)
    assert sink.text == ""
    assert stream_flatten(["", "1", ""], sink) == TransducerStats(1, 2, 3)
