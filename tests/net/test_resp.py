"""RESP2 codec tests: round-trips, partial-read reassembly, protocol errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.resp import (
    INCOMPLETE,
    NIL_ARRAY,
    ErrorReply,
    ProtocolError,
    RespDecoder,
    SimpleString,
    encode_command,
    encode_reply,
)

pytestmark = pytest.mark.network


def roundtrip(value):
    decoder = RespDecoder()
    decoder.feed(encode_reply(value))
    out = decoder.decode()
    assert out is not INCOMPLETE
    assert len(decoder) == 0
    return out


class TestReplyRoundtrip:
    def test_simple_string(self):
        out = roundtrip(SimpleString("OK"))
        assert out == "OK"
        assert isinstance(out, str)

    def test_error(self):
        out = roundtrip(ErrorReply("WRONGTYPE wrong kind of value"))
        assert isinstance(out, ErrorReply)
        assert out.code == "WRONGTYPE"

    def test_integer(self):
        assert roundtrip(42) == 42
        assert roundtrip(-7) == -7

    def test_bool_is_integer_on_the_wire(self):
        assert roundtrip(True) == 1
        assert roundtrip(False) == 0

    def test_bulk_string(self):
        assert roundtrip(b"hello") == b"hello"
        assert roundtrip("café") == "café".encode("utf-8")

    def test_bulk_with_crlf_inside(self):
        # Length-prefixed framing must not be confused by embedded CRLF.
        assert roundtrip(b"a\r\nb\r\nc") == b"a\r\nb\r\nc"

    def test_nil(self):
        assert roundtrip(None) is None

    def test_nil_array(self):
        assert roundtrip(NIL_ARRAY) is None

    def test_empty_array(self):
        assert roundtrip([]) == []

    def test_nested_array(self):
        value = [b"x", [1, [b"y", None]], 2]
        assert roundtrip(value) == [b"x", [1, [b"y", None]], 2]

    def test_float_travels_as_bulk(self):
        out = roundtrip(1.5)
        assert float(out) == 1.5


class TestCommandEncoding:
    def test_command_is_array_of_bulks(self):
        frame = encode_command(["SET", "k", b"\x00\x01"])
        assert frame == b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\n\x00\x01\r\n"

    def test_command_decodes_as_reply_array(self):
        decoder = RespDecoder()
        decoder.feed(encode_command(["RPUSH", "q", 5]))
        assert decoder.decode() == [b"RPUSH", b"q", b"5"]


class TestReassembly:
    def test_byte_by_byte(self):
        frame = encode_reply([b"abc", 12, None, [SimpleString("OK")]])
        decoder = RespDecoder()
        for i, byte in enumerate(frame):
            decoder.feed(bytes([byte]))
            if i < len(frame) - 1:
                assert decoder.decode() is INCOMPLETE
        assert decoder.decode() == [b"abc", 12, None, ["OK"]]

    def test_split_inside_bulk_payload(self):
        frame = encode_reply(b"0123456789")
        decoder = RespDecoder()
        decoder.feed(frame[:7])
        assert decoder.decode() is INCOMPLETE
        decoder.feed(frame[7:])
        assert decoder.decode() == b"0123456789"

    def test_pipelined_frames_decode_in_order(self):
        decoder = RespDecoder()
        decoder.feed(encode_reply(1) + encode_reply(b"two") + encode_reply([3]))
        assert decoder.decode() == 1
        assert decoder.decode() == b"two"
        assert decoder.decode() == [3]
        assert decoder.decode() is INCOMPLETE

    def test_decode_all(self):
        decoder = RespDecoder()
        decoder.feed(encode_reply(1) + encode_reply(2))
        assert decoder.decode_all() == [1, 2]


class TestProtocolErrors:
    def test_unknown_type_byte(self):
        decoder = RespDecoder()
        decoder.feed(b"?3\r\n")
        with pytest.raises(ProtocolError):
            decoder.decode()

    def test_bad_integer(self):
        decoder = RespDecoder()
        decoder.feed(b":abc\r\n")
        with pytest.raises(ProtocolError):
            decoder.decode()

    def test_bulk_missing_trailing_crlf(self):
        decoder = RespDecoder()
        decoder.feed(b"$3\r\nabcXX")
        with pytest.raises(ProtocolError):
            decoder.decode()


# Values that survive encode->decode unchanged modulo the RESP type system
# (str becomes utf-8 bytes, bools/ints merge, floats become bulk strings).
wire_values = st.recursive(
    st.one_of(
        st.binary(max_size=64),
        st.integers(min_value=-(10**12), max_value=10**12),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=5),
    max_leaves=20,
)


@given(value=wire_values, cut=st.integers(min_value=0, max_value=200))
@settings(max_examples=200, deadline=None)
def test_property_roundtrip_with_arbitrary_split(value, cut):
    frame = encode_reply(value)
    decoder = RespDecoder()
    split = min(cut, len(frame))
    decoder.feed(frame[:split])
    first = decoder.decode()
    if first is INCOMPLETE:
        decoder.feed(frame[split:])
        first = decoder.decode()
    assert first == value
    assert len(decoder) == 0
