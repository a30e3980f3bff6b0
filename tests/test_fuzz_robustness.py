"""Fuzz/robustness tests: malformed input must fail loudly but cleanly.

A network tester is pointed at arbitrary traffic by definition; the
parsers must never crash with anything other than the library's own
typed errors, and the simulator must survive hostile-but-legal use.
"""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OpenFlowError, PcapError, ReproError, SweepError
from repro.net import PcapReader, decode
from repro.net.packet import Packet
from repro.openflow import MessageBuffer, parse_message
from repro.openflow.match import Match
from repro.runner import ExperimentSpec

#: Arbitrary JSON values (what a hand-written spec file can contain).
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


class TestFrameParserFuzz:
    @settings(max_examples=300)
    @given(st.binary(min_size=14, max_size=200))
    def test_decode_never_crashes_on_garbage(self, data):
        decoded = decode(data)
        # The Ethernet layer always parses (14+ bytes guaranteed);
        # everything deeper either parses or is left unset.
        assert decoded.ethernet is not None
        assert decoded.payload_offset >= 14

    @settings(max_examples=200)
    @given(st.binary(min_size=14, max_size=100), st.integers(min_value=0, max_value=3))
    def test_truncation_never_crashes(self, data, cut):
        truncated = data[: max(14, len(data) - cut * 10)]
        decode(truncated)

    @settings(max_examples=100)
    @given(st.binary(min_size=14, max_size=1600))
    def test_five_tuple_total(self, data):
        from repro.net import extract_five_tuple

        result = extract_five_tuple(data)  # None or a tuple, never a crash
        assert result is None or result.protocol >= 0


class TestOpenFlowFuzz:
    @settings(max_examples=300)
    @given(st.binary(min_size=0, max_size=128))
    def test_parse_message_raises_only_openflow_errors(self, data):
        try:
            parse_message(data)
        except OpenFlowError:
            pass  # the one acceptable failure mode

    @settings(max_examples=200)
    @given(st.binary(min_size=8, max_size=64))
    def test_valid_header_garbage_body(self, body):
        # Craft a structurally-valid header over random bytes.
        import struct

        wire = struct.pack("!BBHI", 1, 10, 8 + len(body), 7) + body  # PACKET_IN
        try:
            message = parse_message(wire)
            assert message.xid == 7
        except OpenFlowError:
            pass

    @settings(max_examples=100)
    @given(st.binary(min_size=40, max_size=40))
    def test_match_unpack_total(self, data):
        match = Match.unpack(data)  # any 40 bytes decode to *some* match
        assert 0 <= match.tp_src <= 0xFFFF

    def test_stream_with_zero_length_rejected(self):
        buffer = MessageBuffer()
        with pytest.raises(OpenFlowError):
            buffer.feed(b"\x01\x00\x00\x00\x00\x00\x00\x00" * 2)


class TestPcapFuzz:
    @settings(max_examples=200)
    @given(st.binary(min_size=0, max_size=200))
    def test_reader_raises_only_pcap_errors(self, data):
        try:
            list(PcapReader(io.BytesIO(data)))
        except PcapError:
            pass

    def test_negative_lengths_impossible(self):
        # A record claiming a giant incl_len fails as truncation.
        import struct

        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 0, 0, 0xFFFFFFF0, 60)
        with pytest.raises(PcapError):
            list(PcapReader(io.BytesIO(header + record)))


class TestSpecFuzz:
    @settings(max_examples=300)
    @given(
        st.sampled_from(["repeats", "retries", "seed", "timeout_s", "params", "axes"]),
        _JSON,
    )
    def test_experiment_spec_raises_only_sweep_errors(self, field, value):
        document = json.dumps({"name": "x", "scenario": "echo", field: value})
        try:
            spec = ExperimentSpec.from_json(document)
        except SweepError:
            return
        assert spec.shard_count >= 1
        assert len(spec.fingerprint()) == 16


class TestErrorHierarchy:
    def test_all_library_errors_share_a_base(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError) or obj is ReproError

    def test_packet_too_short_is_typed(self):
        from repro.errors import PacketError

        with pytest.raises(PacketError):
            Packet(b"short")
