"""Packet and INTRecord wire-format behaviour."""

import inspect

import repro.net.packet as packet_mod
from repro.net.host import Host
from repro.net.packet import ACK, CNP, DATA, PAUSE, RESUME, INTRecord, Packet
from repro.topo.base import Topology


class TestPacket:
    def test_defaults(self):
        p = Packet(DATA, flow_id=7, src=1, dst=2, seq=100, size=1518, payload=1470)
        assert p.kind == DATA
        assert not p.ecn and not p.ecn_echo
        assert p.int_records is None
        assert p.hops == 0

    def test_control_detection(self):
        # The port's one-compare control test: PFC frames are exactly the
        # kinds >= PAUSE.
        assert RESUME > PAUSE
        assert max(DATA, ACK, CNP) < PAUSE

    def test_repr_mentions_kind(self):
        assert "ACK" in repr(Packet(ACK, flow_id=3))


class TestINTRecord:
    def test_fields(self):
        r = INTRecord(400.0, 123, 456, 789)
        assert r.bandwidth_gbps == 400.0
        assert r.ts == 123
        assert r.tx_bytes == 456
        assert r.qlen == 789


class TestNoFreeList:
    def test_frames_have_no_pool_and_no_reset(self):
        """Frames are ordinary garbage-collected objects (DESIGN.md §2.4):
        no pool class, no knob selecting one, nothing that re-initializes a
        live frame."""
        assert [n for n in vars(packet_mod) if "pool" in n.lower()] == []
        assert not hasattr(Packet, "reset")
        for cls in (Host, Topology):
            assert "pool_packets" not in inspect.signature(cls).parameters
