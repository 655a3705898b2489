"""The per-message records: verbs work requests and completions, the
adapter's wire packet and the MPI envelope.

They are ``__slots__`` classes with explicit constructors (see
:class:`repro.ib.verbs.Record`); these tests pin what they kept from the
dataclasses they replaced: validation, field-wise equality, hashing
where the dataclass was frozen, a readable repr, and keyword or
positional construction with the same defaults.
"""

from __future__ import annotations

import pickle

import pytest

from repro.ib.hca import _Packet
from repro.ib.verbs import SGE, IBVerbsError, RecvWR, SendWR, WorkCompletion
from repro.mpi.api import Envelope


class TestSGE:
    def test_negative_length_raises(self):
        with pytest.raises(IBVerbsError, match="non-negative"):
            SGE(0x1000, -1, 7)

    def test_zero_length_is_legal(self):
        assert SGE(0x1000, 0, 7).length == 0

    def test_equality_and_hash(self):
        a = SGE(0x1000, 64, 7)
        assert a == SGE(addr=0x1000, length=64, lkey=7)
        assert a != SGE(0x1000, 64, 8)
        assert hash(a) == hash(SGE(0x1000, 64, 7))
        assert len({a, SGE(0x1000, 64, 7), SGE(0x2000, 64, 7)}) == 2

    def test_repr(self):
        assert repr(SGE(16, 64, 7)) == "SGE(addr=16, length=64, lkey=7)"


class TestSendWR:
    def test_bad_opcode_raises(self):
        with pytest.raises(IBVerbsError, match="unsupported opcode"):
            SendWR(1, [SGE(0, 8, 1)], opcode="atomic")

    def test_empty_sge_list_raises(self):
        with pytest.raises(IBVerbsError, match="at least one SGE"):
            SendWR(1, [])

    def test_defaults_and_total_bytes(self):
        wr = SendWR(wr_id=3, sges=[SGE(0, 8, 1), SGE(64, 24, 1)])
        assert (wr.opcode, wr.remote_addr, wr.rkey, wr.payload) == ("send", 0, 0, None)
        assert wr.total_bytes == 32
        assert SendWR(4, [SGE(0, 5, 1)]).total_bytes == 5

    def test_equality_is_field_wise_and_unhashable(self):
        a = SendWR(1, [SGE(0, 8, 1)], "rdma_write", 0x10, 9, payload="x")
        assert a == SendWR(1, [SGE(0, 8, 1)], opcode="rdma_write",
                           remote_addr=0x10, rkey=9, payload="x")
        assert a != SendWR(1, [SGE(0, 8, 1)], "rdma_write", 0x10, 9, payload="y")
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_leaves_out_the_derived_total(self):
        r = repr(SendWR(2, [SGE(0, 8, 1)]))
        assert r == ("SendWR(wr_id=2, sges=[SGE(addr=0, length=8, lkey=1)], "
                     "opcode='send', remote_addr=0, rkey=0, payload=None)")


class TestRecvWR:
    def test_empty_sge_list_raises(self):
        with pytest.raises(IBVerbsError, match="at least one SGE"):
            RecvWR(1, [])

    def test_total_bytes_equality_repr(self):
        wr = RecvWR(wr_id=5, sges=[SGE(0, 100, 2), SGE(128, 28, 2)])
        assert wr.total_bytes == 128
        assert wr == RecvWR(5, [SGE(0, 100, 2), SGE(128, 28, 2)])
        assert wr != RecvWR(6, [SGE(0, 100, 2), SGE(128, 28, 2)])
        assert repr(RecvWR(5, [SGE(0, 1, 2)])) == \
            "RecvWR(wr_id=5, sges=[SGE(addr=0, length=1, lkey=2)])"


class TestWorkCompletion:
    def test_defaults_ok_and_equality(self):
        wc = WorkCompletion(1, "send", 64)
        assert wc.status == "success" and wc.payload is None and wc.ok
        assert not WorkCompletion(1, "send", 64, "remote-access-error").ok
        assert wc == WorkCompletion(wr_id=1, opcode="send", byte_len=64)
        assert wc != WorkCompletion(1, "recv", 64)

    def test_hashable_like_the_frozen_dataclass(self):
        a = WorkCompletion(1, "recv", 8, payload=("p", 1))
        assert hash(a) == hash(WorkCompletion(1, "recv", 8, payload=("p", 1)))
        assert {a: 1}[WorkCompletion(1, "recv", 8, payload=("p", 1))] == 1

    def test_repr(self):
        assert repr(WorkCompletion(1, "send", 64)) == (
            "WorkCompletion(wr_id=1, opcode='send', byte_len=64, "
            "status='success', payload=None)")


class TestPacket:
    def test_defaults_and_corrupted_copy(self):
        p = _Packet("send", 1, 2, seq=9, wr_id=4, nbytes=64, payload="x",
                    stream_ns=12.5)
        assert (p.remote_addr, p.rkey, p.status, p.corrupt) == (0, 0, "success", False)
        bad = p.corrupted()
        assert bad.corrupt and not p.corrupt
        assert bad != p
        assert bad == _Packet("send", 1, 2, 9, 4, 64, "x", 0, 0, "success",
                              12.5, True)

    def test_repr_names_every_field(self):
        r = repr(_Packet("ack", 2, 1, 9, 4, 0))
        assert r.startswith("_Packet(kind='ack', src_qp=2, dst_qp=1, seq=9,")
        assert r.endswith("stream_ns=0.0, corrupt=False)")


class TestEnvelope:
    def test_defaults_equality_repr(self):
        env = Envelope("rts", 0, 1, 77, 1 << 20, rndv=5)
        assert (env.payload, env.remote_addr, env.rkey) == (None, 0, 0)
        assert env == Envelope(kind="rts", src=0, dst=1, tag=77, size=1 << 20,
                               rndv=5)
        assert env != Envelope("cts", 0, 1, 77, 1 << 20, rndv=5)
        assert repr(env) == ("Envelope(kind='rts', src=0, dst=1, tag=77, "
                             "size=1048576, payload=None, rndv=5, "
                             "remote_addr=0, rkey=0)")

    def test_records_of_different_classes_never_compare_equal(self):
        assert WorkCompletion(1, "send", 8) != SGE(1, 8, 0)
        assert SGE(1, 8, 0) != (1, 8, 0)


@pytest.mark.parametrize("record", [
    SGE(1, 2, 3),
    SendWR(1, [SGE(1, 2, 3)], "rdma_read", 0x40, 5),
    RecvWR(2, [SGE(1, 2, 3)]),
    WorkCompletion(1, "recv", 2, payload=Envelope("eager", 0, 1, 3, 2)),
    _Packet("rdma_write", 1, 2, 3, 4, 5, remote_addr=6, rkey=7),
])
def test_records_pickle_round_trip(record):
    """Post-mortem snapshots pickle queued work requests."""
    back = pickle.loads(pickle.dumps(record))
    assert back == record
    if isinstance(record, (SendWR, RecvWR)):
        assert back.total_bytes == record.total_bytes
