"""The RDMA rendezvous protocols (messages > 16 KB).

Write-based (the MVAPICH2 scheme of the paper's era, the default):

    sender                          receiver
    ------                          --------
    RTS(src,tag,size,rndv)  ---->   (matched by a posted recv)
                                    register recv buffer   <- regcache
    (register send buffer)  <----   CTS(rndv, raddr, rkey)
    RDMA-write payload      ---->   (lands directly in the user buffer)
    FIN(rndv)               ---->   completion

Read-based (the scheme MVAPICH adopted shortly after; one less control
message and the sender never blocks on the receiver's progress):

    sender                          receiver
    ------                          --------
    register send buffer                (matched by a posted recv)
    RTS(rndv, saddr, skey)  ---->   register recv buffer
                            <----   RDMA-read of the sender's buffer
                            <----   FIN(rndv): sender may reuse/deregister

Both registrations go through the rank's registration cache; with lazy
deregistration disabled every message pays the full pin+translate+upload
cost on both sides — Fig 5's first experiment.  The data movement itself
is a single one-sided operation on the user buffers, so buffer
*placement* (4 KB vs 2 MB pages) drives both the registration cost and
the adapter's ATT behaviour during the transfer.

A half that holds a registration (or an exposure) releases it on every
exit path, a failed post included, so a QP that leaves RTS mid-protocol
never leaves an MR pinned in the cache.  As in :mod:`repro.mpi.eager`,
each half is a ``*_then`` callback chain on a :class:`repro.mpi.op.Op`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro import trace
from repro.faults import MPITransportError
from repro.ib.verbs import SGE, SendWR
from repro.mpi.eager import _posted, send_ctrl_then

if TYPE_CHECKING:
    from repro.ib.verbs import MemoryRegion, WorkCompletion
    from repro.mpi.api import Endpoint, Envelope
    from repro.mpi.op import Op


def _need_addr(addr: Any, what: str) -> None:
    if addr is None:
        raise ValueError(f"RDMA rendezvous requires {what}")


def _write_aborted(endpoint: Endpoint, size: int, dest: int,
                   exc: Exception) -> MPITransportError:
    return MPITransportError(
        f"rank {endpoint.rank}: rendezvous write of {size} B to "
        f"rank {dest} aborted: {exc}"
    )


def _read_aborted(endpoint: Endpoint, env: Envelope,
                  exc: Exception) -> MPITransportError:
    return MPITransportError(
        f"rank {endpoint.rank}: rendezvous read of {env.size} B "
        f"from rank {env.src} aborted: {exc}"
    )


def _rdma_wr(endpoint: Endpoint, wr_id: int, opcode: str, addr: int, size: int,
             mr: MemoryRegion, remote_addr: int, rkey: int,
             payload: Any = None) -> SendWR:
    return SendWR(
        wr_id=wr_id,
        sges=[SGE(addr, size, mr.lkey)],
        opcode=opcode,
        remote_addr=remote_addr,
        rkey=rkey,
        payload=payload,
    )


def rdma_rendezvous_send_then(op: Op, dest: int, tag: int, size: int, addr: int,
                              payload: Any, then: Callable[[], None]) -> None:
    """Sender half (see module docstring); *addr* must be a real mapped
    buffer — the RDMA path cannot send from nowhere."""
    _need_addr(addr, "a source buffer address")
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.rndv.write.send", ep.tx_track,
                              dest=dest, bytes=size)
    rndv = ep.next_rndv_id()
    rts = ep.make_envelope("rts", dest, tag, size, rndv=rndv)

    def _cts(cts: Envelope) -> None:
        ep.regcache.acquire_then(addr, size, lambda mr: op.call(_write, cts, mr),
                                op.fail)

    def _write(cts: Envelope, mr: MemoryRegion) -> None:
        op.mr = mr
        wr_id = ep.next_wr_id()
        wr = _rdma_wr(ep, wr_id, "rdma_write", addr, size, mr,
                      cts.remote_addr, cts.rkey, payload)
        ep.hca.post_send_then(ep.qp_for(dest), wr, _posted)
        ep.on_send_completion(wr_id, lambda wc: op.call(_written, wc))

    def _written(wc: WorkCompletion) -> None:
        if not wc.ok:
            raise _write_aborted(ep, size, dest, ep.completion_error(wc))
        mr, op.mr = op.mr, None
        ep.regcache.release_then(mr, lambda: op.call(_fin))

    def _fin() -> None:
        fin = ep.make_envelope("fin", dest, tag, size, rndv=rndv)
        send_ctrl_then(op, dest, fin, then)

    send_ctrl_then(op, dest, rts, lambda: ep.cts_channel.receive_then(
        lambda cts: op.call(_cts, cts), lambda e: e.rndv == rndv))


def rdma_rendezvous_recv_then(op: Op, env: Envelope, addr: int,
                              then: Callable[[Any], None]) -> None:
    """Receiver half; *addr* is the user receive buffer (required);
    *then(payload)*."""
    _need_addr(addr, "a receive buffer address "
               f"(recv of {env.size} bytes from rank {env.src})")
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.rndv.write.recv", ep.rx_track,
                              src=env.src, bytes=env.size)
    rndv = env.rndv

    def _cts(mr: MemoryRegion) -> None:
        op.mr = mr
        cts = ep.make_envelope("cts", env.src, env.tag, env.size, rndv=rndv,
                               remote_addr=addr, rkey=mr.rkey)
        send_ctrl_then(op, env.src, cts, lambda: ep.fin_channel.receive_then(
            lambda _fin: op.call(_landed), lambda e: e.rndv == rndv))

    def _landed() -> None:
        mr, op.mr = op.mr, None
        payload = ep.hca.rdma_landed.pop((mr.rkey, addr), None)
        ep.regcache.release_then(mr, lambda: then(payload))

    ep.regcache.acquire_then(addr, env.size, lambda mr: op.call(_cts, mr),
                             op.fail)


def rdma_read_rendezvous_send_then(op: Op, dest: int, tag: int, size: int,
                                   addr: int, payload: Any,
                                   then: Callable[[], None]) -> None:
    """Sender half of the read rendezvous: expose the buffer, announce
    it in the RTS, wait for the receiver's FIN."""
    _need_addr(addr, "a source buffer address")
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.rndv.read.send", ep.tx_track,
                              dest=dest, bytes=size)
    rndv = ep.next_rndv_id()

    def _rts(mr: MemoryRegion) -> None:
        op.mr = mr
        op.exposed = (mr.rkey, addr)
        ep.hca.rdma_exposed[op.exposed] = payload
        rts = ep.make_envelope("rts", dest, tag, size, rndv=rndv,
                               remote_addr=addr, rkey=mr.rkey)
        send_ctrl_then(op, dest, rts, lambda: ep.fin_channel.receive_then(
            lambda _fin: op.call(_done), lambda e: e.rndv == rndv))

    def _done() -> None:
        ep.hca.rdma_exposed.pop(op.exposed, None)
        op.exposed = None
        mr, op.mr = op.mr, None
        ep.regcache.release_then(mr, then)

    ep.regcache.acquire_then(addr, size, lambda mr: op.call(_rts, mr),
                             op.fail)


def rdma_read_rendezvous_recv_then(op: Op, env: Envelope, addr: int,
                                   then: Callable[[Any], None]) -> None:
    """Receiver half: pull the announced buffer with one RDMA read;
    *then(payload)*."""
    _need_addr(addr, "a receive buffer address "
               f"(recv of {env.size} bytes from rank {env.src})")
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.rndv.read.recv", ep.rx_track,
                              src=env.src, bytes=env.size)

    def _read(mr: MemoryRegion) -> None:
        op.mr = mr
        wr_id = ep.next_wr_id()
        wr = _rdma_wr(ep, wr_id, "rdma_read", addr, env.size, mr,
                      env.remote_addr, env.rkey)
        ep.hca.post_send_then(ep.qp_for(env.src), wr, _posted)
        ep.on_send_completion(wr_id, lambda wc: op.call(_pulled, wc))

    def _pulled(wc: WorkCompletion) -> None:
        if not wc.ok:
            raise _read_aborted(ep, env, ep.completion_error(wc))
        mr, op.mr = op.mr, None
        ep.regcache.release_then(mr, lambda: op.call(_fin, wc.payload))

    def _fin(payload: Any) -> None:
        fin = ep.make_envelope("fin", env.src, env.tag, env.size, rndv=env.rndv)
        send_ctrl_then(op, env.src, fin, lambda: then(payload))

    ep.regcache.acquire_then(addr, env.size, lambda mr: op.call(_read, mr),
                             op.fail)
