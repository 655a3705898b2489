"""The eager protocol and the copy-based (non-RDMA) rendezvous.

Eager (messages ≤ 8 KB): the sender copies into a pre-registered bounce
buffer and fires one send WR; the receiver's pre-posted bounce catches
it, the payload is copied out on match.  No user-buffer registration —
which is why Fig 5 shows no hugepage effect below the RDMA threshold.

Copy rendezvous (8 KB < size ≤ 16 KB): an RTS/CTS handshake followed by
the payload chunked through bounce buffers.  Still no registration
("For buffers larger than 16 KB, it uses the RDMA feature of InfiniBand
so we only see memory registration effects for those buffers", §5.1).

Each protocol half is a callback chain on a :class:`repro.mpi.op.Op`
(the ``*_then`` functions): every model delay is one kernel step, and
the half opens one ``mpi.*`` span while a tracer is active.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro import trace
from repro.faults import MPITransportError
from repro.ib.verbs import SGE, SendWR

if TYPE_CHECKING:
    from repro.ib.verbs import WorkCompletion
    from repro.mpi.api import Endpoint, Envelope
    from repro.mpi.op import Op


def eager_send_then(op: Op, dest: int, tag: int, size: int, addr: Optional[int],
                    payload: Any, then: Callable[[], None]) -> None:
    """Send one eager message (size must fit a bounce buffer); *then()*
    runs after local completion."""
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.eager.send", ep.tx_track,
                              dest=dest, bytes=size)
    env = ep.make_envelope("eager", dest, tag, size, payload=payload)
    bounce_send_then(op, dest, env, size, addr, then)


def _bounce_aborted(endpoint: Endpoint, dest: int, env: Envelope, wire_bytes: int,
                    exc: Exception) -> MPITransportError:
    return MPITransportError(
        f"rank {endpoint.rank}: {env.kind!r} message to rank "
        f"{dest} ({wire_bytes} B) aborted: {exc}"
    )


def bounce_send_then(op: Op, dest: int, env: Envelope, wire_bytes: int,
                     addr: Optional[int], then: Callable[[], None]) -> None:
    """Copy (if a source address is known) into a free bounce buffer and
    post one send WR carrying *env*; *then()* runs after local
    completion, with the bounce buffer back in the pool."""
    op.ep.bounce_pool.get_then(
        _BounceSend(op, dest, env, wire_bytes, addr, then).fill)


class _BounceSend:
    """One message through a bounce buffer, as the steps of
    :func:`bounce_send_then`: the pool hands :meth:`fill` a buffer, the
    copy's delay leads to :meth:`post`, and the send completion to
    :meth:`done`.  A step that raises fails the operation, after putting
    the buffer back if the completion will not."""

    __slots__ = ("op", "dest", "env", "wire_bytes", "addr", "then", "buf")

    def __init__(self, op: Op, dest: int, env: Envelope, wire_bytes: int,
                 addr: Optional[int], then: Callable[[], None]):
        self.op = op
        self.dest = dest
        self.env = env
        self.wire_bytes = wire_bytes
        self.addr = addr
        self.then = then

    def fill(self, buf: tuple) -> None:
        self.buf = buf
        if self.addr is not None and self.wire_bytes > 0:
            ep = self.op.ep
            try:
                cost = ep.proc.engine.copy(self.addr, buf[0], self.wire_bytes)
            except Exception as exc:
                ep.bounce_pool.put_nowait(buf)
                self.op.fail(exc)
                return
            ep.kernel.call_after(cost.ticks, self.post)
        else:
            self.post()

    def post(self) -> None:
        op = self.op
        ep = op.ep
        buf_addr, mr = self.buf
        try:
            qp = ep.qp_for(self.dest)
            wr_id = ep.next_wr_id()
            # zero-byte messages ride a zero-length SGE: the wire then
            # costs exactly one header-only packet
            wr = SendWR(wr_id, [SGE(buf_addr, self.wire_bytes, mr.lkey)],
                        payload=self.env)
            ep.hca.post_send_then(qp, wr, _posted)
            ep.on_send_completion(wr_id, self.done)
        except Exception as exc:
            ep.bounce_pool.put_nowait(self.buf)
            op.fail(exc)

    def done(self, wc: WorkCompletion) -> None:
        op = self.op
        ep = op.ep
        ep.bounce_pool.put_nowait(self.buf)
        try:
            if not wc.ok:
                raise _bounce_aborted(ep, self.dest, self.env, self.wire_bytes,
                                      ep.completion_error(wc))
            self.then()
        except Exception as exc:
            op.fail(exc)


def _posted() -> None:
    """A posted WR needs nothing more: its completion carries on."""


def send_ctrl_then(op: Op, dest: int, env: Envelope, then: Callable[[], None]) -> None:
    """Send a small protocol control message (RTS/CTS/FIN)."""
    bounce_send_then(op, dest, env, op.ep.CTRL_BYTES, None, then)


def copy_rendezvous_send_then(op: Op, dest: int, tag: int, size: int,
                              addr: Optional[int], payload: Any,
                              then: Callable[[], None]) -> None:
    """RTS/CTS handshake, then the payload chunked through bounce
    buffers; *then()* runs after the last chunk's local completion."""
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.rndv.copy.send", ep.tx_track,
                              dest=dest, bytes=size)
    rndv = ep.next_rndv_id()
    rts = ep.make_envelope("rts", dest, tag, size, rndv=rndv)
    send_ctrl_then(op, dest, rts, lambda: ep.cts_channel.receive_then(
        lambda _cts: op.call(_send_chunk, op, dest, tag, size, addr, payload,
                             rndv, then, 0, 0),
        lambda e: e.rndv == rndv))


# The copy rendezvous's repeating steps are module functions, not
# closures: a closure that schedules itself holds itself through its
# cell, a cycle that outlives the message.

def _send_chunk(op: Op, dest: int, tag: int, size: int, addr: Optional[int],
                payload: Any, rndv: int, then: Callable[[], None], i: int,
                offset: int) -> None:
    """Send chunk *i* of a copy rendezvous; *then()* after the last."""
    ep = op.ep
    chunk = ep.config.eager_buf_bytes
    n_chunks = (size + chunk - 1) // chunk
    if i == n_chunks:
        then()
        return
    this = min(chunk, size - offset)
    env = ep.make_envelope(
        "rdat", dest, tag, this, rndv=rndv,
        payload=payload if i == n_chunks - 1 else None,
    )
    src = addr + offset if addr is not None else None
    bounce_send_then(op, dest, env, this, src,
                     partial(_send_chunk, op, dest, tag, size, addr, payload,
                             rndv, then, i + 1, offset + this))


def copy_rendezvous_recv_then(op: Op, env: Envelope, addr: Optional[int],
                              then: Callable[[Any], None]) -> None:
    """Receiver half of the copy rendezvous; *then(payload)*."""
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.rndv.copy.recv", ep.rx_track,
                              src=env.src, bytes=env.size)
    cts = ep.make_envelope("cts", env.src, env.tag, env.size, rndv=env.rndv)
    send_ctrl_then(op, env.src, cts,
                   lambda: _await_chunk(op, env, addr, then, 0, None))


def _await_chunk(op: Op, env: Envelope, addr: Optional[int],
                 then: Callable[[Any], None], offset: int, payload: Any) -> None:
    """Wait for the chunk at *offset* of *env*'s message; *then(payload)*
    after the last."""
    if offset >= env.size:
        then(payload)
        return
    rndv = env.rndv
    op.ep.match_channel.receive_then(
        lambda data: op.call(_chunk_landed, op, env, addr, then, offset,
                             payload, data),
        lambda e: e.kind == "rdat" and e.rndv == rndv,
    )


def _chunk_landed(op: Op, env: Envelope, addr: Optional[int],
                  then: Callable[[Any], None], offset: int, payload: Any,
                  data: Envelope) -> None:
    if data.payload is not None:
        payload = data.payload
    if addr is not None:
        # copy out of the bounce into the user buffer
        cost = op.ep.proc.engine.stream(addr + offset, data.size, write=True)
        op.after(cost.ticks, _await_chunk, op, env, addr, then,
                 offset + data.size, payload)
    else:
        _await_chunk(op, env, addr, then, offset + data.size, payload)


def eager_recv_copy_out_then(op: Op, env: Envelope, addr: Optional[int],
                             then: Callable[[Any], None]) -> None:
    """Charge the receiver-side copy from the bounce to the user buffer;
    *then(payload)*."""
    ep = op.ep
    if trace.active() is not None:
        op.span = trace.begin("mpi.eager.recv", ep.rx_track,
                              src=env.src, bytes=env.size)
    if addr is not None and env.size > 0:
        cost = ep.proc.engine.stream(addr, env.size, write=True)
        op.after(cost.ticks, then, env.payload)
    else:
        then(env.payload)
