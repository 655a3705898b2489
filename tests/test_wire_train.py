"""The wire-train contract: DES pipeline == closed form.

Two parties must agree tick-exactly on a back-to-back message train
(:mod:`repro.workloads.train`):

- the **adapter pipeline** — the callback chains in :mod:`repro.ib.hca`
  walking every pipeline hop;
- the **closed form** — :func:`repro.workloads.train.analytic_period_ticks`
  built on :meth:`repro.ib.link.LinkConfig.train_ns`.

The adapter once also had a per-message generator form; the ticks it
produced for two windowed trains are kept below as literals.
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.ib.link import LinkConfig
from repro.workloads.train import run_train


# ---------------------------------------------------------------------------
# LinkConfig.train_ns: the closed-form wire half
# ---------------------------------------------------------------------------


class TestTrainNs:
    def test_is_count_times_serialization(self):
        link = LinkConfig()
        for nbytes in (0, 1, 1024, 2048, 2049, 65536):
            one = link.serialization_ns(nbytes)
            assert link.train_ns(nbytes, 1) == one
            assert link.train_ns(nbytes, 7) == pytest.approx(7 * one)
        assert link.train_ns(1024, 0) == 0.0

    def test_negative_count_rejected(self):
        link = LinkConfig()
        with pytest.raises(ValueError, match="negative message count"):
            link.train_ns(1024, -1)

    def test_zero_byte_train_pays_packet_floor(self):
        # a train of headers is still a train of packets, never free
        link = LinkConfig()
        assert link.train_ns(0, 5) == 5 * link.packet_ns


# ---------------------------------------------------------------------------
# the tick-exact pin: simulated train vs analytic period
# ---------------------------------------------------------------------------


class TestClosedFormPin:
    """With ``window=1`` the pipeline is strictly sequential, so train
    *differences* cancel the cold-ATT first message and the steady state
    must march at exactly ``analytic_period_ticks`` per message."""

    @pytest.mark.parametrize("msg_bytes", [64, 1024, 4096])
    def test_steady_state_period_matches_analytic(self, msg_bytes):
        base = run_train(msg_bytes=msg_bytes, count=1, window=1)
        longer = run_train(msg_bytes=msg_bytes, count=6, window=1)
        assert longer.analytic_period_ticks == base.analytic_period_ticks
        assert (
            longer.total_ticks - base.total_ticks
            == 5 * base.analytic_period_ticks
        )

    def test_period_is_positive_and_linear(self):
        r3 = run_train(msg_bytes=1024, count=3, window=1)
        r5 = run_train(msg_bytes=1024, count=5, window=1)
        assert r3.analytic_period_ticks > 0
        assert r5.total_ticks - r3.total_ticks == 2 * r3.analytic_period_ticks

    def test_counters_see_every_message(self):
        res = run_train(msg_bytes=512, count=9, window=4)
        assert res.tx_messages == 9
        assert res.rx_messages == 9
        assert res.ticks_per_msg == res.total_ticks / 9


# ---------------------------------------------------------------------------
# identity: the windowed trains the generator pipeline produced
# ---------------------------------------------------------------------------

def _train_signature(**kwargs):
    res = run_train(**kwargs)
    return (res.total_ticks, res.tx_messages, res.rx_messages)


class TestIdentity:
    def test_chains_match_process_machinery(self):
        # (total_ticks, tx, rx) of the retired per-message generator form
        kwargs = dict(msg_bytes=2048, count=40, window=8)
        assert _train_signature(**kwargs) == (19894, 40, 40)

    def test_chains_match_on_reference_costing_path(self):
        # the same pin on the reference costing path, which must agree
        # with the fast one
        kwargs = dict(msg_bytes=1024, count=25, window=4)
        with fastpath.forced(False):
            reference = _train_signature(**kwargs)
        assert reference == _train_signature(**kwargs) == (7294, 25, 25)

    def test_window_only_overlaps_never_reorders(self):
        # more window = more overlap = fewer total ticks, same messages
        narrow = run_train(msg_bytes=1024, count=30, window=1)
        wide = run_train(msg_bytes=1024, count=30, window=16)
        assert wide.total_ticks < narrow.total_ticks
        assert (wide.tx_messages, wide.rx_messages) == (30, 30)


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [dict(msg_bytes=0), dict(count=0), dict(window=0)],
    ids=["msg_bytes", "count", "window"],
)
def test_run_train_rejects_degenerate_arguments(kwargs):
    with pytest.raises(ValueError, match="must be >= 1"):
        run_train(**kwargs)
