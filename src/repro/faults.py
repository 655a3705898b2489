"""Deterministic fault injection: the failure modes a real deployment hits.

The paper's value proposition is *transparent degradation*: the preload
library and driver patch keep working when resources run out.  Production
InfiniBand stacks spend most of their engineering budget on the error
paths this module exercises — lossy links recovered by RC
retransmission, registration failures, and hugepage pools eaten by
other processes mid-run.

A :class:`FaultPlan` describes *what* to inject; a :class:`FaultInjector`
holds the plan plus an explicit ``random.Random(seed)`` and decides, per
event, whether a fault fires.  Every decision is drawn from that one
seeded stream in deterministic simulation order, so two runs with the
same plan are bit-identical — fault injection composes with the
repository's determinism guarantee instead of breaking it.

Zero-cost when off: components hold ``faults = None`` unless an *active*
injector (a plan with at least one nonzero knob) is attached, so the
fault machinery never touches the hot path of a fault-free simulation —
results with an empty plan are bit-identical to results without one.

Injection sites (each component guards with ``if self.faults is not
None``):

====================================  ===================================
site                                  plan knobs
====================================  ===================================
:class:`repro.ib.hca.HCA` wire        ``link_loss`` / ``link_corrupt``
  deliveries (per MTU packet)
:class:`repro.ib.registration.        ``reg_transient`` / ``reg_permanent``
  RegistrationEngine.register`
:class:`repro.mem.hugetlbfs.          ``hugepage_deplete_after``
  HugeTLBfs.acquire`
====================================  ===================================

Recovery (retransmission, backoff, regcache retries, allocator fallback)
is implemented in the owning layers; this module only decides *when*
something breaks and counts it under the ``faults.*`` namespace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from typing import Mapping, Optional

from repro.analysis.counters import CounterSet


class FaultError(Exception):
    """Base class for injected-fault error surfaces."""


class RegistrationFaultError(FaultError):
    """A memory registration failed (injected)."""


class TransientRegistrationError(RegistrationFaultError):
    """A registration failure that a retry may recover from (the driver
    analogue of a momentary pin/DMA-mapping shortage)."""


class PermanentRegistrationError(RegistrationFaultError):
    """A registration failure no retry will fix (adapter translation
    table permanently out of entries)."""


class MPITransportError(FaultError, RuntimeError):
    """A message-layer operation aborted on an unrecoverable transport
    error (e.g. a send whose QP exhausted its retry budget).

    Subclasses :class:`RuntimeError` so callers that handled the old
    generic send-failure error keep working.
    """


@dataclass(frozen=True)
class FaultPlan:
    """What to inject.  All knobs default to *off*; a default-constructed
    plan is inert (``active`` is False) and injects nothing.

    Attributes
    ----------
    seed:
        Seed of the injector's private ``random.Random``; the only source
        of randomness in the fault subsystem.
    link_loss:
        Per-MTU-packet probability that a wire message is lost.  A
        message of *n* packets is dropped with ``1 - (1-p)**n`` — one
        lost packet kills the whole transfer attempt, as it does for an
        IB RC message before retransmission.
    link_corrupt:
        Per-MTU-packet probability of payload corruption.  A corrupted
        message still occupies the wire but fails the receiver's ICRC
        check and is discarded there (recovered, like loss, by the
        sender's ack-timeout retransmission).
    reg_transient:
        Per-call probability that memory registration fails with
        :class:`TransientRegistrationError` (retryable).
    reg_permanent:
        Per-call probability of :class:`PermanentRegistrationError`
        (not retryable).
    hugepage_deplete_after:
        After this many successful :meth:`~repro.mem.hugetlbfs.
        HugeTLBfs.acquire` calls (cluster-wide), the hugepage pool is
        treated as seized by other processes: every later request raises
        :class:`~repro.mem.hugetlbfs.HugePagePoolExhausted`, and the
        hugepage library degrades to base-page placement.
    retry_cnt:
        IB QP transport retry budget applied to QPs created while the
        plan is active (IB spec: a 3-bit counter, 0-7).
    rnr_retry:
        IB receiver-not-ready retry budget; **7 means retry forever**,
        exactly as the IB spec defines it.
    ack_timeout_ns:
        Floor for the ack-timeout before a retransmission (the IB
        Local Ack Timeout, spec-encoded as ``4.096 us * 2**exp``).  None
        keeps each QP's default; the HCA additionally scales the timeout
        with the in-flight message's streaming time.
    """

    seed: int = 0
    link_loss: float = 0.0
    link_corrupt: float = 0.0
    reg_transient: float = 0.0
    reg_permanent: float = 0.0
    hugepage_deplete_after: Optional[int] = None
    retry_cnt: int = 7
    rnr_retry: int = 7
    ack_timeout_ns: Optional[float] = None

    def __post_init__(self):
        for knob in ("link_loss", "link_corrupt", "reg_transient",
                     "reg_permanent"):
            p = getattr(self, knob)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{knob} must be a probability, got {p}")
        if self.hugepage_deplete_after is not None and \
                self.hugepage_deplete_after < 0:
            raise ValueError("hugepage_deplete_after must be >= 0")
        if not 0 <= self.retry_cnt:
            raise ValueError("retry_cnt must be >= 0")
        if not 0 <= self.rnr_retry <= 7:
            raise ValueError("rnr_retry must be in 0..7 (7 = infinite)")

    @property
    def active(self) -> bool:
        """True if any fault mode is configured (an inert plan costs
        nothing: components treat it exactly like no plan at all)."""
        return (
            self.link_loss > 0.0
            or self.link_corrupt > 0.0
            or self.reg_transient > 0.0
            or self.reg_permanent > 0.0
            or self.hugepage_deplete_after is not None
        )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI plan spec: comma-separated ``key=value`` pairs.

        >>> FaultPlan.from_spec("link_loss=0.01,retry_cnt=5", seed=7).link_loss
        0.01
        """
        kwargs = {"seed": seed}
        valid = {f.name: f for f in fields(cls)}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ValueError(f"malformed fault spec item {part!r} "
                                 "(expected key=value)")
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in valid:
                raise ValueError(
                    f"unknown fault knob {key!r}; valid: "
                    f"{', '.join(sorted(valid))}"
                )
            if key in ("retry_cnt", "rnr_retry", "seed",
                       "hugepage_deplete_after"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    #: knobs parsed as integers (everything else is a float probability)
    _INT_KNOBS = ("retry_cnt", "rnr_retry", "seed", "hugepage_deplete_after")
    #: knobs for which JSON ``null`` / Python None is a legal value
    _OPTIONAL_KNOBS = ("hugepage_deplete_after", "ack_timeout_ns")

    @classmethod
    def from_mapping(cls, mapping: Mapping, seed: int = 0) -> "FaultPlan":
        """Build a plan from a decoded mapping (e.g. a JSON plan file).

        Same knob names and validation as :meth:`from_spec`; a ``seed``
        key in the mapping overrides the *seed* argument.  Raises
        :class:`ValueError` on unknown knobs or non-numeric values so
        callers share one error surface with the inline-spec parser.
        """
        if not isinstance(mapping, Mapping):
            raise ValueError(
                f"fault plan must be a JSON object of key=value knobs, "
                f"got {type(mapping).__name__}"
            )
        kwargs = {"seed": seed}
        valid = {f.name for f in fields(cls)}
        for key, value in mapping.items():
            if key not in valid:
                raise ValueError(
                    f"unknown fault knob {key!r}; valid: "
                    f"{', '.join(sorted(valid))}"
                )
            if value is None and key in cls._OPTIONAL_KNOBS:
                kwargs[key] = None
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"fault knob {key!r} needs a number, got {value!r}"
                )
            kwargs[key] = int(value) if key in cls._INT_KNOBS else float(value)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str, seed: int = 0) -> "FaultPlan":
        """Load a plan from a JSON file: an object of knob/value pairs.

        Every failure mode (unreadable file, malformed JSON, bad knobs)
        raises :class:`ValueError` so the CLI's ``--fault-plan`` error
        path handles files and inline specs identically.
        """
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read fault plan file {path!r}: {exc}")
        except ValueError as exc:
            raise ValueError(f"fault plan file {path!r} is not valid JSON: {exc}")
        return cls.from_mapping(doc, seed=seed)


class FaultInjector:
    """The decision engine: one seeded RNG stream, one counter set.

    Share a single injector across a cluster (the
    :class:`~repro.systems.machine.Cluster` constructor does) so all
    fault decisions come from one deterministic stream.
    """

    def __init__(self, plan: FaultPlan,
                 counters: Optional[CounterSet] = None):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.counters = counters if counters is not None else CounterSet()
        self._hugepage_acquires = 0

    @property
    def active(self) -> bool:
        """Mirror of :attr:`FaultPlan.active`."""
        return self.plan.active

    # -- link faults --------------------------------------------------------
    def message_dropped(self, n_packets: int) -> bool:
        """Decide whether a wire message of *n_packets* MTU packets is
        lost (any one packet lost kills the message)."""
        p = self.plan.link_loss
        if p <= 0.0:
            return False
        survive = (1.0 - p) ** max(1, n_packets)
        if self.rng.random() < 1.0 - survive:
            self.counters.add("faults.link.dropped")
            return True
        return False

    def message_corrupted(self, n_packets: int) -> bool:
        """Decide whether a (delivered) message arrives corrupted and
        will fail the receiver's ICRC check."""
        p = self.plan.link_corrupt
        if p <= 0.0:
            return False
        clean = (1.0 - p) ** max(1, n_packets)
        if self.rng.random() < 1.0 - clean:
            self.counters.add("faults.link.corrupted")
            return True
        return False

    # -- registration faults ------------------------------------------------
    def registration_outcome(self) -> Optional[str]:
        """``"transient"``, ``"permanent"`` or None for one registration
        attempt."""
        plan = self.plan
        if plan.reg_permanent > 0.0 and self.rng.random() < plan.reg_permanent:
            self.counters.add("faults.reg.permanent")
            return "permanent"
        if plan.reg_transient > 0.0 and self.rng.random() < plan.reg_transient:
            self.counters.add("faults.reg.transient")
            return "transient"
        return None

    # -- hugepage pool faults -----------------------------------------------
    def hugepage_request_denied(self) -> bool:
        """Decide whether a hugetlbfs acquire is denied because the pool
        has been depleted mid-run (models other processes draining
        ``nr_hugepages``; permanent once it happens)."""
        limit = self.plan.hugepage_deplete_after
        if limit is None:
            return False
        if self._hugepage_acquires >= limit:
            self.counters.add("faults.mem.hugepage_denied")
            return True
        self._hugepage_acquires += 1
        return False
