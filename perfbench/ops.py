"""The benchmark's two workloads: seeded op lists, op execution, payloads.

Every workload has one op shape, so no reported percentile falls
between two kinds of op.  An op's inputs come only from the seed; the
program sees nothing but those inputs, through its public workload APIs.

An op returns a *payload*: a list of plain tuples holding the simulated
outputs (ticks, counters, allocator times).  Payloads are what the
oracle compares against the reference costing path and what the digest
covers.  Host time never enters a payload.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple
from typing import Dict, List, Optional, Sequence, Tuple

KB = 1024
MB = 1024 * KB

#: Fig-5 curves: (hugepages, lazy deregistration), in the order
#: ``repro fig5`` prints them
RNDV_CURVES = ((False, True), (True, True), (False, False), (True, False))
#: the RDMA-rendezvous range (above MPIConfig.rdma_threshold = 16 KB)
RNDV_SIZES = (32 * KB, 32 * MB)

#: Nominal ops per second of run length on a 2-core x86-64 VM (about
#: 70 and 90 ms per op).  The op count of a run is fixed by ``--seconds``
#: alone, so a faster program finishes the same list sooner.
RATES: Dict[str, float] = {
    "imb-rndv": 15.0,
    "abinit-scf": 11.0,
}
WORKLOADS: Tuple[str, ...] = tuple(RATES)

#: Ops re-run on the reference costing path after the timed phase; the
#: reference path is 1.4-6.5x slower, so the sample stays small.
ORACLE_OPS: Dict[str, int] = {
    "imb-rndv": 2,
    "abinit-scf": 2,
}

Op = object
Payload = List[tuple]


def n_ops(workload: str, seconds: float) -> int:
    """Op count of a run of *seconds* seconds."""
    return max(1, round(RATES[workload] * seconds))


def _log_uniform(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    """*n* sizes drawn log-uniformly over ``[lo, hi]``, one per stratum.

    Stratifying keeps the total work of a list nearly independent of the
    seed while every size still comes from the seed; the shuffle makes
    the order seeded too.
    """
    span = math.log(hi) - math.log(lo)
    sizes = [
        min(hi, max(lo, round(math.exp(math.log(lo) + (i + rng.random()) / n * span))))
        for i in range(n)
    ]
    rng.shuffle(sizes)
    return sizes


def make_ops(workload: str, seed: int, n: int) -> List[Op]:
    """The op list of *workload* for *seed*: *n* ops."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "imb-rndv":
        return _log_uniform(rng, n, *RNDV_SIZES)
    if workload == "abinit-scf":
        return [rng.randrange(2**31) for _ in range(n)]
    raise ValueError(f"unknown workload {workload!r}")


#: one op per workload, independent of the seed, that fills lazy caches
#: before the timed phase (its time counts in setup_s)
WARMUP: Dict[str, Op] = {
    "imb-rndv": 1 * MB,
    "abinit-scf": 0,
}


def _imb_rows(result) -> Payload:
    return [
        (result.hugepages, result.lazy_dereg, row.size, row.ticks_per_iter,
         row.latency_us, row.bandwidth_mb_s)
        for row in result.rows
    ]


def run_op(workload: str, op: Op, sink: Optional[list] = None) -> Payload:
    """Run one op through the public workload API; return its payload.

    *sink*, when given, receives every cluster the op built, so a traced
    run can read their counters and event counts afterwards.
    """
    from repro.systems import presets

    if workload == "imb-rndv":
        from repro.workloads.imb import SendRecvBenchmark

        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        payload: Payload = []
        for hugepages, lazy in RNDV_CURVES:
            result = bench.run([op], hugepages=hugepages, lazy_dereg=lazy, iterations=4)
            payload += _imb_rows(result)
            if sink is not None:
                sink.append(bench.last_cluster)
        return payload
    if workload == "abinit-scf":
        from repro.workloads.abinit import run_abinit

        return [
            astuple(run_abinit(presets.opteron_infinihost_pcie(), hugepages=hp,
                               iterations=1, seed=op))
            for hp in (False, True)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def oracle_plan(workload: str, ops: Sequence[Op], seed: int) -> List[int]:
    """The seeded oracle sample: indices of the ops to re-run."""
    rng = random.Random(f"oracle/{workload}/{seed}")
    return sorted(rng.sample(range(len(ops)), min(ORACLE_OPS[workload], len(ops))))


def oracle_check(
    workload: str,
    ops: Sequence[Op],
    payloads: Sequence[Optional[Payload]],
    seed: int,
) -> List[int]:
    """Re-run the oracle sample on the reference costing path.

    Returns the indices of sampled ops whose recorded payload differs
    from the reference path's (or whose reference run raised).  Ops that
    already failed in the timed phase are skipped.
    """
    from repro import fastpath

    mismatched = []
    for i in oracle_plan(workload, ops, seed):
        if payloads[i] is None:
            continue
        try:
            with fastpath.forced(False):
                reference = run_op(workload, ops[i])
        except Exception:  # a crash on the reference path is a failed op
            mismatched.append(i)
            continue
        if reference != payloads[i]:
            mismatched.append(i)
    return mismatched
