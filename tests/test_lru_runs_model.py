"""Property tests for the run-length LRU state (:class:`repro.fastpath.RunLRU`).

A state machine drives random sweeps, single accesses, region
invalidations, flushes and checkpoint round trips through an ATT cache
(stride 1, one tag per memory region) and a split TLB (stride 4096 and
2 MB), and mirrors every step in a key-by-key ``OrderedDict`` model.
After every step the hit counts, the LRU content and order, and the
run encoding itself (canonical: no run continues the run before it)
must agree with the model.
"""

from collections import OrderedDict

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.analysis import CounterSet
from repro.fastpath import RunLRU
from repro.ib.att import ATTCache, ATTConfig
from repro.mem import PAGE_2M, PAGE_4K, TLBConfig
from repro.mem.tlb import SplitTLB

MR_IDS = (1, 2, 3)
PAGE_SIZES = (PAGE_4K, PAGE_2M)


def _replay(model, keys, capacity):
    """The key-by-key LRU loop; returns the hit count."""
    hits = 0
    for key in keys:
        if key in model:
            model.move_to_end(key)
            hits += 1
        else:
            while len(model) >= capacity:
                model.popitem(last=False)
            model[key] = True
    return hits


def _canonical_runs(keys, stride):
    """``(tag, first, n)`` runs of *keys*, each as long as it can be."""
    runs = []
    for tag, key in keys:
        if runs and runs[-1][0] == tag and runs[-1][1] + runs[-1][2] * stride == key:
            runs[-1][2] += 1
        else:
            runs.append([tag, key, 1])
    return [tuple(run) for run in runs]


class LRURunsMachine(RuleBasedStateMachine):
    @initialize(att_entries=st.integers(1, 16), entries_4k=st.integers(1, 16),
                entries_2m=st.integers(1, 16))
    def build(self, att_entries, entries_4k, entries_2m):
        self.att = ATTCache(ATTConfig(entries=att_entries), CounterSet())
        self.tlb = SplitTLB(TLBConfig(entries_4k=entries_4k, entries_2m=entries_2m),
                            CounterSet())
        self.att_model = OrderedDict()
        self.tlb_models = {PAGE_4K: OrderedDict(), PAGE_2M: OrderedDict()}
        self.att_hits = self.att_misses = 0

    # -- ATT: stride 1, tagged by region -------------------------------------
    @rule(mr_id=st.sampled_from(MR_IDS), first=st.integers(0, 15),
          n=st.integers(1, 16))
    def att_sweep(self, mr_id, first, n):
        want = _replay(self.att_model, [(mr_id, i) for i in range(first, first + n)],
                       self.att.config.entries)
        assert self.att.sweep_range(mr_id, first, n) == (want, n - want)
        self.att_hits += want
        self.att_misses += n - want

    @rule(mr_id=st.sampled_from(MR_IDS), entry=st.integers(0, 15))
    def att_access(self, mr_id, entry):
        want = _replay(self.att_model, [(mr_id, entry)], self.att.config.entries)
        hit, stall = self.att.access(mr_id, entry)
        assert hit == bool(want)
        assert stall == (0.0 if want else self.att.config.fetch_ns)
        self.att_hits += want
        self.att_misses += 1 - want

    @rule(mr_id=st.sampled_from(MR_IDS))
    def att_invalidate(self, mr_id):
        doomed = [key for key in self.att_model if key[0] == mr_id]
        for key in doomed:
            del self.att_model[key]
        assert self.att.invalidate_region(mr_id) == len(doomed)

    @rule()
    def att_flush(self):
        self.att.flush()
        self.att_model.clear()

    # -- TLB: stride = page size, one tag ------------------------------------
    @rule(page_size=st.sampled_from(PAGE_SIZES), first=st.integers(0, 15),
          n=st.integers(1, 16))
    def tlb_sweep(self, page_size, first, n):
        keys = [(0, page * page_size) for page in range(first, first + n)]
        want = _replay(self.tlb_models[page_size], keys,
                       self.tlb.config.entries_for(page_size))
        got = self.tlb.sweep(first * page_size, n, page_size)
        assert got == (want, n - want, (n - want) * self.tlb.config.walk_ns(page_size))

    @rule(page_size=st.sampled_from(PAGE_SIZES), page=st.integers(0, 15),
          offset=st.integers(0, PAGE_4K - 1))
    def tlb_access(self, page_size, page, offset):
        want = _replay(self.tlb_models[page_size], [(0, page * page_size)],
                       self.tlb.config.entries_for(page_size))
        hit, _ = self.tlb.access(page * page_size + offset, page_size)
        assert hit == bool(want)

    @rule()
    def tlb_flush(self):
        self.tlb.flush()
        for model in self.tlb_models.values():
            model.clear()

    # -- checkpoints ---------------------------------------------------------
    @rule()
    def round_trip(self):
        """A restored copy holds the same runs and carries on as one."""
        att = ATTCache(self.att.config, self.att.counters)
        att.load_state(self.att.dump_state())
        assert att._cache.runs() == self.att._cache.runs()
        tlb = SplitTLB(self.tlb.config, self.tlb.counters)
        tlb.load_state(self.tlb.dump_state())
        for page_size in PAGE_SIZES:
            assert tlb._arrays[page_size].runs() == self.tlb._arrays[page_size].runs()
        self.att, self.tlb = att, tlb

    # -- invariants ------------------------------------------------------------
    @invariant()
    def att_matches_model(self):
        keys = list(self.att_model)
        assert self.att.keys() == keys
        assert self.att.dump_state() == keys
        assert self.att.resident == len(keys)
        assert self.att._cache.runs() == _canonical_runs(keys, 1)
        assert self.att.counters["att.hit"] == self.att_hits
        assert self.att.counters["att.miss"] == self.att_misses

    @invariant()
    def tlb_matches_model(self):
        for page_size, model in self.tlb_models.items():
            keys = [vpage for _, vpage in model]
            assert self.tlb.keys(page_size) == keys
            assert self.tlb.dump_state()[page_size] == keys
            assert self.tlb.resident(page_size) == len(keys)
            assert self.tlb._arrays[page_size].runs() == \
                _canonical_runs(list(model), page_size)


LRURunsMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLRURunsModel = LRURunsMachine.TestCase


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        RunLRU(0)


def test_newer_run_below_an_older_one():
    """The swept keys of a newer run that precede an older run's keys
    in the sweep were already counted as newer: counted once."""
    lru = RunLRU(2)
    lru.access(5)
    lru.access(4)  # runs: [5] then [4]
    assert lru.sweep(4, 2) == 2  # 4 hits, then 5 is one key deep
    assert lru.runs() == [(0, 4, 2)]


def test_neighbours_merge_when_the_run_between_them_leaves():
    lru = RunLRU(16)
    lru.sweep(0, 3)
    lru.access(5)
    lru.sweep(3, 2)  # runs: [0..2], [5], [3, 4]
    assert lru.runs() == [(0, 0, 3), (0, 5, 1), (0, 3, 2)]
    lru.access(5)
    assert lru.runs() == [(0, 0, 6)]
