"""Tests for the registration cache."""

from repro.faults import FaultPlan, PermanentRegistrationError
from repro.ib.verbs import ProtectionDomain
from repro.mpi.regcache import (MAX_REG_ATTEMPTS, REG_RETRY_BACKOFF_NS,
                                RegistrationCache)
from repro.systems import Cluster, presets

KB = 1024
MB = 1024 * 1024


def make_cache(enabled=True, capacity=None, fault_plan=None):
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2,
                      fault_plan=fault_plan)
    node = cluster.nodes[0]
    proc = node.new_process()
    cache = RegistrationCache(
        node.hca, proc.aspace, ProtectionDomain.fresh(),
        enabled=enabled, capacity_bytes=capacity,
    )
    return cluster.kernel, proc, cache


def drive(kernel, gen):
    """Run a generator to completion on the kernel, return its value."""
    proc = kernel.process(gen)
    kernel.run()
    return proc.value


def acquire(cache, vaddr, length):
    """An event firing with the MR :meth:`RegistrationCache.acquire_then`
    hands over (or failing with its error)."""
    ev = cache.hca.kernel.event()
    cache.acquire_then(vaddr, length, ev.succeed, ev.fail)
    return ev


def release(cache, mr):
    """An event firing once :meth:`RegistrationCache.release_then` is
    done with *mr*."""
    ev = cache.hca.kernel.event()
    cache.release_then(mr, ev.succeed)
    return ev


class TestRegistrationCache:
    def test_hit_on_exact_range(self):
        kernel, proc, cache = make_cache()
        buf = proc.aspace.mmap(MB).start

        def scenario():
            mr1 = yield acquire(cache, buf, MB)
            mr2 = yield acquire(cache, buf, MB)
            return mr1, mr2

        mr1, mr2 = drive(kernel, scenario())
        assert mr1 is mr2
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_on_contained_range(self):
        kernel, proc, cache = make_cache()
        buf = proc.aspace.mmap(MB).start

        def scenario():
            yield acquire(cache, buf, MB)
            mr = yield acquire(cache, buf + 100 * KB, 100 * KB)
            return mr

        drive(kernel, scenario())
        assert cache.hits == 1

    def test_hit_is_free_in_time(self):
        kernel, proc, cache = make_cache()
        buf = proc.aspace.mmap(MB).start

        def scenario():
            yield acquire(cache, buf, MB)
            t0 = kernel.now
            yield acquire(cache, buf, MB)
            return kernel.now - t0

        assert drive(kernel, scenario()) == 0

    def test_disabled_cache_always_registers(self):
        kernel, proc, cache = make_cache(enabled=False)
        buf = proc.aspace.mmap(MB).start

        def scenario():
            mr1 = yield acquire(cache, buf, MB)
            yield release(cache, mr1)
            mr2 = yield acquire(cache, buf, MB)
            yield release(cache, mr2)

        drive(kernel, scenario())
        assert cache.misses == 2
        assert len(cache) == 0

    def test_capacity_evicts_lru(self):
        kernel, proc, cache = make_cache(capacity=2 * MB)
        bufs = [proc.aspace.mmap(MB).start for _ in range(3)]

        def scenario():
            # release each MR before the next acquire: only idle
            # (unpinned) entries are eviction candidates
            for b in bufs:
                mr = yield acquire(cache, b, MB)
                yield release(cache, mr)

        drive(kernel, scenario())
        assert cache.cached_bytes <= 2 * MB
        assert cache.counters["regcache.evict"] == 1

    def test_eviction_skips_pinned_inflight_mr(self):
        """Capacity eviction must never evict an MR a transfer still
        holds (acquired, not yet released): deregistering it would pull
        the adapter's translations out from under an in-flight DMA.
        The LRU entry here is pinned, so the *next*-coldest unpinned
        entry must be the victim instead."""
        kernel, proc, cache = make_cache(capacity=2 * MB)
        buf_a, buf_b, buf_c = [proc.aspace.mmap(MB).start for _ in range(3)]

        def scenario():
            # A: acquired and *held* (an in-flight rendezvous), LRU slot
            mr_a = yield acquire(cache, buf_a, MB)
            # B: acquired and released — idle, the legal victim
            mr_b = yield acquire(cache, buf_b, MB)
            yield release(cache, mr_b)
            # C: pushes the cache over capacity
            yield acquire(cache, buf_c, MB)
            return mr_a

        mr_a = drive(kernel, scenario())
        assert cache.counters["regcache.evict"] == 1
        # A (pinned, though LRU) survived; B was evicted
        assert mr_a in cache._entries
        assert cache._find(buf_a, MB) is mr_a
        assert cache._find(buf_b, MB) is None
        assert mr_a.registered

    def test_release_unpins_for_future_eviction(self):
        """Once released, a formerly pinned MR is an ordinary eviction
        candidate again."""
        kernel, proc, cache = make_cache(capacity=2 * MB)
        buf_a, buf_b, buf_c = [proc.aspace.mmap(MB).start for _ in range(3)]

        def scenario():
            mr_a = yield acquire(cache, buf_a, MB)
            yield release(cache, mr_a)
            mr_b = yield acquire(cache, buf_b, MB)
            yield release(cache, mr_b)
            yield acquire(cache, buf_c, MB)

        drive(kernel, scenario())
        # A was LRU and unpinned: evicted normally
        assert cache._find(buf_a, MB) is None
        assert cache.counters["regcache.evict"] == 1

    def test_invalidate_range_unpins(self):
        kernel, proc, cache = make_cache()
        vma = proc.aspace.mmap(MB)

        def scenario():
            yield acquire(cache, vma.start, MB)

        drive(kernel, scenario())
        dropped = cache.invalidate_range(vma.start, MB)
        assert dropped == 1
        proc.aspace.munmap(vma.start)  # possible only if unpinned

    def test_invalidate_ignores_disjoint(self):
        kernel, proc, cache = make_cache()
        a = proc.aspace.mmap(MB)
        b = proc.aspace.mmap(MB)

        def scenario():
            yield acquire(cache, a.start, MB)

        drive(kernel, scenario())
        assert cache.invalidate_range(b.start, MB) == 0
        assert len(cache) == 1

    def test_unmap_hook_integration(self):
        """Freeing an mmap-backed buffer must invalidate the cache (the
        paper's motivation for hooking unmap, not free)."""
        from repro.mpi import MPIConfig, MPIWorld

        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        world = MPIWorld(cluster, ppn=1)

        def program(comm):
            other = 1 - comm.rank
            for _ in range(3):
                buf = comm.proc.malloc(512 * KB)  # libc mmap path
                yield from comm.sendrecv(other, 4, 256 * KB, source=other,
                                         recvtag=4, send_addr=buf,
                                         recv_addr=buf + 256 * KB)
                comm.proc.free(buf)  # munmap -> hook -> invalidate
            return comm.endpoint.regcache.misses

        results = world.run(program)
        # every iteration re-registers: the cache never helps here
        assert all(r.value >= 3 for r in results)


    def test_transient_failures_retry_then_reach_fail(self):
        """Each transient failure backs off as a kernel step and retries;
        the last is promoted to a permanent failure and handed to
        *fail*, not raised into the kernel loop."""
        kernel, proc, cache = make_cache(
            fault_plan=FaultPlan(reg_transient=1.0))
        buf = proc.aspace.mmap(MB).start
        got = []
        cache.acquire_then(buf, MB, got.append, got.append)
        kernel.run()
        [exc] = got
        assert isinstance(exc, PermanentRegistrationError)
        assert str(exc).endswith(f"still failing after {MAX_REG_ATTEMPTS} attempts")
        assert cache.counters["faults.regcache.retries"] == MAX_REG_ATTEMPTS
        clock = cache.hca.clock
        assert kernel.now == sum(
            clock.ns_to_ticks(REG_RETRY_BACKOFF_NS * 2 ** i)
            for i in range(MAX_REG_ATTEMPTS - 1))
        assert len(cache) == 0 and not cache._pins

