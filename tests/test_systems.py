"""Tests for machines, presets and clusters."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import SimKernel
from repro.systems import Cluster, Machine, presets

MB = 1024 * 1024


class TestPresets:
    def test_all_presets_construct(self):
        for name, factory in presets.ALL_PRESETS.items():
            spec = factory()
            machine = Machine(SimKernel(), spec)
            assert machine.name == name

    def test_paper_quoted_opteron_tlb(self):
        """§2 quotes the Opteron's 544 vs 8 TLB entries explicitly."""
        spec = presets.opteron_infinihost_pcie()
        assert spec.tlb.entries_4k == 544
        assert spec.tlb.entries_2m == 8

    def test_system_p_timebase(self):
        """1.65 GHz / 8 = 206.25 ticks/us (the paper's TBR unit)."""
        assert presets.systemp_ehca().ticks_per_us == pytest.approx(206.25)

    def test_bus_assignment(self):
        assert presets.opteron_infinihost_pcie().bus.name == "PCIe-x8"
        assert presets.xeon_infinihost_pcix().bus.name == "PCI-X-133"
        assert presets.systemp_ehca().bus.name == "GX"

    def test_xeon_defaults_to_stock_driver(self):
        """The Xeon experiment's baseline is the unmodified OpenIB."""
        assert not presets.xeon_infinihost_pcix().hugepage_aware_driver

    def test_with_driver_copies(self):
        spec = presets.xeon_infinihost_pcix()
        patched = spec.with_driver(True)
        assert patched.hugepage_aware_driver
        assert not spec.hugepage_aware_driver


class TestMachine:
    def test_components_wired(self):
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        assert machine.hca.att is machine.att
        assert machine.hca.bus is machine.bus
        assert machine.reg_engine.driver is machine.driver
        assert machine.hugetlbfs.physical is machine.physical

    def test_processes_share_machine_memory(self):
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        p1 = machine.new_process()
        p2 = machine.new_process()
        before = machine.physical.free_small_frames
        p1.aspace.mmap(MB)
        assert machine.physical.free_small_frames < before
        assert p2.aspace.physical is machine.physical
        assert machine.processes == [p1, p2]

    def test_process_allocator_stack(self):
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        proc = machine.new_process()
        assert proc.allocator is proc.libc
        p = proc.malloc(100)
        proc.free(p)

    def test_destroy_releases(self):
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        proc = machine.new_process()
        before = machine.physical.free_small_frames
        proc.malloc(64 * 1024)
        proc.destroy()
        assert machine.physical.free_small_frames == before


class TestOrphanProcess:
    """A process outlives its machine.  The machine owns its processes
    and a process keeps no link back to it, so a caller that keeps only
    the process (``machine.new_process()`` returned from a helper) holds
    a process that still works, and costs exactly what it cost while
    its machine was alive."""

    @staticmethod
    def _process():
        return Machine(SimKernel(), presets.opteron_infinihost_pcie()).new_process()

    @staticmethod
    def _exercise(proc):
        from repro.core import preload_hugepage_library

        small = proc.malloc(100 * 1024)
        stream = proc.engine.stream(small, 100 * 1024, write=True).ticks
        proc.free(small)
        preload_hugepage_library(proc)
        big = proc.malloc(4 * MB)
        huge = proc.engine.stream(big, 4 * MB).ticks
        proc.free(big)
        return stream, huge, proc.counters.snapshot()

    def test_orphan_costs_what_a_wired_process_costs(self):
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        wired = self._exercise(machine.new_process())
        orphan = self._process()
        gc.collect()
        assert self._exercise(orphan) == wired

    def test_orphan_fork_works_and_stays_an_orphan(self):
        """``fork()`` of an orphan works: the child gets a CoW copy of
        the parent's memory and its own machinery, and, with no machine
        left to join, is an orphan too."""
        parent = self._process()
        gc.collect()
        buf = parent.malloc(64 * 1024)
        child = parent.fork("child")
        assert child.name == "child"
        assert child.aspace is not parent.aspace
        assert child.engine.stream(buf, 64 * 1024).ticks > 0
        assert child.counters is not parent.counters
        fresh = child.malloc(4096)
        child.free(fresh)
        parent.free(buf)


class TestCluster:
    def test_nodes_share_kernel(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 3)
        assert len(cluster.nodes) == 3
        assert all(n.kernel is cluster.kernel for n in cluster.nodes)

    def test_full_mesh_wiring(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 3)
        assert len(cluster.wires) == 3  # 3 choose 2
        # every pair can route
        for i in range(3):
            for j in range(3):
                if i != j:
                    cluster.nodes[i].hca.wire_to(cluster.nodes[j].hca)

    def test_needs_one_node(self):
        with pytest.raises(ValueError):
            Cluster(presets.opteron_infinihost_pcie(), 0)

    def test_aggregate_counters(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        proc = cluster.nodes[0].new_process()
        proc.malloc(100)
        agg = cluster.aggregate_counters()
        assert agg.get("alloc.libc.malloc", 0) == 1

    def test_live_clusters_tracks_live_clusters(self):
        from repro.checkpoint import live_clusters

        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        assert cluster in live_clusters()

    def test_building_a_cluster_leaves_checkpoint_unloaded(self):
        """A simulation run never pays for the checkpoint module: the
        watchdog's registry of live clusters lives beside ``Cluster``."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys\n"
                "from repro.systems import Cluster, presets\n"
                "Cluster(presets.opteron_infinihost_pcie(), 2)\n"
                "print('repro.checkpoint' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"
