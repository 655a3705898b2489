"""Physical memory: frame pools for base pages and hugepages.

Two properties of real machines matter for the paper's results and are
modelled here:

1. **Hugepages are physically contiguous.**  A 2 MB hugepage is one 2 MB
   aligned frame, so the hardware prefetcher can stream across what would
   otherwise be 512 unrelated 4 KB frames.
2. **The 4 KB frame pool is fragmented.**  On a machine that has been up
   for a while, consecutive virtual pages map to scattered physical
   frames.  We model this by handing out 4 KB frames in a seeded
   pseudo-random order (the ``fragmentation`` knob interpolates between
   fully sequential and fully scattered).

The 4 KB pool is lazy: frames are drawn from shuffle *windows* of 4096
frames (16 MB) generated on demand, so constructing a 16 GB machine does
not materialise four million frame addresses.  Scattering within a 16 MB
window is exactly what the prefetcher model cares about — consecutive
virtual pages land on non-adjacent frames.

Every fresh node of a spec draws the same windows (same seed, same
fragmentation, same pool size), and drawing one costs a ``choice`` and
two sorts of 4096 frames.  A pool whose RNG has run from its seed
therefore takes window *k* from a process-wide memo keyed by (seed,
fragmentation, pool frames, *k*): a read-only array plus the RNG state
after the draw, which the pool adopts, so its RNG and its snapshots are
exactly what drawing the window would have left.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: base page size (bytes)
PAGE_4K = 4096
#: hugepage size (bytes)
PAGE_2M = 2 * 1024 * 1024
#: frames per hugepage
FRAMES_PER_HUGEPAGE = PAGE_2M // PAGE_4K
#: frames per lazy shuffle window
_WINDOW_FRAMES = 4096
#: an exhausted shuffle window
_EMPTY = np.empty(0, dtype=np.int64)
#: shuffled windows by (seed, fragmentation, pool frames, refill index):
#: the read-only window (frame addresses) and the RNG state after it
_WINDOW_MEMO: Dict[tuple, Tuple[np.ndarray, dict]] = {}
#: memoised windows kept at most (32 KB of addresses each); past the cap
#: pools draw their windows themselves
_WINDOW_MEMO_MAX = 64


class OutOfMemoryError(MemoryError):
    """Raised when a frame pool is exhausted."""


def is_aligned(value: int, alignment: int) -> bool:
    """True if *value* is a multiple of *alignment*."""
    return value % alignment == 0


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to the next multiple of *alignment*."""
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round *value* down to a multiple of *alignment*."""
    return value - value % alignment


class PhysicalMemory:
    """Physical memory split into a 4 KB pool and a hugepage pool.

    Parameters
    ----------
    total_bytes:
        Total physical memory.  The hugepage pool is carved from the top.
    hugepages:
        Number of 2 MB hugepages reserved at boot (``hugetlb_pool``).
    fragmentation:
        0.0 = 4 KB frames handed out in address order (freshly booted
        machine); 1.0 = fully shuffled within each window (long-running
        machine).  The paper's test systems are busy cluster nodes, so
        presets default to high fragmentation.
    seed:
        Seed for the frame-order shuffling (determinism).
    """

    def __init__(
        self,
        total_bytes: int,
        hugepages: int = 0,
        fragmentation: float = 1.0,
        seed: int = 2006,
    ):
        if total_bytes <= 0 or not is_aligned(total_bytes, PAGE_2M):
            raise ValueError(
                f"total_bytes must be a positive multiple of {PAGE_2M}, got {total_bytes}"
            )
        if not 0.0 <= fragmentation <= 1.0:
            raise ValueError(f"fragmentation must be in [0,1], got {fragmentation}")
        huge_bytes = hugepages * PAGE_2M
        if huge_bytes >= total_bytes:
            raise ValueError(
                f"hugepage pool ({huge_bytes} B) does not fit in {total_bytes} B"
            )
        self.total_bytes = total_bytes
        self.fragmentation = fragmentation

        # hugepage pool sits at the top of physical memory
        self._huge_base = total_bytes - huge_bytes
        self._free_huge: List[int] = list(
            range(self._huge_base, total_bytes, PAGE_2M)
        )
        self._total_huge = hugepages

        # lazy 4 KB pool below it
        self._total_small = self._huge_base // PAGE_4K
        self._cursor = 0  # next never-touched frame index
        # current shuffle window in hand-out order; frames before
        # _window_pos are already handed out
        self._window = _EMPTY
        self._window_pos = 0
        # freed frames (reused first, last freed first): a stack held in
        # the first _n_returned slots of a growable array
        self._returned = np.empty(_WINDOW_FRAMES, dtype=np.int64)
        self._n_returned = 0
        self._rng = np.random.default_rng(seed)
        #: window-memo key prefix: the RNG state after the same refills
        #: is the same for every pool built from these arguments
        self._memo_key = (seed, fragmentation, self._total_small)
        # CoW sharing: refcounts > 1 for frames mapped by several address
        # spaces after a fork; freeing a shared frame just drops a ref
        self._shared: dict = {}

    # -- 4 KB frames ------------------------------------------------------
    @property
    def free_small_frames(self) -> int:
        """Number of free 4 KB frames."""
        return (
            (self._total_small - self._cursor)
            + (len(self._window) - self._window_pos)
            + self._n_returned
        )

    def _refill_window(self) -> None:
        n = min(_WINDOW_FRAMES, self._total_small - self._cursor)
        if n <= 0:
            raise OutOfMemoryError("4 KB frame pool exhausted")
        self._window_pos = 0
        key = self._memo_key + (self._cursor // _WINDOW_FRAMES,)
        memo = _WINDOW_MEMO.get(key)
        if memo is not None:
            self._window, self._rng.bit_generator.state = memo
            self._cursor += n
            return
        order = np.arange(self._cursor, self._cursor + n, dtype=np.int64)
        self._cursor += n
        if self.fragmentation > 0.0 and n > 1:
            n_shuffle = int(n * self.fragmentation)
            if n_shuffle > 1:
                idx = self._rng.choice(n, size=n_shuffle, replace=False)
                order[np.sort(idx)] = order[self._rng.permutation(np.sort(idx))]
        self._window = order * PAGE_4K
        if len(_WINDOW_MEMO) < _WINDOW_MEMO_MAX:
            self._window.setflags(write=False)
            _WINDOW_MEMO[key] = (self._window, self._rng.bit_generator.state)

    def alloc_frame(self) -> int:
        """Allocate one 4 KB frame; returns its physical address."""
        if self._n_returned:
            self._n_returned -= 1
            return int(self._returned[self._n_returned])
        if self._window_pos == len(self._window):
            self._refill_window()
        self._window_pos += 1
        return int(self._window[self._window_pos - 1])

    def alloc_frames(self, n: int) -> np.ndarray:
        """Allocate *n* 4 KB frames in one call, as an int64 array.

        Returns exactly the frames ``n`` consecutive :meth:`alloc_frame`
        calls would return, in the same order (freed frames first, then
        shuffle-window frames) — allocation order feeds the prefetcher
        model, so the bulk path must not perturb it.  On exhaustion the
        partial allocation is returned to the pool and
        :class:`OutOfMemoryError` propagates.
        """
        if n <= 0:
            raise ValueError(f"frame count must be positive, got {n}")
        take = min(n, self._n_returned)
        top = self._n_returned
        # the stack pops from the top: reversed slice of the top *take*
        parts = [self._returned[top - take:top][::-1].copy()] if take else []
        self._n_returned = top - take
        remaining = n - take
        try:
            while remaining:
                if self._window_pos == len(self._window):
                    self._refill_window()
                pos = self._window_pos
                step = min(remaining, len(self._window) - pos)
                parts.append(self._window[pos:pos + step])
                self._window_pos = pos + step
                remaining -= step
        except OutOfMemoryError:
            if parts:
                self.free_frames(np.concatenate(parts))
            raise
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def free_frame(self, paddr: int) -> None:
        """Return a 4 KB frame to the pool (or drop a CoW reference)."""
        if not is_aligned(paddr, PAGE_4K) or paddr >= self._huge_base:
            raise ValueError(f"bad 4 KB frame address {paddr:#x}")
        if self._drop_share(paddr):
            return
        self._push_returned(np.array([paddr], dtype=np.int64))

    def free_frames(self, paddrs) -> None:
        """Return many 4 KB frames (a sequence or int64 array), exactly as
        :meth:`free_frame` would one by one in order: the last frame is
        the first reused."""
        frames = np.asarray(paddrs, dtype=np.int64)
        if not len(frames):
            return
        bad = (frames % PAGE_4K != 0) | (frames >= self._huge_base)
        if np.count_nonzero(bad):
            paddr = int(frames[int(np.argmax(bad))])
            raise ValueError(f"bad 4 KB frame address {paddr:#x}")
        if self._shared:
            frames = np.array(
                [p for p in frames.tolist() if not self._drop_share(p)],
                dtype=np.int64,
            )
        self._push_returned(frames)

    def _push_returned(self, frames: np.ndarray) -> None:
        top = self._n_returned
        need = top + len(frames)
        if need > len(self._returned):
            grown = np.empty(max(need, 2 * len(self._returned)), dtype=np.int64)
            grown[:top] = self._returned[:top]
            self._returned = grown
        self._returned[top:need] = frames
        self._n_returned = need

    # -- CoW sharing --------------------------------------------------------
    def share_frame(self, paddr: int) -> None:
        """Register one more owner of *paddr* (any frame size)."""
        self._shared[paddr] = self._shared.get(paddr, 1) + 1

    def _drop_share(self, paddr: int) -> bool:
        """Drop a reference; True if other owners remain (don't free)."""
        count = self._shared.get(paddr)
        if count is None:
            return False
        if count == 2:
            del self._shared[paddr]  # one owner left: back to unshared
        else:
            self._shared[paddr] = count - 1
        return True

    def shared_owners(self, paddr: int) -> int:
        """Current owner count of a frame (1 when unshared)."""
        return self._shared.get(paddr, 1)

    # -- hugepage frames ---------------------------------------------------
    @property
    def total_hugepages(self) -> int:
        """Configured size of the hugepage pool."""
        return self._total_huge

    @property
    def free_hugepages(self) -> int:
        """Number of free 2 MB frames."""
        return len(self._free_huge)

    def alloc_hugepage(self) -> int:
        """Allocate one 2 MB frame; returns its physical address."""
        if not self._free_huge:
            raise OutOfMemoryError("hugepage pool exhausted")
        return self._free_huge.pop()

    def free_hugepage(self, paddr: int) -> None:
        """Return a 2 MB frame to the pool (or drop a CoW reference)."""
        if not is_aligned(paddr, PAGE_2M) or paddr < self._huge_base:
            raise ValueError(f"bad hugepage frame address {paddr:#x}")
        if self._drop_share(paddr):
            return
        self._free_huge.append(paddr)

    def contains_hugepage(self, paddr: int) -> bool:
        """True if *paddr* lies in the hugepage pool region."""
        return paddr >= self._huge_base

    # -- snapshot view ------------------------------------------------------
    def dump_state(self) -> dict:
        """Picklable snapshot of the mutable pool state (geometry —
        total bytes, pool sizes — comes from the MachineSpec and is not
        repeated here)."""
        return {
            "cursor": self._cursor,
            # snapshot format: the remaining window in reverse hand-out order
            "window": self._window[self._window_pos:][::-1].tolist(),
            "returned": self._returned[:self._n_returned].tolist(),
            "free_huge": list(self._free_huge),
            "shared": dict(self._shared),
            "rng_state": self._rng.bit_generator.state,
        }
