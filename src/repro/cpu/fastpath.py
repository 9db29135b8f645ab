"""Inlined per-front-end hit kernels for the encoded replay loop.

Replaying a trace through the object path costs ~6 Python call hops per
memory event (``frontend.read`` → ``Access.__init__``/``__post_init__``
→ ``Cache.access`` → ``Access.lines`` → ``_access_line`` →
``BankTimer.reserve``), and that per-access overhead — not the
simulation arithmetic — dominates wall-clock time.  This module builds,
per run, a triple of closures ``(fast_read, fast_write, fast_prefetch)``
that serve the *single-line hit* case of one front-end in a single call
frame, binding every piece of mutable state (tag lists, dirty bits, bank
busy times, LRU orders, stat counters) as closure locals.
``fast_prefetch`` is ``None`` except on the VWB front-end, whose
software prefetches (a quarter of a FULL-level trace's events) stage
wide promotions into the fill buffers: the kernel serves useless hints,
hints dropped on a full file of in-flight promotions, and staged
promotions of array-resident windows, committing the oldest completed
staged window into a VWB line first.

The contract, pinned by ``tests/test_encode.py``:

- A kernel either completes an access with **exactly** the state
  mutations and the bit-identical float latency of the generic path, or
  it returns ``None`` having touched **nothing**, and the caller falls
  back to the ordinary ``frontend.read``/``write``/``prefetch`` call.  Misses,
  multi-line/multi-window accesses, in-flight fills and every rare case
  take the fallback, so there is exactly one implementation of the
  complicated paths.
- :func:`make_fast_ops` returns ``None`` (no fast path at all) whenever
  any feature that hooks the hit path is active: an attached probe, a
  fault injector, AWARE asymmetric writes, per-line write tracking, or
  a hardware prefetcher.  Exact ``type()`` checks keep subclassed
  front-ends on the generic path too.

The kernels are rebuilt for every encoded run because ``reset()``/
``clear_stats()`` replace the captured containers.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.dropin import PlainFrontend
from ..core.emshr import EMSHRFrontend
from ..core.frontend import DCacheFrontend
from ..core.hybrid import HybridFrontend
from ..core.l0 import L0Frontend
from ..core.vwb_frontend import VWBFrontend, _PendingWindow
from ..mem.cache import Cache, WideReadResult
from ..workloads.elim import PK_BRANCH, PK_COMPUTE, PK_STORE, book_run

#: A fast kernel: ``(addr, size, now) -> latency`` or ``None`` to fall
#: back to the generic front-end call (with no state touched).
FastOp = Callable[[int, int, float], Optional[float]]
#: A fast prefetch kernel: ``(addr, now) -> stall`` or ``None`` to fall
#: back to ``frontend.prefetch`` (with no state touched).
FastPrefetch = Callable[[int, float], Optional[float]]
#: What :func:`make_fast_ops` returns for an eligible front-end.
FastOps = Tuple[FastOp, FastOp, Optional[FastPrefetch]]


def _array_eligible(cache: Cache) -> bool:
    """True when the cache's hit path has no hooks the kernels skip."""
    return (
        cache._injector is None
        and not cache._probing
        and cache.config.fast_write_cycles is None
        and not cache.config.track_line_writes
    )


def _passthrough_ops(cache: Cache, fstats, count_hits: bool) -> Tuple[FastOp, FastOp]:
    """Kernels for the single-line hit path of a plain :class:`Cache`.

    Mirrors ``Cache._access_line``'s hit branch exactly: tag lookup,
    bank reservation, replacement touch, stat counters, and the
    ``wait + hit_cycles`` latency.  ``count_hits`` selects which
    front-end buffer counter the access books under — ``PlainFrontend``
    counts every access as a buffer *miss* (there is no buffer), the
    hybrid's SRAM partition counts a partition *hit*.
    """
    cfg = cache.config
    cstats = cache.stats
    tags = cache._tags
    dirty = cache._dirty
    repl = cache._repl
    busy = cache._banks._busy_until
    off = cache._offset_bits
    set_mask = cfg.sets - 1
    idx_shift = off + cache._index_bits
    read_cycles = float(cfg.read_hit_cycles)
    write_cycles = float(cfg.write_hit_cycles)
    bank_mask = len(busy) - 1  # bank counts are powers of two
    # Exact-LRU sets are inlined (their per-set state is one list);
    # other policies keep the single `touch` method call.
    lru_orders = [s._order for s in repl] if cfg.replacement == "lru" else None

    def fast_read(addr: int, size: int, now: float) -> Optional[float]:
        line_no = addr >> off
        if (addr + size - 1) >> off != line_no:
            return None  # spans lines: generic per-line loop
        index = line_no & set_mask
        try:
            way = tags[index].index(addr >> idx_shift)
        except ValueError:
            return None  # miss: generic fill path
        if count_hits:
            fstats.buffer_read_hits += 1
        else:
            fstats.buffer_read_misses += 1
        bank = line_no & bank_mask
        busy_until = busy[bank]
        if busy_until > now:
            wait = busy_until - now
            busy[bank] = busy_until + read_cycles
            cstats.bank_wait_cycles += int(wait)
        else:
            wait = 0.0
            busy[bank] = now + read_cycles
        if lru_orders is None:
            repl[index].touch(way)
        else:
            order = lru_orders[index]
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)
        cstats.read_hits += 1
        return wait + read_cycles

    def fast_write(addr: int, size: int, now: float) -> Optional[float]:
        line_no = addr >> off
        if (addr + size - 1) >> off != line_no:
            return None
        index = line_no & set_mask
        try:
            way = tags[index].index(addr >> idx_shift)
        except ValueError:
            return None
        if count_hits:
            fstats.buffer_write_hits += 1
        else:
            fstats.buffer_write_misses += 1
        bank = line_no & bank_mask
        busy_until = busy[bank]
        if busy_until > now:
            wait = busy_until - now
            busy[bank] = busy_until + write_cycles
            cstats.bank_wait_cycles += int(wait)
        else:
            wait = 0.0
            busy[bank] = now + write_cycles
        if lru_orders is None:
            repl[index].touch(way)
        else:
            order = lru_orders[index]
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)
        dirty[index][way] = True
        cstats.write_hits += 1
        return wait + write_cycles

    return fast_read, fast_write


def _vwb_ops(frontend: VWBFrontend) -> FastOps:
    """Kernels for the VWB front-end.

    Serves wide-line hits, array store misses, and — the expensive
    common case of unprefetched streaming code — the *demand promotion*:
    a VWB read miss whose whole window is resident in the NVM array
    (a dirty victim is written back in place when its lines are all
    still resident).  The prefetch kernel serves software prefetches:
    useless hints, hints dropped on a full fill-buffer file, and staged
    promotions of array-resident windows, committing the oldest
    completed staged window first.  Array misses and write-backs that
    would leave the array stay on the generic path.
    """
    vwb = frontend.vwb
    wb = vwb._window_bytes
    hit_cycles = frontend._hit_cycles
    wide_lines = vwb._lines
    pending = frontend._pending
    pending_get = pending.get
    fstats = frontend.stats
    _, array_write = _passthrough_ops(frontend.backing, fstats, False)

    # Backing-array internals for the inlined wide read (promotion).
    cache = frontend.backing
    cfg = cache.config
    cstats = cache.stats
    tags = cache._tags
    dirty_bits = cache._dirty
    repl = cache._repl
    busy = cache._banks._busy_until
    off = cache._offset_bits
    set_mask = cfg.sets - 1
    idx_shift = off + cache._index_bits
    read_cycles = float(cfg.read_hit_cycles)
    write_cycles = float(cfg.write_hit_cycles)
    bank_mask = len(busy) - 1
    line_bytes = cfg.line_bytes
    lru_orders = [s._order for s in repl] if cfg.replacement == "lru" else None
    n_window_lines = frontend._lines_per_window
    fill_buffers = frontend._fill_buffers

    def lru_victim():
        # `VeryWideBuffer.allocate`'s choice: the first invalid line,
        # else the least recently touched one (first on ties).
        victim = None
        best_key = None
        for wl in wide_lines:
            key = (1, wl.last_touch) if wl.window_addr is not None else (0, 0)
            if best_key is None or key < best_key:
                victim = wl
                best_key = key
        return victim

    def array_resident(window: int) -> bool:
        for i in range(n_window_lines):
            wline = window + i * line_bytes
            if (wline >> idx_shift) not in tags[(wline >> off) & set_mask]:
                return False
        return True

    def write_back(old_window: int, now: float) -> None:
        # `_handle_eviction` of a dirty window whose lines are all still
        # array-resident: one in-place array write per line, no stall.
        fstats.buffer_writebacks += 1
        for i in range(n_window_lines):
            eline = old_window + i * line_bytes
            line_no = eline >> off
            bank = line_no & bank_mask
            busy_until = busy[bank]
            if busy_until > now:
                cstats.bank_wait_cycles += int(busy_until - now)
                busy[bank] = busy_until + write_cycles
            else:
                busy[bank] = now + write_cycles
            index = line_no & set_mask
            dirty_bits[index][tags[index].index(eline >> idx_shift)] = True
            cstats.write_hits += 1

    def fast_read(addr: int, size: int, now: float) -> Optional[float]:
        w = addr // wb
        if (addr + size - 1) // wb != w:
            return None  # spans windows
        window = w * wb
        for line in wide_lines:
            if line.window_addr == window:
                vwb._clock += 1
                line.last_touch = vwb._clock
                fstats.buffer_read_hits += 1
                return hit_cycles
        staged = pending_get(window)
        if staged is not None:
            # Served straight out of the fill buffer; `wait_for` does
            # the exact critical-line bookkeeping and mutates nothing.
            stage_wait = staged.result.wait_for((addr >> off) << off, now)
            if stage_wait > 0:
                fstats.buffer_read_misses += 1
            else:
                fstats.buffer_read_hits += 1
            return stage_wait + hit_cycles
        # Demand promotion.  Pre-check everything before mutating any
        # state so a bail-out is free: every window line must be
        # array-resident (so the wide read touches no MSHR/fill logic)
        # and a dirty victim's window lines must all still be resident
        # (so each write-back is an in-place array write, zero stall).
        critical = (addr >> off) << off
        ordered = [critical]
        for i in range(n_window_lines):
            wline = window + i * line_bytes
            if (wline >> idx_shift) not in tags[(wline >> off) & set_mask]:
                return None  # array miss inside the window: generic
            if wline != critical:
                ordered.append(wline)
        victim = lru_victim()
        old_window = victim.window_addr
        writeback = old_window is not None and victim.dirty
        if writeback and not array_resident(old_window):
            return None  # write-back through the write buffer: generic
        # Commit: allocate the VWB line, write back a dirty victim, then
        # the wide array read with the critical line first (exactly the
        # generic path's order).
        fstats.buffer_read_misses += 1
        victim.window_addr = window
        victim.dirty = False
        vwb._clock += 1
        victim.last_touch = vwb._clock
        if writeback:
            write_back(old_window, now)
        ready_max = 0.0
        critical_ready = 0.0
        for wline in ordered:
            line_no = wline >> off
            bank = line_no & bank_mask
            busy_until = busy[bank]
            if busy_until > now:
                wait = busy_until - now
                finish = busy_until + read_cycles
                cstats.bank_wait_cycles += int(wait)
            else:
                finish = now + read_cycles
            busy[bank] = finish
            index = line_no & set_mask
            way = tags[index].index(wline >> idx_shift)
            if lru_orders is None:
                repl[index].touch(way)
            else:
                order = lru_orders[index]
                if order[0] != way:
                    order.remove(way)
                    order.insert(0, way)
            cstats.read_hits += 1
            if wline == critical:
                critical_ready = finish
            if finish > ready_max:
                ready_max = finish
        fstats.promotions += 1
        fstats.promotion_cycles += int(ready_max - now)
        wait = critical_ready - now
        return wait if wait > hit_cycles else hit_cycles

    def fast_write(addr: int, size: int, now: float) -> Optional[float]:
        w = addr // wb
        if (addr + size - 1) // wb != w:
            return None
        window = w * wb
        for line in wide_lines:
            if line.window_addr == window:
                vwb._clock += 1
                line.last_touch = vwb._clock
                line.dirty = True
                fstats.buffer_write_hits += 1
                return hit_cycles
        staged = pending_get(window)
        if staged is not None:
            # Merge the store into the staged wide word on arrival.
            stage_wait = staged.result.wait_for((addr >> off) << off, now)
            staged.dirty = True
            fstats.buffer_write_hits += 1
            return stage_wait + hit_cycles
        # VWB-non-allocate miss: the store goes straight to the NVM
        # array (write-back/write-allocate); within one window the
        # generic path issues Access(addr, size) unchanged.
        return array_write(addr, size, now)

    def fast_prefetch(addr: int, now: float) -> Optional[float]:
        window = (addr // wb) * wb
        useless = window in pending
        if not useless:
            for line in wide_lines:
                if line.window_addr == window:
                    useless = True
                    break
        oldest = None
        if not useless and len(pending) >= fill_buffers:
            # The file never exceeds `fill_buffers` entries, so
            # `_stage_promotion` commits at most the oldest one.
            oldest_window, oldest = next(iter(pending.items()))
            useless = oldest.result.ready_at > now  # in flight: dropped
        if useless:
            fstats.prefetches_issued += 1
            fstats.prefetches_useless += 1
            return 0.0
        # Pre-check before mutating anything: the staged window must be
        # array-resident, and so must the lines of a dirty VWB victim
        # displaced by the commit (an in-place write-back, zero stall).
        if not array_resident(window):
            return None  # array miss inside the window: generic
        writeback = False
        if oldest is not None:
            # Staged windows are never VWB-resident (a sanitizer
            # invariant), so `allocate` displaces its usual victim.
            victim = lru_victim()
            old_window = victim.window_addr
            writeback = old_window is not None and victim.dirty
            if writeback and not array_resident(old_window):
                return None  # write-back through the write buffer: generic
        fstats.prefetches_issued += 1
        if oldest is not None:
            # `_install`: allocate (one touch), plus a second dirtying
            # touch when the staged window took stores.
            del pending[oldest_window]
            victim.window_addr = oldest_window
            victim.dirty = oldest.dirty
            vwb._clock += 2 if oldest.dirty else 1
            victim.last_touch = vwb._clock
            if writeback:
                write_back(old_window, now)
        # The staged wide read, lines in address order.
        line_ready = {}
        ready_max = 0.0
        for i in range(n_window_lines):
            wline = window + i * line_bytes
            line_no = wline >> off
            bank = line_no & bank_mask
            busy_until = busy[bank]
            if busy_until > now:
                cstats.bank_wait_cycles += int(busy_until - now)
                finish = busy_until + read_cycles
            else:
                finish = now + read_cycles
            busy[bank] = finish
            index = line_no & set_mask
            way = tags[index].index(wline >> idx_shift)
            if lru_orders is None:
                repl[index].touch(way)
            else:
                order = lru_orders[index]
                if order[0] != way:
                    order.remove(way)
                    order.insert(0, way)
            cstats.read_hits += 1
            line_ready[wline] = finish
            if finish > ready_max:
                ready_max = finish
        fstats.promotions += 1
        fstats.promotion_cycles += int(ready_max - now)
        pending[window] = _PendingWindow(WideReadResult(now, line_ready))
        return 0.0

    return fast_read, fast_write, fast_prefetch


def _l0_ops(frontend: L0Frontend) -> Tuple[FastOp, FastOp]:
    """Kernels for the L0 filter cache.

    Serves L0 hits, array store misses, and the *narrow fill*: an L0
    read miss whose victim L0 line is clean and whose line is resident
    in the NVM array.  In-flight fills, dirty evictions and array
    misses stay on the generic path.
    """
    store = frontend._store
    store_lines = store._lines
    fill_ready = frontend._fill_ready
    hit_cycles = float(store.config.hit_cycles)
    fstats = frontend.stats
    _, array_write = _passthrough_ops(frontend.backing, fstats, False)

    # Backing-array internals for the inlined narrow fill read.
    cache = frontend.backing
    cfg = cache.config
    cstats = cache.stats
    tags = cache._tags
    dirty_bits = cache._dirty
    repl = cache._repl
    busy = cache._banks._busy_until
    off = cache._offset_bits
    set_mask = cfg.sets - 1
    idx_shift = off + cache._index_bits
    read_cycles = float(cfg.read_hit_cycles)
    write_cycles = float(cfg.write_hit_cycles)
    bank_mask = len(busy) - 1
    lru_orders = [s._order for s in repl] if cfg.replacement == "lru" else None

    def fast_read(addr: int, size: int, now: float) -> Optional[float]:
        line_no = addr >> off
        if (addr + size - 1) >> off != line_no:
            return None
        line = line_no << off
        for sl in store_lines:
            if sl.window_addr == line:
                # Mirror `_fill_wait`: expired fill entries are retired
                # on access, in-flight ones expose their remaining time.
                ready = fill_ready.get(line)
                if ready is None:
                    fill_wait = 0.0
                elif ready <= now:
                    del fill_ready[line]
                    fill_wait = 0.0
                else:
                    fill_wait = ready - now
                store._clock += 1
                sl.last_touch = store._clock
                if fill_wait > 0:
                    fstats.buffer_read_misses += 1
                else:
                    fstats.buffer_read_hits += 1
                return fill_wait + hit_cycles
        # Narrow fill.  Pre-check before mutating anything: the filled
        # line must be array-resident (so the one-line read is a pure
        # array hit), and so must a dirty victim's line (so its
        # write-back is an in-place array write with zero stall).
        index = line_no & set_mask
        try:
            way = tags[index].index(addr >> idx_shift)
        except ValueError:
            return None  # array miss: generic next-level fetch
        victim = None
        best_key = None
        for sl in store_lines:
            key = (1, sl.last_touch) if sl.window_addr is not None else (0, 0)
            if best_key is None or key < best_key:
                victim = sl
                best_key = key
        old_line = victim.window_addr
        writeback = old_line is not None and victim.dirty
        if writeback:
            e_index = (old_line >> off) & set_mask
            try:
                e_way = tags[e_index].index(old_line >> idx_shift)
            except ValueError:
                return None  # write-back through the write buffer: generic
        # Commit, replicating the generic sequence exactly: allocate
        # (one recency touch), drop the victim's stale fill entry, write
        # back a dirty victim in place, one array read, then the
        # post-fill lookup's second touch.
        fstats.buffer_read_misses += 1
        if old_line is not None:
            fill_ready.pop(old_line, None)
        victim.window_addr = line
        victim.dirty = False
        store._clock += 2
        victim.last_touch = store._clock
        if writeback:
            fstats.buffer_writebacks += 1
            e_bank = (old_line >> off) & bank_mask
            busy_until = busy[e_bank]
            if busy_until > now:
                cstats.bank_wait_cycles += int(busy_until - now)
                busy[e_bank] = busy_until + write_cycles
            else:
                busy[e_bank] = now + write_cycles
            dirty_bits[e_index][e_way] = True
            cstats.write_hits += 1
        bank = line_no & bank_mask
        busy_until = busy[bank]
        if busy_until > now:
            bank_wait = busy_until - now
            busy[bank] = busy_until + read_cycles
            cstats.bank_wait_cycles += int(bank_wait)
        else:
            bank_wait = 0.0
            busy[bank] = now + read_cycles
        if lru_orders is None:
            repl[index].touch(way)
        else:
            order = lru_orders[index]
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)
        cstats.read_hits += 1
        latency = bank_wait + read_cycles
        fstats.promotions += 1
        fstats.promotion_cycles += int(latency)
        ready = now + latency
        fill_ready[line] = ready
        wait = ready - now  # float-exact: matches `_fill_wait`, not `latency`
        return wait if wait > hit_cycles else hit_cycles

    def fast_write(addr: int, size: int, now: float) -> Optional[float]:
        line_no = addr >> off
        if (addr + size - 1) >> off != line_no:
            return None
        line = line_no << off
        for sl in store_lines:
            if sl.window_addr == line:
                ready = fill_ready.get(line)
                if ready is None:
                    fill_wait = 0.0
                elif ready <= now:
                    del fill_ready[line]
                    fill_wait = 0.0
                else:
                    fill_wait = ready - now
                store._clock += 1
                sl.last_touch = store._clock
                sl.dirty = True
                fstats.buffer_write_hits += 1
                return fill_wait + hit_cycles
        # L0 store miss: the generic path writes the whole aligned line
        # into the NVM array (Access(line, line_bytes)).
        return array_write(line, 1, now)

    return fast_read, fast_write


def _emshr_ops(frontend: EMSHRFrontend) -> Tuple[FastOp, FastOp]:
    """Kernels for the EMSHR front-end: entry hits and NVM array hits."""
    entries = frontend._entries
    entries_get = entries.get
    hit_cycles = frontend._hit_cycles
    off = frontend.backing._offset_bits
    fstats = frontend.stats
    array_read, array_write = _passthrough_ops(frontend.backing, fstats, False)

    def fast_read(addr: int, size: int, now: float) -> Optional[float]:
        line_no = addr >> off
        if (addr + size - 1) >> off != line_no:
            return None
        line = line_no << off
        entry = entries_get(line)
        if entry is not None:
            ready = entry.ready_at
            if ready > now:
                fstats.buffer_read_misses += 1
                return (ready - now) + hit_cycles
            fstats.buffer_read_hits += 1
            return hit_cycles
        # No lingering entry: an NVM read hit pays the full array read
        # ("EMSHR cannot help"); a DL1 miss allocates — generic.
        return array_read(addr, size, now)

    def fast_write(addr: int, size: int, now: float) -> Optional[float]:
        line_no = addr >> off
        if (addr + size - 1) >> off != line_no:
            return None
        line = line_no << off
        entry = entries_get(line)
        if entry is not None:
            ready = entry.ready_at
            entry.dirty = True
            fstats.buffer_write_hits += 1
            if ready > now:
                return (ready - now) + hit_cycles
            return hit_cycles
        # Entry miss: the generic path writes the whole aligned line
        # into the array (write-allocate handles the array miss there).
        return array_write(line, 1, now)

    return fast_read, fast_write


def make_fast_ops(frontend: DCacheFrontend) -> Optional[FastOps]:
    """Build the fast kernels for ``frontend``, if it is eligible.

    Parameters
    ----------
    frontend : DCacheFrontend
        The front-end to specialise.

    Returns
    -------
    tuple of (FastOp, FastOp, FastPrefetch or None) or None
        ``(fast_read, fast_write, fast_prefetch)`` closures, or ``None``
        when the front-end type is unknown (or subclassed) or any
        hit-path hook (probe, fault injector, AWARE writes, line-write
        tracking, hardware prefetcher) is active — callers then use the
        generic path for every event.  ``fast_prefetch`` is ``None``
        except on :class:`~repro.core.vwb_frontend.VWBFrontend`, where
        it serves software prefetches into the fill buffers.
    """
    if frontend._probing or not _array_eligible(frontend.backing):
        return None
    kind = type(frontend)
    if kind is VWBFrontend:
        return _vwb_ops(frontend)
    if kind is PlainFrontend:
        if frontend.hw_prefetcher is not None:
            return None
        ops = _passthrough_ops(frontend.backing, frontend.stats, False)
    elif kind is L0Frontend:
        ops = _l0_ops(frontend)
    elif kind is EMSHRFrontend:
        ops = _emshr_ops(frontend)
    elif kind is HybridFrontend:
        if not _array_eligible(frontend.sram):
            return None
        ops = _passthrough_ops(frontend.sram, frontend.stats, True)
    else:
        return None
    return (*ops, None)


# --------------------------------------------------------------------------
# Run elimination: consuming a guaranteed-hit run in one apply call.
#
# `make_run_applier` builds the per-lane consumer for the hit-run
# annotations of `repro.workloads.elim`.  The applier replays the run's
# packed opcode words with the identical timing arithmetic in the
# identical order as the per-event path (so it is bit-exact for *any*
# latencies and floats), but skips tag probes, per-event LRU
# maintenance and per-event stat traffic.  It finishes with bulk hit
# counters and a batch LRU-recency replay that rebuilds each touched
# set's recency order from the annotation's MRU tag list (valid because
# nothing reads the order mid-run — there are no victim selections
# inside an all-hit span).
# --------------------------------------------------------------------------


class RunApplier:
    """Per-lane consumer of guaranteed-hit runs.

    Attributes
    ----------
    shape : tuple of int
        ``(line_bytes, sets, ways, banks)`` of the cache array the
        lane's hits resolve in — the key for
        :func:`repro.workloads.elim.annotate_trace`.
    apply : callable
        ``apply(run, cycles, b_compute, b_branch, b_load, b_store,
        store_queue, hist) -> (cycles, b_compute, b_branch, b_load,
        b_store)`` — consumes one :class:`~repro.workloads.elim.HitRun`,
        mutating the store queue, histogram list, cache arrays and stat
        counters exactly as the per-event path would.
    """

    __slots__ = ("shape", "apply")

    def __init__(self, shape, apply_fn) -> None:
        self.shape = shape
        self.apply = apply_fn


def make_run_applier(frontend: DCacheFrontend, cpu_cfg) -> Optional[RunApplier]:
    """Build the hit-run consumer for ``frontend``, if it is eligible.

    Eligibility is all-or-nothing per lane and strictly narrower than
    :func:`make_fast_ops`: only front-ends whose *hit path* is a plain
    set-associative LRU array lookup qualify — ``PlainFrontend`` without
    a hardware prefetcher (SRAM baseline and drop-in NVM lanes) and
    ``HybridFrontend`` (whose in-run hits live entirely in the SRAM
    partition).  VWB/L0/EMSHR front-ends intercept hits with their own
    state machines, and probes, checkers, fault injectors, AWARE writes
    and line-write tracking all hook the hit path, so those lanes run
    per-event as before.

    Parameters
    ----------
    frontend : DCacheFrontend
        The lane's front-end.
    cpu_cfg : CPUConfig
        Core timing parameters (store buffer, branch and issue costs).

    Returns
    -------
    RunApplier or None
        The applier, or ``None`` when the lane must stay per-event.
    """
    if frontend._probing:
        return None
    kind = type(frontend)
    if kind is PlainFrontend:
        if frontend.hw_prefetcher is not None:
            return None
        if not _array_eligible(frontend.backing):
            return None
        cache = frontend.backing
        count_hits = False
    elif kind is HybridFrontend:
        if not _array_eligible(frontend.backing) or not _array_eligible(frontend.sram):
            return None
        cache = frontend.sram
        count_hits = True
    else:
        return None
    cfg = cache.config
    if cfg.replacement != "lru":
        return None
    banks = len(cache._banks._busy_until)
    for n in (cfg.line_bytes, cfg.sets, banks):
        if n <= 0 or n & (n - 1):
            return None

    fstats = frontend.stats
    cstats = cache.stats
    tags = cache._tags
    busy = cache._banks._busy_until
    lru_orders = [s._order for s in cache._repl]
    rcf = float(cfg.read_hit_cycles)
    wcf = float(cfg.write_hit_cycles)
    overlap = cpu_cfg.load_use_overlap
    sb_entries = cpu_cfg.store_buffer_entries
    store_issue = cpu_cfg.store_issue_cycles
    tc = cpu_cfg.branch_cycles
    ec = cpu_cfg.branch_cycles + cpu_cfg.branch_mispredict_cycles
    cap = 256  # LOAD_HISTOGRAM_CAP (model.py; no import to avoid a cycle)

    pk_compute, pk_store, pk_branch = PK_COMPUTE, PK_STORE, PK_BRANCH

    def apply(run, c, bc, bb, bl, bs, sq, hist):
        """Consume one hit run; see :class:`RunApplier`."""
        n_loads, n_stores = run.counts
        # -- exact per-event timing over the packed words --
        bwc = 0
        for word in run.packed:
            k = word & 7
            if k == 0:  # load
                bu = busy[word >> 3]
                if bu > c:
                    w = bu - c
                    busy[word >> 3] = bu + rcf
                    bwc += int(w)
                    lat = w + rcf
                else:
                    busy[word >> 3] = c + rcf
                    lat = rcf
                ex = lat - overlap
                if ex < 1.0:
                    ex = 1.0
                c += ex
                bl += ex
                b = int(ex)
                hist[b if b < cap else cap] += 1
            elif k == pk_compute:
                o = word >> 3
                c += o
                bc += o
            elif k == pk_store:
                start = c
                while sq and sq[0] <= c:
                    sq.popleft()
                if len(sq) >= sb_entries:
                    c = sq.popleft()
                bank = word >> 3
                bu = busy[bank]
                if bu > c:
                    w = bu - c
                    busy[bank] = bu + wcf
                    bwc += int(w)
                    lat = w + wcf
                else:
                    busy[bank] = c + wcf
                    lat = wcf
                tail = sq[-1] if sq else c
                sq.append((tail if tail > c else c) + lat)
                c += store_issue
                bs += c - start
            else:  # branch
                cost = tc if word >> 3 else ec
                c += cost
                bb += cost
        if bwc:
            cstats.bank_wait_cycles += bwc

        # -- bulk counters and batch LRU replay --
        cstats.read_hits += n_loads
        cstats.write_hits += n_stores
        if count_hits:
            fstats.buffer_read_hits += n_loads
            fstats.buffer_write_hits += n_stores
        else:
            fstats.buffer_read_misses += n_loads
            fstats.buffer_write_misses += n_stores
        for s, tags_mru in run.lru_sets:
            tl = tags[s]
            order = lru_orders[s]
            front = [tl.index(t) for t in tags_mru]
            if len(front) != len(order):
                for w in order:
                    if w not in front:
                        front.append(w)
            order[:] = front
        book_run(run.end - run.start)
        return (c, bc, bb, bl, bs)

    banks_shape = (cfg.line_bytes, cfg.sets, cfg.associativity, banks)
    return RunApplier(banks_shape, apply)
