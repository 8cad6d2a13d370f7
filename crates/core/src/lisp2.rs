//! The parallel LISP2 mark-compact collector with SwapVA integration.
//!
//! Four STW phases (paper §II), all operating on real simulated memory:
//!
//! 1. **Mark** — trace from roots, set header bits in a [`MarkBitmap`].
//! 2. **Forward** — `CALCNEWADD` (Algorithm 3): slide a compaction cursor
//!    over live objects in address order, page-aligning SwapVA candidates,
//!    and store each object's destination in its forwarding word.
//! 3. **Adjust** — rewrite every reference field (and root slot) to the
//!    target's forwarding address.
//! 4. **Compact** — `MOVEOBJECT` + `COMPACTOPT` (Algorithms 3/4): move each
//!    live object to its destination, by PTE swap when it is at least the
//!    threshold and both endpoints are page-aligned, else by memmove; under
//!    Algorithm 4 the shootdown is broadcast once and per-move flushes stay
//!    local.
//!
//! Execution is host-sequential in ascending address order (which is what
//! makes sliding safe) while cycle costs are attributed to simulated
//! workers: each phase is a bucket of typed packets run through the
//! [`PacketScheduler`], whose bucket policy ([`crate::SchedulerKind`])
//! decides whether buckets meet at barriers or overlap — see
//! [`crate::packets`] for the model.

use crate::config::GcConfig;
use crate::degrade::DegradeController;
use crate::error::GcError;
use crate::journal::{transact, Transactional};
use crate::packets::{chunk_ranges, PacketKind, PacketScheduler, PacketTicket, MARK_CHUNK};
use crate::resilience::execute_swaps;
use crate::stats::{GcCycleStats, GcLog};
use crate::watchdog::GcWatchdog;
use svagc_heap::{Heap, HeapError, HeapVerifier, MarkBitmap, ObjHeader, ObjRef, RootSet, VerifyReport};
use svagc_kernel::{CoreId, FlushMode, Kernel, SwapBatch, SwapRequest, SwapVaOptions};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{VirtAddr, PAGE_SIZE};

/// A LISP2 mark-compact collector (SVAGC when `cfg.use_swapva`).
#[derive(Debug)]
pub struct Lisp2Collector {
    /// Active configuration.
    pub cfg: GcConfig,
    /// Per-cycle statistics log.
    pub log: GcLog,
    /// Degraded-mode circuit breaker carried across cycles: decides how
    /// conservatively the *next* cycle runs after aborts, and recovers
    /// toward normal after clean cycles.
    pub degrade: DegradeController,
    /// Cumulative GC virtual time: the trace-timeline position where the
    /// next cycle's events begin. Counts only GC work (phase makespans) —
    /// mutator execution between cycles is excluded, so traces from runs
    /// with different allocation rates stay comparable.
    timeline: Cycles,
}

/// A pending move computed in the forward phase.
#[derive(Debug, Clone, Copy)]
struct PlannedMove {
    src: ObjRef,
    dst: ObjRef,
    header: ObjHeader,
}

/// A finished concurrent (SATB) mark handed to the STW cycle.
///
/// [`Lisp2Collector::collect_with_premark`] skips its own mark phase and
/// compacts against this bitmap instead: the trace already ran interleaved
/// with the mutator, so the pause charges only the short STW portion
/// (initial root scan plus the final SATB-buffer drain). The off-pause
/// trace cycles are charged as mutator interference, exactly like IPI
/// shootdown time.
#[derive(Debug, Clone)]
pub struct Premark {
    /// Marks for every object the cycle must keep. May be a strict
    /// superset of current reachability (SATB floating garbage), never a
    /// subset.
    pub bitmap: MarkBitmap,
    /// STW marking charge: initial-mark pause + final-mark SATB drain.
    pub stw_mark: Cycles,
    /// Trace cycles spent off-pause, interleaved with the mutator.
    pub concurrent_mark: Cycles,
    /// SATB deletion-barrier entries drained at final mark.
    pub satb_logged: u64,
}

impl Lisp2Collector {
    /// A collector with the given configuration.
    ///
    /// ```
    /// use svagc_core::{GcConfig, Lisp2Collector};
    /// use svagc_heap::{Heap, HeapConfig, ObjShape, RootSet};
    /// use svagc_kernel::{CoreId, Kernel};
    /// use svagc_metrics::MachineConfig;
    /// use svagc_vmem::Asid;
    ///
    /// let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 16 << 20);
    /// let mut heap = Heap::new(&mut k, Asid(1), HeapConfig::new(8 << 20)).unwrap();
    /// let mut roots = RootSet::new();
    ///
    /// // One surviving large object among garbage.
    /// for i in 0..10u64 {
    ///     let (obj, _) = heap.alloc(&mut k, CoreId(0), ObjShape::data_bytes(64 << 10)).unwrap();
    ///     if i == 5 { roots.push(obj); }
    /// }
    ///
    /// let mut gc = Lisp2Collector::new(GcConfig::svagc(4));
    /// let stats = gc.collect(&mut k, &mut heap, &mut roots).unwrap();
    /// assert_eq!(stats.live_objects, 1);
    /// assert_eq!(stats.dead_objects, 9);
    /// assert_eq!(stats.swapped_objects, 1); // moved by PTE swap
    /// ```
    pub fn new(cfg: GcConfig) -> Lisp2Collector {
        Lisp2Collector {
            cfg,
            log: GcLog::new(),
            degrade: DegradeController::new(cfg.degrade),
            timeline: Cycles::ZERO,
        }
    }

    /// Run one full STW collection as a **transaction**
    /// ([`crate::journal`]): a failed attempt is rolled back bit-for-bit
    /// and, on an operational error, retried down the degrade ladder,
    /// whose state persists across calls. Returns this cycle's statistics
    /// (also appended to [`Lisp2Collector::log`]).
    pub fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        self.collect_with_premark(kernel, heap, roots, None)
    }

    /// [`Lisp2Collector::collect`], optionally seeded with a finished
    /// concurrent mark. With `premark == None` this is byte-for-byte the
    /// plain STW collection; with `Some`, the mark phase is skipped and the
    /// cycle compacts against the premark bitmap (see [`Premark`]). The
    /// premark survives aborts: every retry attempt re-clones the bitmap,
    /// and the rollback restores the pre-GC addresses it describes.
    pub fn collect_with_premark(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
        premark: Option<&Premark>,
    ) -> Result<GcCycleStats, GcError> {
        // The concurrent trace happened before this pause on the virtual
        // timeline; emit its span once (attempt retries restart after it).
        if let Some(pm) = premark {
            if pm.concurrent_mark.get() > 0 {
                kernel.trace.span_abs(
                    TraceKind::ConcurrentMarkPhase,
                    self.timeline,
                    pm.concurrent_mark,
                    0,
                    &[("satb_entries", pm.satb_logged)],
                );
                self.timeline += pm.concurrent_mark;
                kernel.trace.set_base(self.timeline);
            }
        }
        let user_cfg = self.cfg;
        let verify = user_cfg.verify_phases;
        let (mut stats, out) = transact(self, kernel, heap, roots, verify, |gc, kernel, heap, roots, stats| {
            // The phase methods read `gc.cfg`; swap in the (possibly
            // degraded) effective config for the duration of the attempt.
            gc.cfg = gc.degrade.apply(&user_cfg);
            let mut watchdog = GcWatchdog::new(gc.cfg.deadline_cycles);
            let attempt = gc.try_collect(kernel, heap, roots, &mut watchdog, stats, premark);
            gc.cfg = user_cfg;
            attempt
        })?;
        stats.aborts = out.aborts;
        stats.watchdog_expiries = out.watchdog_expiries;
        stats.rollback_pages = out.rollback_pages;
        stats.abort_overhead = out.abort_overhead;
        stats.mode = out.mode;
        self.log.push(stats);
        Ok(stats)
    }

    /// One collection attempt (no transaction bracketing — `collect` owns
    /// that). Partial phase makespans accumulate into `stats` even on
    /// error, so an abort can account the time the attempt burned.
    ///
    /// The four phases are buckets of one [`PacketScheduler`] whose bucket
    /// policy is `cfg.scheduler` (see [`crate::packets`]). Functional
    /// effects execute host-sequentially in heap order under either
    /// policy — the same heap mutations — and only time is scheduled:
    ///
    /// * **mark-roots** → **mark-chunk**: a chunk is ready when the
    ///   packets that discovered its objects complete.
    /// * **forward-range**: ranges are mutually independent once marking
    ///   is done (the destination cursor is a prefix sum of live sizes a
    ///   real implementation computes in a cheap size-scan pass; see
    ///   DESIGN.md §13), so every range is ready at the mark milestone.
    /// * **adjust-range / adjust-roots**: ready at the forward milestone.
    /// * **compact-batch**: ready when (a) forwarding is done and (b)
    ///   every adjust packet that touched the batch's region — fields it
    ///   copies, forwarding words it swaps away or overwrites — has
    ///   completed. Under the packets policy, workers that finish
    ///   adjusting early therefore flow straight into compaction while
    ///   the slowest adjust packet is still running; the barrier policy
    ///   opens each bucket only after the previous one drains, so it
    ///   needs no dependency tracking.
    fn try_collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
        watchdog: &mut GcWatchdog,
        stats: &mut GcCycleStats,
        premark: Option<&Premark>,
    ) -> Result<(), GcError> {
        let cycle_start = self.timeline;
        let cores = kernel.cores();
        let threads = self.cfg.gc_threads.min(cores).max(1);
        let compact_workers = self
            .cfg
            .compact_threads
            .unwrap_or(threads)
            .min(cores)
            .max(1);
        let mut sched = PacketScheduler::new(
            self.cfg.scheduler,
            threads.max(compact_workers),
            cores,
            self.cfg.core_base,
            self.cfg.work_stealing,
            cycle_start,
        );
        let objects: Vec<ObjRef> = heap.objects_sorted().to_vec();
        let verifier = HeapVerifier::new();
        let faults_before = kernel.perf.swap_faults_injected;

        // ---- Bucket 1: mark ------------------------------------------
        sched.open(Cycles::ZERO, threads);
        let bitmap = match premark {
            Some(pm) => {
                // The trace already ran off-pause; the bucket collapses to
                // the STW charge (initial mark + SATB drain). The SATB
                // bitmap may strictly contain the snapshot's reachable set
                // (floating garbage), so the exact-reachability
                // verify_marks check does not apply — forwarding and
                // post-compact verification still run.
                stats.phases.mark = pm.stw_mark;
                stats.concurrent_mark = pm.concurrent_mark;
                stats.satb_logged = pm.satb_logged;
                stats.interference += pm.concurrent_mark;
                pm.bitmap.clone()
            }
            None => {
                let mut bitmap = MarkBitmap::new(heap.base(), heap.extent_words());
                // Root scanning is uncosted; the packet is the ordering
                // point stamping the roots' discovery.
                let mut stack = Vec::new();
                let tk = sched.begin_vm(PacketKind::MarkRoots, Cycles::ZERO);
                for r in roots.iter_live() {
                    // Roots outside this heap (e.g. nursery objects during
                    // an old-generation-only collection) are not ours.
                    if heap.contains(r.0) && bitmap.mark(r.header_va()) {
                        stack.push((r, tk.start));
                    }
                }
                sched.finish(&mut kernel.trace, tk, Cycles::ZERO, stack.len() as u64);
                trace_closure(
                    &mut sched,
                    kernel,
                    heap,
                    &mut bitmap,
                    &mut stack,
                    PacketKind::MarkChunk,
                    |va| heap.contains(va),
                )?;
                stats.phases.mark = sched.close();
                bitmap
            }
        };
        watchdog.check("mark", stats.phases.mark)?;
        if self.cfg.verify_phases && premark.is_none() {
            Self::require_clean(verifier.verify_marks(kernel, heap, &bitmap, roots), stats)?;
        }
        let t_mark = stats.phases.mark;

        // ---- Bucket 2: forwarding address calculation ----------------
        sched.open(t_mark, threads);
        let mut comp_pnt = heap.base();
        let mut moves: Vec<PlannedMove> = Vec::new();
        for (s, e) in sched.ranges(objects.len(), |_| true) {
            let tk = sched.begin(PacketKind::ForwardRange, t_mark);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            for &obj in &objects[s..e] {
                // Heap parsing touches every header, live or dead.
                let (hdr, ht) = heap.read_header(kernel, core, obj)?;
                t += ht;
                if bitmap.is_marked(obj.header_va()) {
                    // IFSWAPALIGN before and after (Algorithm 3 lines 22/25).
                    if hdr.is_large() {
                        comp_pnt = comp_pnt.align_up();
                    }
                    let dst = ObjRef(comp_pnt);
                    comp_pnt = comp_pnt + hdr.size_bytes();
                    if hdr.is_large() {
                        comp_pnt = comp_pnt.align_up();
                    }
                    t += kernel.write_word(heap.space(), core, obj.forwarding_va(), dst.0.get())?;
                    stats.live_bytes += hdr.size_bytes();
                    moves.push(PlannedMove {
                        src: obj,
                        dst,
                        header: hdr,
                    });
                }
            }
            sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
        }
        let new_top = comp_pnt;
        let t_fwd = sched.close();
        stats.phases.forward = t_fwd - t_mark;
        watchdog.check("forward", stats.phases.forward)?;
        if self.cfg.verify_phases {
            Self::require_clean(verifier.verify_forwarding(kernel, heap, &bitmap), stats)?;
        }

        // ---- Bucket 3: adjust pointers -------------------------------
        // Overlapping buckets track which compact batch every adjust
        // access constrains; `conflicts` collects one packet's batches.
        let mut deps = sched
            .overlaps()
            .then(|| BatchDeps::new(&moves, compact_workers));
        let mut conflicts: Vec<usize> = Vec::new();
        sched.open(t_fwd, threads);
        for (s, e) in sched.ranges(moves.len(), |i| moves[i].header.num_refs > 0) {
            let tk = sched.begin(PacketKind::AdjustRange, t_fwd);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            for (idx, m) in moves.iter().enumerate().take(e).skip(s) {
                if m.header.num_refs == 0 {
                    continue;
                }
                // Field writes at the object's source: its batch must not
                // copy the data before they land.
                if let Some(d) = &deps {
                    conflicts.push(d.batch_of_move[idx]);
                }
                for i in 0..m.header.num_refs as u64 {
                    let (tgt, tc) = heap.read_ref(kernel, core, m.src, i)?;
                    t += tc;
                    // Out-of-heap targets (nursery objects) don't move here.
                    if tgt.is_null() || !heap.contains(tgt.0) {
                        continue;
                    }
                    let (fwd, fc) = kernel.read_word(heap.space(), core, tgt.forwarding_va())?;
                    t += fc;
                    t += heap.write_ref(kernel, core, m.src, i, ObjRef(VirtAddr(fwd)))?;
                    if let Some(d) = &deps {
                        d.read_forwarding(&moves, tgt, &mut conflicts);
                    }
                }
            }
            let done = sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
            if let Some(d) = &mut deps {
                d.resolve(&mut conflicts, done);
            }
        }
        {
            // Root slots: the VM thread's packet.
            let tk = sched.begin_vm(PacketKind::AdjustRoots, t_fwd);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            let mut slots = 0u64;
            for slot in roots.slots_mut() {
                if slot.is_null() || !heap.contains(slot.0) {
                    continue;
                }
                let (fwd, fc) = kernel.read_word(heap.space(), core, slot.forwarding_va())?;
                t += fc;
                if let Some(d) = &deps {
                    d.read_forwarding(&moves, *slot, &mut conflicts);
                }
                *slot = ObjRef(VirtAddr(fwd));
                slots += 1;
            }
            let done = sched.finish(&mut kernel.trace, tk, t, slots);
            if let Some(d) = &mut deps {
                d.resolve(&mut conflicts, done);
            }
        }
        let t_adj = sched.close();
        stats.phases.adjust = t_adj - t_fwd;
        watchdog.check("adjust", stats.phases.adjust)?;
        if self.cfg.verify_phases {
            // Adjust rewrites fields but must leave the move plan intact.
            Self::require_clean(verifier.verify_forwarding(kernel, heap, &bitmap), stats)?;
        }

        // ---- Bucket 4: compaction (`COMPACTOPT` + `MOVEOBJECT`) -------
        let threshold_bytes = heap.threshold_pages() * PAGE_SIZE;
        // Algorithm 4's local-only flush is sound for exactly one pinned
        // compactor running alone: every translation it caches lives on
        // the core it flushes. With parallel movers — or overlapping
        // buckets, where other workers may still be adjusting — that
        // precondition fails: worker X reads a forwarding word, worker Y's
        // batch remaps the page with a local flush on Y, and X's next read
        // translates through the dead entry (the stale-TLB oracle catches
        // this on real workloads). Those schedules use access-tracked
        // shootdowns: each swap IPIs precisely the cores still holding the
        // ASID — a subset of the GC workers once the prologue broadcast has
        // run, so other JVMs' cores are still never interrupted.
        let flush_mode = if !self.cfg.pinned_compaction {
            FlushMode::GlobalBroadcast
        } else if compact_workers > 1 || sched.overlaps() {
            FlushMode::Tracked
        } else {
            FlushMode::LocalOnly
        };
        let swap_opts = SwapVaOptions {
            pmd_cache: self.cfg.pmd_cache,
            overlap_opt: self.cfg.overlap_opt,
            flush: flush_mode,
        };
        // Will any move actually go through SwapVA this cycle? The pinning
        // protocol's broadcasts only pay for themselves when PTEs change.
        let any_swaps = self.cfg.use_swapva
            && moves.iter().any(|m| {
                m.src != m.dst
                    && m.header.size_bytes() >= threshold_bytes
                    && m.src.0.is_page_aligned()
                    && m.dst.0.is_page_aligned()
            });

        if self.cfg.pinned_compaction && any_swaps {
            // Algorithm 4 prologue: pin workers, broadcast the shootdown
            // once so every core sees fresh mappings from here on. Its
            // cost is shootdown overhead, not worker time; on the trace it
            // sits at the adjust milestone.
            kernel.trace.set_base(cycle_start + t_adj);
            let asid = heap.space().asid();
            let pin_cost = kernel.pin(sched.core_of(0));
            let (bcast, intf) = kernel.flush_asid_all_cores(sched.core_of(0), asid);
            stats.phases.shootdown += pin_cost + bcast;
            stats.interference += intf.0;
            // The broadcast is infallible by signature; a seeded mid-IPI
            // crash latches instead, and the phase must stop here.
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }

        sched.open(t_adj, compact_workers);
        // Aggregation buffer: a run of consecutive swap-eligible moves,
        // flushed as one syscall (Fig. 5b). Any intervening memmove flushes
        // it first to preserve ascending-order safety. Under the barrier
        // policy one buffer spans the bucket; overlapping packets each own
        // theirs.
        let mut batch = SwapBatch::new(
            self.cfg.aggregation.unwrap_or(1),
            8 * heap.threshold_pages().max(1),
        );
        let batch_ready = deps.map(|d| d.ready).unwrap_or_default();
        for (bi, (s, e)) in sched.ranges(moves.len(), |_| true).enumerate() {
            // Intra-bucket sliding safety is the ascending-order claiming
            // of the paper's parallel LISP2; the packet edges add the
            // cross-bucket constraint that a batch may not run until every
            // adjust packet that read or wrote its region is done.
            let ready = batch_ready.get(bi).map_or(t_adj, |&r| r.max(t_fwd));
            let mut tk = sched.begin(PacketKind::CompactBatch, ready);
            let core = sched.core(&tk);
            let pkt_base = cycle_start + tk.start;
            let mut t = Cycles::ZERO;
            for m in &moves[s..e] {
                // Kernel events for this move start at the worker's
                // current virtual-clock position.
                kernel.trace.set_base(pkt_base + t);
                // Read the forwarding word at the source (Algorithm 4 line 9).
                let (_, fc) = kernel.read_word(heap.space(), core, m.src.forwarding_va())?;
                t += fc;
                kernel.trace.advance(fc);
                let size = m.header.size_bytes();
                if m.src == m.dst {
                    continue;
                }
                let pages = size.div_ceil(PAGE_SIZE);
                let swappable = self.cfg.use_swapva
                    && pages >= heap.threshold_pages()
                    && m.src.0.is_page_aligned()
                    && m.dst.0.is_page_aligned()
                    && size >= threshold_bytes;
                let overlap_unsupported = !self.cfg.overlap_opt
                    && m.src.0.get().abs_diff(m.dst.0.get()) < pages * PAGE_SIZE;
                if swappable && !overlap_unsupported {
                    let req = SwapRequest {
                        a: m.src.0,
                        b: m.dst.0,
                        pages,
                    };
                    stats.swapped_objects += 1;
                    stats.swapped_bytes += size;
                    if batch.push(req, size) {
                        t += self.flush_batch(
                            kernel, heap, &mut batch, swap_opts, &mut tk, core, stats,
                        )?;
                        // Mid-bucket deadline check: the watchdog can abort
                        // a runaway compaction between batches, not only
                        // at bucket milestones.
                        watchdog.check("compact", sched.elapsed(&tk, t))?;
                    }
                } else {
                    // memmove path: drain pending swaps first (ordering).
                    t += self
                        .flush_batch(kernel, heap, &mut batch, swap_opts, &mut tk, core, stats)?;
                    watchdog.check("compact", sched.elapsed(&tk, t))?;
                    t += kernel.memmove(heap.space(), core, m.src.0, m.dst.0, size)?;
                    stats.memmove_bytes += size;
                }
                stats.moved_objects += 1;
                kernel.perf.objects_moved += 1;
            }
            if sched.overlaps() {
                // The packet drains its own batch and owns its
                // destinations' forwarding-word clears: no later batch
                // reads below its own destination cursor, so the clears
                // need no cross-batch barrier.
                t += self.flush_batch(kernel, heap, &mut batch, swap_opts, &mut tk, core, stats)?;
                for m in &moves[s..e] {
                    t += kernel.write_word(heap.space(), core, m.dst.forwarding_va(), 0)?;
                }
            }
            sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
        }
        if !sched.overlaps() {
            // Barrier tail: the least-loaded worker drains the bucket-wide
            // batch.
            if !batch.is_empty() {
                let mut tk = sched.begin_any(PacketKind::CompactBatch);
                let core = sched.core(&tk);
                kernel.trace.set_base(cycle_start + tk.start);
                let c =
                    self.flush_batch(kernel, heap, &mut batch, swap_opts, &mut tk, core, stats)?;
                sched.finish(&mut kernel.trace, tk, c, 0);
            }
            // Workers resynchronize at the barrier: each flushes its own
            // TLB so the forwarding-word clears below cannot read mappings
            // staled by *other* workers' swaps. Tracked swaps already IPI
            // every holder, so only the local-only protocol needs this.
            if any_swaps && flush_mode == FlushMode::LocalOnly {
                let asid = heap.space().asid();
                let worst = sched
                    .bucket_cores()
                    .map(|c| kernel.flush_tlb_local(c, asid))
                    .fold(Cycles::ZERO, Cycles::max);
                sched.charge_all(worst);
            }
            // Clear forwarding words at the destinations.
            for m in &moves {
                let tk = sched.begin_any(PacketKind::CompactBatch);
                let t =
                    kernel.write_word(heap.space(), sched.core(&tk), m.dst.forwarding_va(), 0)?;
                sched.finish(&mut kernel.trace, tk, t, 1);
            }
        }
        let t_end = sched.close();

        if self.cfg.pinned_compaction && any_swaps {
            // Algorithm 4 epilogue: unpin; mutators get fresh TLBs via one
            // final broadcast (the post-GC cost §V-C mentions).
            kernel.trace.set_base(cycle_start + t_end);
            let asid = heap.space().asid();
            let (bcast, intf) = kernel.flush_asid_all_cores(sched.core_of(0), asid);
            let unpin = kernel.unpin();
            stats.phases.shootdown += bcast + unpin;
            stats.interference += intf.0;
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }
        kernel.perf.objects_swapped += stats.swapped_objects;
        kernel.perf.gc_cycles += 1;
        stats.phases.compact = t_end - t_adj;
        watchdog.check("compact", stats.phases.compact)?;

        // Publish the new heap layout.
        let survivors: Vec<ObjRef> = moves.iter().map(|m| m.dst).collect();
        stats.live_objects = survivors.len() as u64;
        stats.dead_objects = objects.len() as u64 - survivors.len() as u64;
        heap.complete_gc(survivors, new_top);
        if self.cfg.verify_phases {
            Self::require_clean(verifier.verify_post_compact(kernel, heap, roots), stats)?;
        }
        stats.faults_injected = kernel.perf.swap_faults_injected - faults_before;
        stats.sched_packets = sched.stats.packets;
        stats.sched_steals = sched.stats.steals;
        stats.sched_steal_cycles = sched.stats.steal_cycles;

        self.emit_phase_spans(kernel, cycle_start, stats, objects.len() as u64);
        Ok(())
    }

    /// Emit the cycle's phase spans on the cumulative GC timeline (tid 0 =
    /// the VM/GC coordinator lane; per-core kernel events carry their own
    /// tids) and advance the timeline past this cycle. The four "phases"
    /// are the bucket milestone deltas, so the spans add up under either
    /// bucket policy.
    fn emit_phase_spans(
        &mut self,
        kernel: &mut Kernel,
        cycle_start: Cycles,
        stats: &GcCycleStats,
        total_objects: u64,
    ) {
        let mut at = cycle_start;
        kernel.trace.span_abs(
            TraceKind::MarkPhase,
            at,
            stats.phases.mark,
            0,
            &[("objects", total_objects)],
        );
        at += stats.phases.mark;
        kernel.trace.span_abs(
            TraceKind::ForwardPhase,
            at,
            stats.phases.forward,
            0,
            &[("live", stats.live_objects), ("live_bytes", stats.live_bytes)],
        );
        at += stats.phases.forward;
        kernel.trace.span_abs(TraceKind::AdjustPhase, at, stats.phases.adjust, 0, &[]);
        at += stats.phases.adjust;
        kernel.trace.span_abs(
            TraceKind::CompactPhase,
            at,
            stats.phases.compact,
            0,
            &[
                ("moved", stats.moved_objects),
                ("swapped", stats.swapped_objects),
                ("memmove_bytes", stats.memmove_bytes),
            ],
        );
        kernel.trace.span_abs(
            TraceKind::GcCycle,
            cycle_start,
            stats.phases.total(),
            0,
            &[("live", stats.live_objects), ("dead", stats.dead_objects)],
        );
        self.timeline = cycle_start + stats.phases.total();
        kernel.trace.set_base(self.timeline);
    }

    /// Turn a failed verification pass into a [`GcError::Corruption`] abort.
    fn require_clean(report: VerifyReport, stats: &mut GcCycleStats) -> Result<(), GcError> {
        if report.is_clean() {
            Ok(())
        } else {
            stats.verify_violations += report.violations.len() as u64;
            Err(GcError::corruption(&report))
        }
    }

    /// Execute and clear the aggregation buffer through the resilient
    /// executor: transient faults retry with backoff, permanent faults
    /// demote single requests to memmove, mid-batch faults split the
    /// batch. With aggregation disabled the buffer never exceeds one
    /// request, so this degenerates to separated calls. The flush's IPI
    /// interference stalls the other workers when `tk` finishes; returns
    /// the cycles charged to `tk`'s worker.
    #[allow(clippy::too_many_arguments)]
    fn flush_batch(
        &self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        batch: &mut SwapBatch,
        opts: SwapVaOptions,
        tk: &mut PacketTicket,
        core: CoreId,
        stats: &mut GcCycleStats,
    ) -> Result<Cycles, GcError> {
        if batch.is_empty() {
            return Ok(Cycles::ZERO);
        }
        let entries = batch.take();
        let reqs: Vec<SwapRequest> = entries.iter().map(|(r, _)| *r).collect();
        kernel.trace.instant(
            TraceKind::BatchFlush,
            Cycles::ZERO,
            core.0 as u32,
            &[
                ("requests", reqs.len() as u64),
                ("pages", reqs.iter().map(|r| r.pages).sum()),
            ],
        );
        let out = execute_swaps(
            kernel,
            heap.space_mut(),
            &reqs,
            opts,
            core,
            self.cfg.aggregation.is_some(),
            &self.cfg.retry,
        )?;
        stats.swap_retries += out.retries;
        stats.batch_splits += out.batch_splits;
        for &i in &out.fallback {
            // This object was queued as a swap but moved by copy: shift it
            // from the swap columns to the fallback/memmove ones. The
            // executor guarantees distinct ascending indices, so each entry
            // is rebooked at most once; saturate anyway so a miscount can
            // never escalate into a debug-build panic mid-collection.
            let size = entries[i].1;
            stats.swapped_objects = stats.swapped_objects.saturating_sub(1);
            stats.swapped_bytes = stats.swapped_bytes.saturating_sub(size);
            stats.memmove_bytes += size;
            stats.swap_fallback_objects += 1;
            stats.swap_fallback_bytes += size;
        }
        stats.interference += out.interference;
        tk.stall(out.interference);
        Ok(out.cycles)
    }
}

impl Transactional for Lisp2Collector {
    type Heap = Heap;
    type Stats = GcCycleStats;

    fn txn_heap(heap: &mut Heap) -> &mut Heap {
        heap
    }

    fn degrade(&mut self) -> &mut DegradeController {
        &mut self.degrade
    }

    fn attempt_cycles(stats: &GcCycleStats) -> Cycles {
        stats.phases.total()
    }

    fn timeline(&self, _kernel: &Kernel) -> Cycles {
        self.timeline
    }

    fn set_timeline(&mut self, kernel: &mut Kernel, at: Cycles) {
        self.timeline = at;
        kernel.trace.set_base(at);
    }
}

/// Adjust → compact dependency edges (packets policy): which compact batch
/// each adjust access constrains, and when the last adjust packet
/// constraining each batch completes.
struct BatchDeps {
    /// Move index → owning batch.
    batch_of_move: Vec<usize>,
    /// Destination span of each batch: `[first dst, last dst + size)`.
    dst_spans: Vec<(u64, u64)>,
    /// Per batch: completion of the adjust packets it waits for.
    ready: Vec<Cycles>,
}

impl BatchDeps {
    /// Edges for `moves` cut into the compact bucket's batches over
    /// `workers` workers.
    fn new(moves: &[PlannedMove], workers: usize) -> BatchDeps {
        let mut batch_of_move = vec![0usize; moves.len()];
        let mut dst_spans = Vec::new();
        for (bi, (s, e)) in chunk_ranges(moves.len(), workers).enumerate() {
            batch_of_move[s..e].fill(bi);
            let last = &moves[e - 1];
            dst_spans.push((
                moves[s].dst.0.get(),
                last.dst.0.get() + last.header.size_bytes(),
            ));
        }
        BatchDeps {
            batch_of_move,
            ready: vec![Cycles::ZERO; dst_spans.len()],
            dst_spans,
        }
    }

    /// Reading `tgt`'s forwarding word — at the target's *old* address —
    /// constrains the target's own batch (which swaps the word away) and
    /// the batch whose destinations cover it (which overwrites it).
    fn read_forwarding(&self, moves: &[PlannedMove], tgt: ObjRef, out: &mut Vec<usize>) {
        // Moves are in ascending source order.
        if let Ok(ti) = moves.binary_search_by(|m| m.src.0.cmp(&tgt.0)) {
            out.push(self.batch_of_move[ti]);
        }
        let va = tgt.forwarding_va().get();
        let i = self.dst_spans.partition_point(|&(lo, _)| lo <= va);
        if i > 0 && va < self.dst_spans[i - 1].1 {
            out.push(i - 1);
        }
    }

    /// An adjust packet that touched the batches in `conflicts` finished
    /// at `done`; drains `conflicts`.
    fn resolve(&mut self, conflicts: &mut Vec<usize>, done: Cycles) {
        for b in conflicts.drain(..) {
            self.ready[b] = self.ready[b].max(done);
        }
    }
}

/// Drain a mark stack in packets of [`PacketScheduler::mark_chunk`]
/// entries, LIFO: read each object's reference fields and push every
/// newly marked target that `traced` accepts, stamped with the completion
/// of the packet that found it (the ready time of the packet that will
/// trace it). Shared by the LISP2 mark and the scavenger's young trace;
/// allocates nothing per packet.
pub(crate) fn trace_closure(
    sched: &mut PacketScheduler,
    kernel: &mut Kernel,
    heap: &Heap,
    bitmap: &mut MarkBitmap,
    stack: &mut Vec<(ObjRef, Cycles)>,
    kind: PacketKind,
    traced: impl Fn(VirtAddr) -> bool,
) -> Result<(), HeapError> {
    let per_packet = sched.mark_chunk();
    let mut chunk = [(ObjRef::NULL, Cycles::ZERO); MARK_CHUNK];
    while !stack.is_empty() {
        let take = stack.len().min(per_packet);
        let from = stack.len() - take;
        chunk[..take].copy_from_slice(&stack[from..]);
        stack.truncate(from);
        let ready = chunk[..take]
            .iter()
            .map(|&(_, d)| d)
            .fold(Cycles::ZERO, Cycles::max);
        let tk = sched.begin(kind, ready);
        let core = sched.core(&tk);
        let mut t = Cycles::ZERO;
        for &(obj, _) in &chunk[..take] {
            let (hdr, ht) = heap.read_header(kernel, core, obj)?;
            t += ht;
            for i in 0..hdr.num_refs as u64 {
                let (tgt, tc) = heap.read_ref(kernel, core, obj, i)?;
                t += tc;
                if !tgt.is_null() && traced(tgt.0) && bitmap.mark(tgt.header_va()) {
                    stack.push((tgt, Cycles::ZERO));
                }
            }
        }
        let done = sched.finish(&mut kernel.trace, tk, t, take as u64);
        for entry in &mut stack[from..] {
            entry.1 = done;
        }
    }
    Ok(())
}
