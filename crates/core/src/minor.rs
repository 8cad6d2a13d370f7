//! Minor GC: a copying scavenge of the nursery with SwapVA-accelerated
//! promotion — Table I's second row made concrete.
//!
//! Phases (all STW, like HotSpot's parallel scavenge):
//!
//! 1. **Young roots** — root slots pointing into eden, plus old-generation
//!    reference fields found by scanning the dirty cards of the remembered
//!    set.
//! 2. **Trace** — mark the transitively live *young* subgraph (references
//!    into the old generation are not followed; old objects don't move).
//! 3. **Forward** — assign each survivor a promotion address at the old
//!    generation's cursor, `IFSWAPALIGN`-aligned for large objects.
//! 4. **Adjust** — rewrite young-pointing references (roots, dirty old
//!    fields, and survivors' own fields) to the forwarding addresses.
//! 5. **Promote** — move each survivor: by **SwapVA** when it is at least
//!    the threshold and both endpoints are page-aligned (requests
//!    **aggregated** per Fig. 5 — eden and old space are disjoint, so the
//!    overlap machinery is never needed, exactly as Table I says), else by
//!    memmove. Then reset eden; the remembered set is clean by
//!    construction (no young objects remain).

use crate::config::SchedulerKind;
use crate::degrade::{DegradeController, DegradePolicy};
use crate::error::GcError;
use crate::journal::{transact, Transactional};
use crate::lisp2::trace_closure;
use crate::packets::{chunk_ranges, PacketKind, PacketScheduler};
use crate::resilience::{execute_swaps, RetryPolicy};
use crate::watchdog::GcWatchdog;
use svagc_heap::{GenHeap, Heap, HeapError, MarkBitmap, ObjRef, RootSet, CARD_BYTES};
use svagc_kernel::{CoreId, FlushMode, Kernel, SwapBatch, SwapRequest, SwapVaOptions};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{VirtAddr, PAGE_SIZE};

/// Minor-collector configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinorConfig {
    /// Scavenger worker threads.
    pub gc_threads: usize,
    /// Promote large survivors by PTE swapping.
    pub use_swapva: bool,
    /// Aggregate up to this many swap requests per syscall.
    pub aggregation: Option<usize>,
    /// PMD walk caching inside SwapVA.
    pub pmd_cache: bool,
    /// Retry/backoff budget for transient SwapVA faults during promotion.
    pub retry: RetryPolicy,
    /// Per-phase watchdog deadline in virtual cycles (`None` disarms).
    pub deadline_cycles: Option<u64>,
    /// Degraded-mode circuit-breaker policy for aborted scavenges.
    pub degrade: DegradePolicy,
    /// Bucket policy for the scavenge phases (barrier pipeline or work
    /// packets).
    pub scheduler: SchedulerKind,
    /// First machine core this scavenger's workers pin to (multi-tenant
    /// affinity; see [`crate::GcConfig::core_base`]).
    pub core_base: usize,
}

impl MinorConfig {
    /// Everything on (the SVAGC-style scavenger).
    pub fn svagc(gc_threads: usize) -> MinorConfig {
        MinorConfig {
            gc_threads,
            use_swapva: true,
            aggregation: Some(32),
            pmd_cache: true,
            retry: RetryPolicy::default(),
            deadline_cycles: None,
            degrade: DegradePolicy::off(),
            scheduler: SchedulerKind::Barrier,
            core_base: 0,
        }
    }

    /// memmove-only baseline.
    pub fn memmove(gc_threads: usize) -> MinorConfig {
        MinorConfig {
            use_swapva: false,
            aggregation: None,
            ..MinorConfig::svagc(gc_threads)
        }
    }

    /// Select the bucket policy.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> MinorConfig {
        self.scheduler = kind;
        self
    }

    /// Set the core-affinity base.
    pub fn with_core_base(mut self, base: usize) -> MinorConfig {
        self.core_base = base;
        self
    }
}

/// Statistics of one scavenge.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinorStats {
    /// STW pause (cycles), including [`MinorStats::abort_overhead`].
    pub pause: Cycles,
    /// Young objects found live and promoted.
    pub promoted_objects: u64,
    /// Bytes promoted.
    pub promoted_bytes: u64,
    /// Of those objects, promoted by PTE swap.
    pub swapped_objects: u64,
    /// Young objects reclaimed with eden.
    pub dead_young: u64,
    /// Dirty cards scanned.
    pub scanned_cards: u64,
    /// Old objects inspected via dirty cards, deduped: an object spanning
    /// several dirty cards is scanned (and charged) exactly once.
    pub scanned_objects: u64,
    /// IPI interference pushed onto other cores.
    pub interference: Cycles,
    /// Transient-fault retries during promotion swaps.
    pub swap_retries: u64,
    /// Promotions demoted from SwapVA to memmove by permanent faults.
    pub swap_fallback_objects: u64,
    /// Aggregated promotion batches split by a mid-batch fault.
    pub batch_splits: u64,
    /// Attempts of this scavenge that aborted and rolled back before the
    /// committed attempt.
    pub aborts: u64,
    /// Pages rewritten by the aborted attempts' rollbacks.
    pub rollback_pages: u64,
    /// Cycles burned by aborted attempts and their rollbacks.
    pub abort_overhead: Cycles,
    /// Degradation level the committed attempt ran at (0 = normal).
    pub mode: u8,
}

/// The minor collector.
#[derive(Debug)]
pub struct MinorGc {
    /// Active configuration.
    pub cfg: MinorConfig,
    /// Per-scavenge log.
    pub log: Vec<MinorStats>,
    /// Degraded-mode circuit breaker carried across scavenges.
    pub degrade: DegradeController,
}

impl MinorGc {
    /// A scavenger with the given configuration.
    ///
    /// ```
    /// use svagc_core::{MinorConfig, MinorGc};
    /// use svagc_heap::{GenHeap, ObjShape, RootSet};
    /// use svagc_kernel::{CoreId, Kernel};
    /// use svagc_metrics::MachineConfig;
    /// use svagc_vmem::Asid;
    ///
    /// let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 32 << 20);
    /// let mut gh = GenHeap::new(&mut k, Asid(1), 16 << 20, 4 << 20, 10).unwrap();
    /// let mut roots = RootSet::new();
    ///
    /// let (live, _) = gh.alloc_young(&mut k, CoreId(0), ObjShape::data(32)).unwrap();
    /// roots.push(live);
    /// gh.alloc_young(&mut k, CoreId(0), ObjShape::data(32)).unwrap(); // garbage
    ///
    /// let mut minor = MinorGc::new(MinorConfig::svagc(2));
    /// let stats = minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    /// assert_eq!(stats.promoted_objects, 1);
    /// assert_eq!(stats.dead_young, 1);
    /// assert!(gh.in_old(roots.iter_live().next().unwrap().0));
    /// ```
    pub fn new(cfg: MinorConfig) -> MinorGc {
        MinorGc {
            cfg,
            log: Vec::new(),
            degrade: DegradeController::new(cfg.degrade),
        }
    }

    /// Run one scavenge as a **transaction** ([`crate::journal`]). Eden
    /// and the remembered set are only touched on commit, so a rollback
    /// restores the old generation alone; structural errors — notably
    /// [`HeapError::NeedGc`], which the caller must answer with a full
    /// collection — propagate after it.
    pub fn collect(
        &mut self,
        kernel: &mut Kernel,
        gh: &mut GenHeap,
        roots: &mut RootSet,
    ) -> Result<MinorStats, GcError> {
        let user_cfg = self.cfg;
        let (mut stats, out) = transact(self, kernel, gh, roots, false, |gc, kernel, gh, roots, stats| {
            gc.cfg = gc.degrade.apply_minor(&user_cfg);
            let mut watchdog = GcWatchdog::new(gc.cfg.deadline_cycles);
            let attempt = gc.try_collect(kernel, gh, roots, &mut watchdog, stats);
            gc.cfg = user_cfg;
            attempt
        })?;
        stats.aborts = out.aborts;
        stats.rollback_pages = out.rollback_pages;
        stats.abort_overhead = out.abort_overhead;
        stats.pause += out.abort_overhead;
        stats.mode = out.mode;
        // Success: only now is eden wiped (and with it the remembered set
        // — no young objects remain).
        gh.reset_eden();
        self.log.push(stats);
        Ok(stats)
    }

    /// One scavenge attempt (no transaction bracketing — `collect` owns
    /// that; eden is untouched here so an abort only needs to restore the
    /// old generation).
    ///
    /// The phases run as [`PacketKind::MinorChunk`] packets through one
    /// [`PacketScheduler`] whose bucket policy is `cfg.scheduler`:
    /// card-scan and trace chunks stamped with discovery-time
    /// dependencies, forward/adjust ranges at phase milestones, and
    /// promotion batches that start as soon as every adjust packet that
    /// read their forwarding words has completed. The scavenger never
    /// joins its workers between phases: under the barrier policy all
    /// phases share one greedy least-loaded bucket (HotSpot's parallel
    /// scavenge), and each phase's watchdog check sees the makespan so far.
    /// `stats.pause` holds the last phase milestone reached, also when the
    /// attempt fails (the abort charges it, as LISP2's phase times).
    fn try_collect(
        &mut self,
        kernel: &mut Kernel,
        gh: &mut GenHeap,
        roots: &mut RootSet,
        watchdog: &mut GcWatchdog,
        stats: &mut MinorStats,
    ) -> Result<(), GcError> {
        // Anchor of this scavenge on the cumulative GC trace timeline.
        let trace_start = kernel.trace.base();
        let cores = kernel.cores();
        let threads = self.cfg.gc_threads.min(cores).max(1);
        let mut sched = PacketScheduler::new(
            self.cfg.scheduler,
            threads,
            cores,
            self.cfg.core_base,
            true,
            trace_start,
        );
        let (eden_base, eden_end) = gh.eden_range();
        let eden_words = (eden_end - eden_base) / 8;
        let mut bitmap = MarkBitmap::new(eden_base, eden_words);

        // ---- Phase 1+2: young roots, card scan, trace ----------------
        // `old_slots`: every (holder, field) in old space that holds a
        // young pointer and must be rewritten.
        let mut old_slots: Vec<(ObjRef, u64)> = Vec::new();
        let mut stack: Vec<(ObjRef, Cycles)> = Vec::new();
        let tk = sched.begin_vm(PacketKind::MarkRoots, Cycles::ZERO);
        for r in roots.iter_live() {
            if gh.in_young(r.0) && bitmap.mark(r.header_va()) {
                stack.push((r, tk.start));
            }
        }
        sched.finish(&mut kernel.trace, tk, Cycles::ZERO, stack.len() as u64);
        // Old objects overlapping a dirty card. An object can overlap
        // several adjacent dirty cards; scanning it once per card would
        // double-push its young-pointing slots into `old_slots` (duplicate
        // pointer adjustments) and double-charge the scan cycles. Cards
        // iterate in ascending address order, so the index one past the
        // last scanned object dedupes the sweep.
        let old_objects = gh.old.objects_sorted();
        let mut scan: Vec<ObjRef> = Vec::new();
        let mut scanned_upto = 0usize;
        for card in gh.cards.iter_dirty() {
            stats.scanned_cards += 1;
            let card_end = card + CARD_BYTES;
            // Start from the last object at or before the card.
            let start = old_objects
                .partition_point(|o| o.0 <= card)
                .saturating_sub(1)
                .max(scanned_upto);
            scanned_upto = start + old_objects[start..].partition_point(|o| o.0 < card_end);
            scan.extend_from_slice(&old_objects[start..scanned_upto]);
        }
        stats.scanned_objects = scan.len() as u64;
        // Card-scan packets are all ready immediately (dirty cards are
        // mutually independent); their discoveries are stamped with the
        // packet's completion.
        for chunk in scan.chunks(sched.mark_chunk()) {
            let tk = sched.begin(PacketKind::MinorChunk, Cycles::ZERO);
            let core = sched.core(&tk);
            let found_from = stack.len();
            let mut t = Cycles::ZERO;
            for &obj in chunk {
                let (hdr, ht) = gh.old.read_header(kernel, core, obj)?;
                t += ht;
                // Imprecise card scan (as HotSpot does): inspect every
                // reference field of each object overlapping the card.
                for i in 0..hdr.num_refs as u64 {
                    let (tgt, tc) = gh.old.read_ref(kernel, core, obj, i)?;
                    t += tc;
                    if !tgt.is_null() && gh.in_young(tgt.0) {
                        old_slots.push((obj, i));
                        if bitmap.mark(tgt.header_va()) {
                            stack.push((tgt, Cycles::ZERO));
                        }
                    }
                }
            }
            let done = sched.finish(&mut kernel.trace, tk, t, chunk.len() as u64);
            for entry in &mut stack[found_from..] {
                entry.1 = done;
            }
        }
        // Trace the young subgraph.
        trace_closure(
            &mut sched,
            kernel,
            &gh.old,
            &mut bitmap,
            &mut stack,
            PacketKind::MinorChunk,
            |va| gh.in_young(va),
        )?;
        let t_trace = sched.makespan();
        stats.pause = t_trace;
        watchdog.check("minor-trace", t_trace)?;

        // ---- Phase 3: forwarding (promotion addresses) ----------------
        struct Promo {
            src: ObjRef,
            dst: ObjRef,
            size: u64,
            large: bool,
        }
        let young: Vec<ObjRef> = gh.young_objects().to_vec();
        // First pass: read survivor shapes and pre-check old-gen capacity
        // so a promotion failure aborts *before* any state changes (the
        // caller must run a full collection and retry).
        let mut survivors: Vec<(ObjRef, svagc_heap::ObjShape, bool)> = Vec::new();
        let mut demand = 0u64;
        let mut large_count = 0u64;
        for (s, e) in sched.ranges(young.len(), |i| bitmap.is_marked(young[i].header_va())) {
            let tk = sched.begin(PacketKind::MinorChunk, t_trace);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            for &obj in &young[s..e] {
                if !bitmap.is_marked(obj.header_va()) {
                    continue;
                }
                let (hdr, ht) = gh.old.read_header(kernel, core, obj)?;
                t += ht;
                let shape = svagc_heap::ObjShape::with_refs(
                    hdr.num_refs,
                    hdr.size_words - 2 - hdr.num_refs,
                );
                demand += hdr.size_bytes();
                if hdr.is_large() {
                    large_count += 1;
                }
                survivors.push((obj, shape, hdr.is_large()));
            }
            sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
        }
        stats.dead_young = (young.len() - survivors.len()) as u64;
        if demand + (2 * large_count + 1) * PAGE_SIZE > gh.old.free_bytes() {
            return Err(GcError::Heap(HeapError::NeedGc { requested: demand }));
        }
        // Destination assignment: the cursor is a prefix sum over survivor
        // sizes (DESIGN.md §13), so ranges only need the shape milestone.
        let t_shape = sched.makespan();
        let mut promos: Vec<Promo> = Vec::new();
        for (s, e) in sched.ranges(survivors.len(), |_| true) {
            let tk = sched.begin(PacketKind::MinorChunk, t_shape);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            for &(obj, shape, large) in &survivors[s..e] {
                let dst = gh.old.adopt_at_top(kernel, shape)?;
                t += kernel.write_word(gh.old.space(), core, obj.forwarding_va(), dst.0.get())?;
                stats.promoted_bytes += shape.size_bytes();
                promos.push(Promo {
                    src: obj,
                    dst,
                    size: shape.size_bytes(),
                    large,
                });
            }
            sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
        }
        stats.promoted_objects = promos.len() as u64;
        let t_fwd = sched.makespan();
        stats.pause = t_fwd;
        watchdog.check("minor-forward", t_fwd)?;

        // ---- Phase 4: adjust references -------------------------------
        // Overlapping buckets track the promotion batch each adjust access
        // to a forwarding word constrains (the partition is the promote
        // bucket's; promos are in ascending source order by construction).
        let tracking = sched.overlaps();
        let mut batch_of_promo = Vec::new();
        let mut batch_ready: Vec<Cycles> = Vec::new();
        if tracking {
            batch_of_promo = vec![0usize; promos.len()];
            for (bi, (s, e)) in chunk_ranges(promos.len(), threads).enumerate() {
                batch_of_promo[s..e].fill(bi);
                batch_ready.push(Cycles::ZERO);
            }
        }
        let note = |conflicts: &mut Vec<usize>, src: ObjRef| {
            if tracking {
                if let Ok(i) = promos.binary_search_by(|p| p.src.0.cmp(&src.0)) {
                    conflicts.push(batch_of_promo[i]);
                }
            }
        };
        let resolve = |conflicts: &mut Vec<usize>, done: Cycles, ready: &mut [Cycles]| {
            for b in conflicts.drain(..) {
                ready[b] = ready[b].max(done);
            }
        };
        let mut conflicts: Vec<usize> = Vec::new();
        {
            // Root slots: the VM thread's packet.
            let tk = sched.begin_vm(PacketKind::MinorChunk, t_fwd);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            let mut slots = 0u64;
            for slot in roots.slots_mut() {
                if !slot.is_null() && slot.0 >= eden_base && slot.0 < eden_end {
                    let (fwd, c) = kernel.read_word(gh.old.space(), core, slot.forwarding_va())?;
                    t += c;
                    note(&mut conflicts, *slot);
                    *slot = ObjRef(VirtAddr(fwd));
                    slots += 1;
                }
            }
            let done = sched.finish(&mut kernel.trace, tk, t, slots);
            resolve(&mut conflicts, done, &mut batch_ready);
        }
        // Old-generation fields discovered via cards.
        for (s, e) in sched.ranges(old_slots.len(), |_| true) {
            let tk = sched.begin(PacketKind::MinorChunk, t_fwd);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            for &(holder, field) in &old_slots[s..e] {
                let (tgt, tc) = gh.old.read_ref(kernel, core, holder, field)?;
                t += tc;
                if !tgt.is_null() && gh.in_young(tgt.0) {
                    let (fwd, c) = kernel.read_word(gh.old.space(), core, tgt.forwarding_va())?;
                    t += c;
                    t += gh.old.write_ref(kernel, core, holder, field, ObjRef(VirtAddr(fwd)))?;
                    note(&mut conflicts, tgt);
                }
            }
            let done = sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
            resolve(&mut conflicts, done, &mut batch_ready);
        }
        // Survivors' own fields (young targets forward; old targets keep).
        // They share the promotion-batch partition, so packet `bi`'s
        // writes land in batch `bi` by construction.
        for (bi, (s, e)) in sched.ranges(promos.len(), |_| true).enumerate() {
            let tk = sched.begin(PacketKind::MinorChunk, t_fwd);
            let core = sched.core(&tk);
            let mut t = Cycles::ZERO;
            if tracking {
                conflicts.push(bi);
            }
            for p in &promos[s..e] {
                let (hdr, ht) = gh.old.read_header(kernel, core, p.src)?;
                t += ht;
                for i in 0..hdr.num_refs as u64 {
                    let (tgt, tc) = gh.old.read_ref(kernel, core, p.src, i)?;
                    t += tc;
                    if !tgt.is_null() && gh.in_young(tgt.0) {
                        let (fwd, c) =
                            kernel.read_word(gh.old.space(), core, tgt.forwarding_va())?;
                        t += c;
                        t += gh.old.write_ref(kernel, core, p.src, i, ObjRef(VirtAddr(fwd)))?;
                        note(&mut conflicts, tgt);
                    }
                }
            }
            let done = sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
            resolve(&mut conflicts, done, &mut batch_ready);
        }
        let t_adj = sched.makespan();
        stats.pause = t_adj;
        watchdog.check("minor-adjust", t_adj)?;

        // ---- Phase 5: promote (copy or swap) ---------------------------
        let threshold_pages = gh.old.threshold_pages();
        let swap_opts = SwapVaOptions {
            pmd_cache: self.cfg.pmd_cache,
            overlap_opt: false, // Table I: not applicable to Minor copying
            flush: FlushMode::LocalOnly,
        };
        let any_swaps = self.cfg.use_swapva
            && promos.iter().any(|p| {
                p.large && p.src.0.is_page_aligned() && p.dst.0.is_page_aligned()
            });
        if any_swaps {
            // Algorithm 4 prologue: a global sync point, positioned at the
            // adjust milestone.
            kernel.trace.set_base(trace_start + t_adj);
            let asid = gh.old.space().asid();
            let c0 = sched.core_of(0);
            let pin = kernel.pin(c0);
            let (b, intf) = kernel.flush_asid_all_cores(c0, asid);
            sched.sync(pin + b);
            stats.interference += intf.0;
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }
        // Aggregation amortizes syscall entry across *small* promotions; a
        // page budget keeps one batch from serializing big-object swaps
        // onto a single worker. Under the barrier policy one buffer spans
        // the bucket; overlapping packets each own theirs.
        let mut batch = SwapBatch::new(
            self.cfg.aggregation.unwrap_or(1),
            8 * threshold_pages.max(1),
        );
        for (bi, (s, e)) in sched.ranges(promos.len(), |_| true).enumerate() {
            let ready = batch_ready.get(bi).map_or(t_adj, |&r| r.max(t_fwd));
            let tk = sched.begin(PacketKind::MinorChunk, ready);
            let core = sched.core(&tk);
            kernel.trace.set_base(trace_start + tk.start);
            let mut t = Cycles::ZERO;
            for p in &promos[s..e] {
                let pages = p.size.div_ceil(PAGE_SIZE);
                let swappable = self.cfg.use_swapva
                    && p.large
                    && pages >= threshold_pages
                    && p.src.0.is_page_aligned()
                    && p.dst.0.is_page_aligned();
                if swappable {
                    // Eden and old space never overlap: this is always the
                    // disjoint fast path.
                    debug_assert!(
                        !(SwapRequest { a: p.src.0, b: p.dst.0, pages }).overlaps(),
                        "eden and old generation must be disjoint"
                    );
                    stats.swapped_objects += 1;
                    if batch.push(SwapRequest { a: p.src.0, b: p.dst.0, pages }, p.size) {
                        t += Self::flush_promotions(
                            kernel, gh, &mut batch, swap_opts, core, &self.cfg, stats,
                        )?;
                        // Mid-bucket deadline check between promotion batches.
                        watchdog.check("minor-promote", sched.elapsed(&tk, t))?;
                    }
                } else {
                    t += kernel.memmove(gh.old.space(), core, p.src.0, p.dst.0, p.size)?;
                }
            }
            if sched.overlaps() {
                // The packet drains its own batch, then clears its
                // destinations' forwarding words on the same core as its
                // swaps — which LocalOnly-flushed it — so no extra TLB pass
                // is needed.
                t += Self::flush_promotions(
                    kernel, gh, &mut batch, swap_opts, core, &self.cfg, stats,
                )?;
                for p in &promos[s..e] {
                    t += kernel.write_word(gh.old.space(), core, p.dst.forwarding_va(), 0)?;
                }
            }
            sched.finish(&mut kernel.trace, tk, t, (e - s) as u64);
        }
        if !sched.overlaps() {
            // Barrier tail: the least-loaded worker drains the bucket-wide
            // batch.
            if !batch.is_empty() {
                let tk = sched.begin_any(PacketKind::MinorChunk);
                let core = sched.core(&tk);
                kernel.trace.set_base(trace_start + tk.start);
                let c = Self::flush_promotions(
                    kernel, gh, &mut batch, swap_opts, core, &self.cfg, stats,
                )?;
                sched.finish(&mut kernel.trace, tk, c, 0);
            }
            // Clear forwarding words at the destinations (after every
            // deferred swap has executed, so the words land in the final
            // frames), once every worker has dropped its stale entries.
            if any_swaps {
                let asid = gh.old.space().asid();
                for c in sched.bucket_cores() {
                    kernel.flush_tlb_local(c, asid);
                }
            }
            for p in &promos {
                let tk = sched.begin_any(PacketKind::MinorChunk);
                let t =
                    kernel.write_word(gh.old.space(), sched.core(&tk), p.dst.forwarding_va(), 0)?;
                sched.finish(&mut kernel.trace, tk, t, 1);
            }
        }
        if any_swaps {
            // Algorithm 4 epilogue: one final broadcast for the mutators.
            kernel.trace.set_base(trace_start + sched.makespan());
            let asid = gh.old.space().asid();
            let (b, intf) = kernel.flush_asid_all_cores(sched.core_of(0), asid);
            sched.sync(b + kernel.unpin());
            stats.interference += intf.0;
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }

        stats.pause = sched.makespan();
        watchdog.check("minor-promote", stats.pause)?;
        kernel.trace.span_abs(
            TraceKind::MinorCycle,
            trace_start,
            stats.pause,
            0,
            &[
                ("promoted", stats.promoted_objects),
                ("swapped", stats.swapped_objects),
                ("dead_young", stats.dead_young),
            ],
        );
        // Stack successive scavenges (and their kernel-side events) on the
        // cumulative GC timeline.
        kernel.trace.set_base(trace_start + stats.pause);
        kernel.perf.gc_cycles += 1;
        kernel.perf.objects_moved += stats.promoted_objects;
        kernel.perf.objects_swapped += stats.swapped_objects;
        Ok(())
    }

    /// Flush a promotion batch through the resilient executor, rebooking
    /// fallback promotions in the stats. Fallback indices are distinct
    /// within one call and the batch is cleared on every flush, so each
    /// fallback is rebooked at most once; the subtraction saturates (as
    /// the full collector's does) so a miscount degrades the stats instead
    /// of panicking. Returns the cycles charged to the worker.
    fn flush_promotions(
        kernel: &mut Kernel,
        gh: &mut GenHeap,
        batch: &mut SwapBatch,
        opts: SwapVaOptions,
        core: CoreId,
        cfg: &MinorConfig,
        stats: &mut MinorStats,
    ) -> Result<Cycles, GcError> {
        if batch.is_empty() {
            return Ok(Cycles::ZERO);
        }
        let entries = batch.take();
        let reqs: Vec<SwapRequest> = entries.iter().map(|(r, _)| *r).collect();
        let out = execute_swaps(
            kernel,
            gh.old.space_mut(),
            &reqs,
            opts,
            core,
            cfg.aggregation.is_some(),
            &cfg.retry,
        )?;
        stats.swap_retries += out.retries;
        stats.batch_splits += out.batch_splits;
        debug_assert!(out.fallback.len() <= reqs.len());
        stats.swapped_objects = stats
            .swapped_objects
            .saturating_sub(out.fallback.len() as u64);
        stats.swap_fallback_objects += out.fallback.len() as u64;
        stats.interference += out.interference;
        Ok(out.cycles)
    }

    /// Total scavenge pause across the log.
    pub fn total_pause(&self) -> Cycles {
        self.log.iter().map(|s| s.pause).sum()
    }
}

impl Transactional for MinorGc {
    type Heap = GenHeap;
    type Stats = MinorStats;

    /// Eden is only touched on commit, so the transaction snapshots the
    /// old generation alone.
    fn txn_heap(gh: &mut GenHeap) -> &mut Heap {
        &mut gh.old
    }

    fn degrade(&mut self) -> &mut DegradeController {
        &mut self.degrade
    }

    fn attempt_cycles(stats: &MinorStats) -> Cycles {
        stats.pause
    }
}

/// Full collection of the *old generation* while a nursery exists (e.g.
/// after a promotion failure): young-held references into the old space
/// are pinned as temporary roots so the full collector keeps and updates
/// them, the collection runs on the old heap only (its phases ignore
/// out-of-heap roots and targets), the updated values are written back
/// into the young holders, and the remembered set is rebuilt for the
/// moved old objects.
pub fn full_collect_generational(
    kernel: &mut Kernel,
    gh: &mut GenHeap,
    roots: &mut RootSet,
    full: &mut crate::lisp2::Lisp2Collector,
) -> Result<crate::stats::GcCycleStats, GcError> {
    let core = svagc_kernel::CoreId(0);
    // Pin young-held old references as temporary roots.
    let mut temp: Vec<(ObjRef, u64, svagc_heap::RootId)> = Vec::new();
    for &y in &gh.young_objects().to_vec() {
        let (hdr, _) = gh.old.read_header(kernel, core, y)?;
        for i in 0..hdr.num_refs as u64 {
            let (tgt, _) = gh.old.read_ref(kernel, core, y, i)?;
            if !tgt.is_null() && gh.in_old(tgt.0) {
                temp.push((y, i, roots.push(tgt)));
            }
        }
    }

    let stats = full.collect(kernel, &mut gh.old, roots)?;

    // Write the updated addresses back into the young holders and retire
    // the temporary roots.
    for (holder, field, rid) in temp {
        let updated = roots.get(rid);
        gh.old.write_ref(kernel, core, holder, field, updated)?;
        roots.set(rid, ObjRef::NULL);
    }

    // Old objects moved: rebuild the remembered set by scanning the
    // surviving old objects for young-pointing fields.
    gh.cards.clear();
    for &obj in &gh.old.objects_sorted().to_vec() {
        let (hdr, _) = gh.old.read_header(kernel, core, obj)?;
        for i in 0..hdr.num_refs as u64 {
            let (tgt, _) = gh.old.read_ref(kernel, core, obj, i)?;
            if !tgt.is_null() && gh.in_young(tgt.0) {
                gh.cards.dirty(obj.ref_field_va(i));
            }
        }
    }
    Ok(stats)
}
