//! The GC transaction protocol: every cycle is all-or-nothing.
//!
//! `transact` is the one abort/retry loop both collectors run their
//! cycles through; each attempt is bracketed by a [`CompactionJournal`]:
//!
//! 1. [`CompactionJournal::begin`] snapshots the collector-visible
//!    pre-state (the heap's object index and cursor, the root slots and,
//!    when verifying, the content hash of every live object) and arms the
//!    kernel's undo log, which from then on records the pre-image of every
//!    PTE swap, memmove, and word write (durably, with the WAL armed).
//! 2. On success, [`CompactionJournal::commit`] retires the undo log.
//! 3. On any error but a seeded crash, [`CompactionJournal::abort`] undoes
//!    the log newest-first (memory and page tables bit-for-bit), restores
//!    the heap index and roots, and broadcasts a TLB shootdown. The
//!    attempt and its rollback are charged to the pause; with
//!    verification on, the rollback is proved against the pre-GC hash.
//!    Operational errors then walk the degrade ladder
//!    ([`crate::degrade::DegradeController`]) and retry; anything else, or
//!    an exhausted ladder, surfaces with the heap restored.
//!
//! The undo log lives in the *kernel* ([`svagc_kernel::UndoLog`]), the
//! only layer that sees every mutation; this module adds the
//! collector-side pre-state the kernel cannot know about.

use crate::degrade::{DegradeController, ModeTransition};
use crate::error::GcError;
use crate::recovery::CycleMeta;
use svagc_heap::{Heap, HeapSnapshot, HeapVerifier, ObjRef, RootSet};
use svagc_kernel::{CoreId, CrashPoint, Kernel, RollbackError};
use svagc_metrics::{Cycles, TraceKind};

/// What one rollback cost and undid.
#[derive(Debug, Clone, Copy)]
pub struct RollbackReport {
    /// Journal entries replayed backward.
    pub ops: usize,
    /// Pages rewritten (PTE and byte restores).
    pub pages: u64,
    /// Simulated cycles the rollback itself consumed.
    pub cycles: Cycles,
}

/// Pre-state of one transactional GC cycle. See the module docs.
#[derive(Debug)]
pub struct CompactionJournal {
    heap: HeapSnapshot,
    roots: Vec<ObjRef>,
    pre_hash: Option<u64>,
}

impl CompactionJournal {
    /// Open the transaction: snapshot collector pre-state and arm the
    /// kernel undo log. The content hash is computed up front when
    /// `want_hash` is set (so an abort can prove bit-for-bit restoration)
    /// or the write-ahead log is armed: then a WAL epoch opens whose begin
    /// record carries the pre-cycle snapshot ([`CycleMeta`]) — the state
    /// crash recovery restores if this cycle never commits.
    pub fn begin(
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &RootSet,
        want_hash: bool,
    ) -> CompactionJournal {
        let pre_hash = (want_hash || kernel.wal_enabled())
            .then(|| HeapVerifier::new().content_hash(kernel, heap));
        let txn = CompactionJournal {
            heap: heap.snapshot(),
            roots: roots.snapshot(),
            pre_hash,
        };
        if kernel.wal_enabled() {
            let meta = CycleMeta::capture(heap, roots, pre_hash.unwrap_or(0));
            kernel.wal_cycle_begin(meta.encode());
        }
        kernel.journal_begin();
        txn
    }

    /// Commit: retire the undo log. An open WAL epoch first gets its
    /// commit record (the post-cycle snapshot): a crash from here on
    /// recovers to the *post*-cycle heap.
    pub fn commit(self, kernel: &mut Kernel, heap: &mut Heap, roots: &RootSet) {
        if kernel.wal_cycle_open() {
            let hash = HeapVerifier::new().content_hash(kernel, heap);
            let meta = CycleMeta::capture(heap, roots, hash);
            kernel.wal_commit(meta.encode());
        }
        kernel.journal_retire();
    }

    /// Abort: undo the kernel log newest-first, restore the heap index
    /// and roots, and broadcast a shootdown so no core keeps a rolled-back
    /// mapping (charged to `core`). Then the open WAL epoch, if any, gets
    /// its abort record: recovery after a later crash need not undo it.
    ///
    /// Errors are [`GcError::Crashed`] when a seeded crash point killed
    /// the machine mid-rollback (the WAL epoch stays open, so recovery
    /// redoes the undo), or [`GcError::Corruption`] when the undo log was
    /// already replayed — a simulator bug.
    pub fn abort(
        self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
        core: CoreId,
    ) -> Result<RollbackReport, GcError> {
        let journal = kernel.journal_take().unwrap_or_default();
        let ops = journal.len();
        // Memory and page tables first (needs the space the cycle ran in)…
        let (mut cycles, pages) =
            kernel
                .rollback(heap.space_mut(), journal, core)
                .map_err(|e| match e {
                    RollbackError::Vm(v) => GcError::from(v),
                    RollbackError::Crashed => GcError::Crashed {
                        point: CrashPoint::MidRollback,
                    },
                    RollbackError::Replayed { id } => GcError::Corruption {
                        phase: "rollback",
                        violations: 1,
                        first: format!("undo journal {id} was already replayed"),
                    },
                })?;
        // …then the collector-side index and roots…
        let asid = heap.space().asid();
        heap.restore(self.heap);
        roots.restore(self.roots);
        // …then make sure no core's TLB still caches a rolled-back PTE.
        let (flush, _intf) = kernel.flush_asid_all_cores(core, asid);
        cycles += flush;
        if let Some(point) = kernel.crashed() {
            return Err(GcError::Crashed { point });
        }
        kernel.wal_cycle_aborted();
        Ok(RollbackReport { ops, pages, cycles })
    }
}

/// What a committed transaction's aborted attempts cost (pause time on
/// top of the committed attempt), and the mode the commit ran at.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TxnOutcome {
    pub aborts: u64,
    pub watchdog_expiries: u64,
    pub rollback_pages: u64,
    pub abort_overhead: Cycles,
    pub mode: u8,
}

/// The collector side of [`transact`].
pub(crate) trait Transactional {
    /// The heap an attempt runs over.
    type Heap;
    /// An attempt's statistics; partial costs survive a failed attempt.
    type Stats: Default;
    /// The heap the transaction snapshots and rolls back.
    fn txn_heap(heap: &mut Self::Heap) -> &mut Heap;
    fn degrade(&mut self) -> &mut DegradeController;
    /// Virtual time an attempt burned, as far as `stats` recorded it.
    fn attempt_cycles(stats: &Self::Stats) -> Cycles;
    /// Where the next attempt starts on the GC timeline (default: the trace base).
    fn timeline(&self, kernel: &Kernel) -> Cycles {
        kernel.trace.base()
    }
    /// Move the GC timeline, and the kernel's trace base, to `at`.
    fn set_timeline(&mut self, kernel: &mut Kernel, at: Cycles) {
        kernel.trace.set_base(at);
    }
}

/// Run one collection of `gc` as a transaction (see the module docs),
/// retrying `attempt` until it commits or an error surfaces. With
/// `verify`, each rollback is proved by [`verify_rollback`].
pub(crate) fn transact<C: Transactional>(
    gc: &mut C,
    kernel: &mut Kernel,
    heap: &mut C::Heap,
    roots: &mut RootSet,
    verify: bool,
    mut attempt: impl FnMut(&mut C, &mut Kernel, &mut C::Heap, &mut RootSet, &mut C::Stats) -> Result<(), GcError>,
) -> Result<(C::Stats, TxnOutcome), GcError> {
    let mut out = TxnOutcome::default();
    loop {
        let attempt_start = gc.timeline(kernel);
        let txn = CompactionJournal::begin(kernel, C::txn_heap(heap), roots, verify);
        let mut stats = C::Stats::default();
        let Err(e) = attempt(gc, kernel, heap, roots, &mut stats) else {
            txn.commit(kernel, C::txn_heap(heap), roots);
            out.mode = gc.degrade().mode().level();
            if let Some(t) = gc.degrade().on_clean() {
                trace_mode_change(kernel, t);
            }
            return Ok((stats, out));
        };
        // A seeded crash is not an abort: the machine is dead, so nothing
        // rolls back. The undo log stays armed and the WAL epoch open —
        // exactly the torn state crash recovery expects.
        if let Some(point) = e.crash_point() {
            return Err(GcError::Crashed { point });
        }
        let pre_hash = txn.pre_hash;
        let rb = txn.abort(kernel, C::txn_heap(heap), roots, CoreId(0))?;
        out.aborts += 1;
        out.rollback_pages += rb.pages;
        out.watchdog_expiries += u64::from(matches!(e, GcError::Deadline { .. }));
        // The aborted attempt and its rollback burned real virtual time:
        // it is part of this cycle's pause.
        let cost = C::attempt_cycles(&stats) + rb.cycles;
        out.abort_overhead += cost;
        gc.set_timeline(kernel, attempt_start + cost);
        kernel.trace.instant(
            TraceKind::CycleAbort,
            Cycles::ZERO,
            0,
            &[
                ("attempt", out.aborts),
                ("mode", gc.degrade().mode().level() as u64),
                ("rollback_ops", rb.ops as u64),
                ("rollback_pages", rb.pages),
            ],
        );
        if verify {
            verify_rollback(kernel, C::txn_heap(heap), pre_hash)?;
        }
        // Operational failures walk the degradation ladder and retry;
        // anything else propagates (heap already restored). An operational
        // error on the last rung is its own outcome: the collector ran
        // out of fallbacks.
        match e.is_operational().then(|| gc.degrade().on_abort()).flatten() {
            Some(t) => trace_mode_change(kernel, t),
            None if e.is_operational() && gc.degrade().policy().enabled => {
                return Err(GcError::Exhausted(Box::new(e)))
            }
            None => return Err(e),
        }
    }
}

/// Prove a rollback: pre-GC content hash, clean layout and boundaries.
fn verify_rollback(kernel: &Kernel, heap: &mut Heap, pre_hash: Option<u64>) -> Result<(), GcError> {
    let verifier = HeapVerifier::new();
    let post = verifier.content_hash(kernel, heap);
    if Some(post) != pre_hash {
        return Err(GcError::Corruption {
            phase: "rollback",
            violations: 1,
            first: format!(
                "post-rollback content hash {post:#018x} != pre-GC {:#018x}",
                pre_hash.unwrap_or(0)
            ),
        });
    }
    for report in [verifier.verify_layout(kernel, heap), verifier.verify_boundaries(kernel, heap)] {
        if !report.is_clean() {
            return Err(GcError::corruption(&report));
        }
    }
    Ok(())
}

fn trace_mode_change(kernel: &mut Kernel, t: ModeTransition) {
    kernel.trace.instant(
        TraceKind::ModeChange,
        Cycles::ZERO,
        0,
        &[("from", t.from.level() as u64), ("to", t.to.level() as u64)],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_heap::{HeapConfig, ObjShape};
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    const CORE: CoreId = CoreId(0);

    #[test]
    fn abort_restores_heap_hash_and_roots() {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
        let mut heap = Heap::new(&mut k, Asid(1), HeapConfig::new(4 << 20)).unwrap();
        let mut roots = RootSet::new();
        let (a, _) = heap.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        let (b, _) = heap.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        let rid = roots.push(a);
        let verifier = HeapVerifier::new();
        let pre = verifier.content_hash(&k, &mut heap);

        let txn = CompactionJournal::begin(&mut k, &mut heap, &roots, true);
        assert_eq!(txn.pre_hash, Some(pre));
        // Scribble like a half-done cycle: payload writes, a root retarget.
        heap.write_data(&mut k, CORE, a, 0, 0, 0xDEAD).unwrap();
        heap.write_data(&mut k, CORE, b, 0, 1, 0xBEEF).unwrap();
        roots.set(rid, b);
        assert_ne!(verifier.content_hash(&k, &mut heap), pre);

        let report = txn.abort(&mut k, &mut heap, &mut roots, CORE).unwrap();
        assert!(report.ops >= 2);
        assert_eq!(verifier.content_hash(&k, &mut heap), pre, "bit-for-bit");
        assert_eq!(roots.get(rid), a);
    }

    #[test]
    fn commit_discards_the_journal() {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
        let mut heap = Heap::new(&mut k, Asid(1), HeapConfig::new(4 << 20)).unwrap();
        let roots = RootSet::new();
        let txn = CompactionJournal::begin(&mut k, &mut heap, &roots, false);
        assert!(txn.pre_hash.is_none());
        txn.commit(&mut k, &mut heap, &roots);
        assert!(k.journal_take().is_none(), "commit consumed the journal");
    }
}
