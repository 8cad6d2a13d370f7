//! The undo log of a GC cycle: one record per mutation, holding the
//! absolute pre-image of what it overwrote.
//!
//! Every mutation the kernel applies makes one call, `Kernel::record_undo`,
//! *before* it mutates. The call reads the pre-image once and appends an
//! [`UndoRecord`] to the active [`UndoLog`]: the raw PTEs of a disjoint
//! swap (word arena), the bytes of an overlap rotation's window or a
//! memmove destination (byte arena), or a metadata word's old value. With
//! a WAL cycle open, the same call writes the record ahead as the cycle's
//! durable intent ([`crate::wal`]).
//!
//! Undo ([`Kernel::undo_op`]) installs pre-images, which is idempotent, so
//! one routine serves both [`Kernel::rollback`] of an aborting cycle and
//! crash recovery, which decodes the WAL's intents back into an
//! [`UndoLog`]. Records are undone newest-first, so a byte restore writes
//! through the translation its mutation used. Undo bypasses fault
//! injection but is charged: `pte_swap` per page pair, bandwidth per byte
//! range, `mem_access` per word.

use crate::error::RollbackError;
use crate::fault::CrashPoint;
use crate::state::{CoreId, Kernel};
use crate::swapva::SwapRequest;
use core::ops::Range;
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{AddressSpace, PhysAddr, VirtAddr, VmError, Vmem, PAGE_SIZE};

/// One mutation's absolute pre-image; arena ranges index the owning
/// [`UndoLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoRecord {
    /// A disjoint PTE swap: the raw PTEs at `(a + i, b + i)` before it,
    /// interleaved in the word arena.
    Ptes {
        /// First range base.
        a: VirtAddr,
        /// Second range base.
        b: VirtAddr,
        /// Slice of the word arena.
        saved: Range<usize>,
    },
    /// A byte-range overwrite (memmove destination, overlap-rotation
    /// window): the range's prior bytes.
    Bytes {
        /// Start of the range.
        at: VirtAddr,
        /// Slice of the byte arena.
        saved: Range<usize>,
    },
    /// A metadata-word write: the word's prior value.
    Word {
        /// The word's address.
        at: VirtAddr,
        /// Its value before the write.
        old: u64,
    },
}

impl UndoRecord {
    /// Pages this record's undo rewrites (a word counts as zero).
    pub fn pages(&self) -> u64 {
        match self {
            UndoRecord::Ptes { saved, .. } => saved.len() as u64,
            UndoRecord::Bytes { saved, .. } => (saved.len() as u64).div_ceil(PAGE_SIZE),
            UndoRecord::Word { .. } => 0,
        }
    }
}

/// What a mutation is about to overwrite (see `Kernel::record_undo`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Overwrite {
    Ptes(SwapRequest),
    Bytes { at: VirtAddr, len: u64 },
    Word { at: VirtAddr, pa: PhysAddr },
}

/// Pre-image records in application order, with their arenas (one buffer
/// each per cycle, recycled by the kernel, not one allocation per record).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndoLog {
    pub(crate) records: Vec<UndoRecord>,
    pub(crate) bytes: Vec<u8>,
    pub(crate) words: Vec<u64>,
    /// Kernel-assigned identity (0 = unidentified, no replay guard).
    pub(crate) id: u64,
}

impl UndoLog {
    /// The kernel-assigned identity (0 for logs not opened by
    /// [`Kernel::journal_begin`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, oldest first.
    pub fn records(&self) -> &[UndoRecord] {
        &self.records
    }

    /// Heap bytes held by the arenas and the record list.
    fn footprint(&self) -> usize {
        self.bytes.capacity()
            + self.words.capacity() * core::mem::size_of::<u64>()
            + self.records.capacity() * core::mem::size_of::<UndoRecord>()
    }

    fn clear(&mut self) {
        self.records.clear();
        self.bytes.clear();
        self.words.clear();
    }

    /// Read `what`'s pre-image and append its record; on a read error
    /// (an unmapped page) nothing is appended.
    fn capture(&mut self, vmem: &Vmem, space: &AddressSpace, what: Overwrite) -> Result<(), VmError> {
        let (b0, w0) = (self.bytes.len(), self.words.len());
        let rec = match what {
            Overwrite::Ptes(req) => (0..req.pages)
                .flat_map(|i| [req.a.add_pages(i), req.b.add_pages(i)])
                .try_for_each(|va| {
                    self.words.push(space.page_table().read_pte_raw(va)?);
                    Ok(())
                })
                .map(|()| UndoRecord::Ptes { a: req.a, b: req.b, saved: w0..self.words.len() }),
            Overwrite::Bytes { at, len } => vmem
                .read_bytes_into(space, at, len, &mut self.bytes)
                .map(|()| UndoRecord::Bytes { at, saved: b0..self.bytes.len() }),
            Overwrite::Word { at, pa } => vmem.phys.read_u64(pa).map(|old| UndoRecord::Word { at, old }),
        };
        rec.map(|rec| self.records.push(rec)).inspect_err(|_| {
            self.bytes.truncate(b0);
            self.words.truncate(w0);
        })
    }
}

impl Kernel {
    /// Start journaling: every later mutation appends an undo record until
    /// [`Kernel::journal_take`]. Any previously active log is discarded.
    pub fn journal_begin(&mut self) {
        self.next_journal_id += 1;
        self.journal_retire();
        // Reuse the last retired log's arenas: cycle after cycle the
        // pre-image buffers stay warm instead of being re-grown.
        let mut log = std::mem::take(&mut self.journal_spare);
        log.id = self.next_journal_id;
        self.journal = Some(log);
    }

    /// Stop journaling and return the log (None if none was begun) for
    /// [`Kernel::rollback`]; [`Kernel::journal_retire`] commits instead.
    pub fn journal_take(&mut self) -> Option<UndoLog> {
        self.journal.take()
    }

    /// Commit: stop journaling, keeping the log's arenas for the next cycle.
    pub fn journal_retire(&mut self) {
        if let Some(j) = self.journal.take() {
            self.journal_stash_spare(j);
        }
    }

    /// Keep `log`'s arenas as the next cycle's if they beat the spare's.
    /// There is no cap: the kernel dies with its run, and every cycle
    /// that grew the log to its peak would re-grow (and re-fault) it.
    fn journal_stash_spare(&mut self, mut log: UndoLog) {
        log.clear();
        if log.footprint() > self.journal_spare.footprint() {
            self.journal_spare = log;
        }
    }

    /// The one undo call of every mutation site, made before it mutates:
    /// record what `what` is about to overwrite and, with a WAL cycle
    /// open, write it ahead as the intent (returning the log-write
    /// cycles). With `may_crash` a pending [`CrashPoint::MidLogAppend`]
    /// tears that write; the machine is then [`Kernel::crashed`] and the
    /// caller must not mutate. A PTE capture doubles as the swap's range
    /// validation, so it runs even when nothing records.
    pub(crate) fn record_undo(
        &mut self,
        space: &AddressSpace,
        what: Overwrite,
        may_crash: bool,
    ) -> Result<Cycles, VmError> {
        let wal = self.wal.cycle_open();
        if self.journal.is_none() && !wal && !matches!(what, Overwrite::Ptes(_)) {
            return Ok(Cycles::ZERO);
        }
        // Without a journal the record lands in the spare log and is
        // dropped once written ahead.
        let journaled = self.journal.is_some();
        let mut log = self.journal.take().unwrap_or_else(|| std::mem::take(&mut self.journal_spare));
        let mut out = log.capture(&self.vmem, space, what).map(|()| Cycles::ZERO);
        if wal && out.is_ok() {
            let rec = log.records.last().expect("capture appended a record");
            out = Ok(self.wal_intent(&log, rec, may_crash));
        }
        if journaled {
            self.journal = Some(log);
        } else {
            self.journal_stash_spare(log);
        }
        out
    }

    /// Undo one record of `log` by installing its pre-image — the routine
    /// both undo paths share. Far pages under a byte or word restore are
    /// promoted first, or the next fetch-on-access would clobber them.
    pub fn undo_op(
        &mut self,
        space: &mut AddressSpace,
        log: &UndoLog,
        rec: &UndoRecord,
    ) -> Result<Cycles, VmError> {
        let costs = self.machine.costs;
        let mut t = Cycles::ZERO;
        match rec {
            UndoRecord::Ptes { a, b, saved } => {
                for (i, pair) in log.words[saved.clone()].chunks_exact(2).enumerate() {
                    let i = i as u64;
                    space.page_table_mut().write_pte_raw(a.add_pages(i), pair[0])?;
                    space.page_table_mut().write_pte_raw(b.add_pages(i), pair[1])?;
                    self.perf.pte_swaps += 1;
                    t += Cycles(costs.pte_swap);
                }
            }
            UndoRecord::Bytes { at, saved } => {
                let len = saved.len() as u64;
                t += self.tier_resolve_write_range(space, *at, len)?;
                self.vmem.write_bytes(space, *at, &log.bytes[saved.clone()])?;
                t += self.bandwidth.copy_cycles(&self.machine, len);
            }
            UndoRecord::Word { at, old } => {
                t += self.tier_resolve_write_range(space, *at, 8)?;
                self.vmem.write_u64(space, *at, *old)?;
                t += Cycles(costs.mem_access);
            }
        }
        Ok(t)
    }

    /// Undo every record of `log` newest-first; a seeded `crash` point
    /// fires between records. Returns the cycles charged and the pages
    /// rewritten.
    pub fn undo_all(
        &mut self,
        space: &mut AddressSpace,
        log: &UndoLog,
        crash: CrashPoint,
    ) -> Result<(Cycles, u64), RollbackError> {
        let (mut t, mut pages) = (Cycles::ZERO, 0);
        for rec in log.records.iter().rev() {
            if self.crash_fire(crash) {
                return Err(RollbackError::Crashed);
            }
            pages += rec.pages();
            t += self.undo_op(space, log, rec)?;
        }
        Ok((t, pages))
    }

    /// Roll an aborting cycle's `log` back in process (a
    /// [`CrashPoint::MidRollback`] may fire between records). Returns the
    /// cycles charged to `core` and the pages rewritten; the caller owes
    /// the trailing TLB shootdown. A kernel-identified log rolls back at
    /// most once ([`RollbackError::Replayed`], checked before anything is
    /// undone): a second pass would clobber everything written since.
    pub fn rollback(
        &mut self,
        space: &mut AddressSpace,
        log: UndoLog,
        core: CoreId,
    ) -> Result<(Cycles, u64), RollbackError> {
        if log.id != 0 && !self.retired_journals.insert(log.id) {
            return Err(RollbackError::Replayed { id: log.id });
        }
        let (t, pages) = self.undo_all(space, &log, CrashPoint::MidRollback)?;
        self.perf.rollback_pages += pages;
        self.trace.instant(
            TraceKind::Rollback,
            Cycles::ZERO,
            core.0 as u32,
            &[("ops", log.len() as u64), ("pages", pages)],
        );
        self.journal_stash_spare(log);
        Ok((t, pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swapva::SwapVaOptions;
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    fn setup(frames: u32) -> (Kernel, AddressSpace) {
        (
            Kernel::new(MachineConfig::i5_7600(), frames),
            AddressSpace::new(Asid(1)),
        )
    }

    fn fill(k: &mut Kernel, s: &AddressSpace, base: VirtAddr, pages: u64, tag: u64) {
        for i in 0..pages * 512 {
            k.vmem.write_u64(s, base + i * 8, tag * 1_000_000 + i).unwrap();
        }
    }

    fn snapshot(k: &Kernel, s: &AddressSpace, base: VirtAddr, bytes: u64) -> Vec<u8> {
        let mut buf = vec![0u8; bytes as usize];
        k.vmem.read_bytes(s, base, &mut buf).unwrap();
        buf
    }

    #[test]
    fn rollback_undoes_disjoint_swaps() {
        let (mut k, mut s) = setup(128);
        let a = k.vmem.alloc_region(&mut s, 4).unwrap();
        let b = k.vmem.alloc_region(&mut s, 4).unwrap();
        fill(&mut k, &s, a, 4, 1);
        fill(&mut k, &s, b, 4, 2);
        let before_a = snapshot(&k, &s, a, 4 * PAGE_SIZE);
        let before_b = snapshot(&k, &s, b, 4 * PAGE_SIZE);
        k.journal_begin();
        k.swap_va(&mut s, CoreId(0), SwapRequest { a, b, pages: 4 }, SwapVaOptions::naive())
            .unwrap();
        assert_ne!(snapshot(&k, &s, a, 4 * PAGE_SIZE), before_a);
        let j = k.journal_take().unwrap();
        assert_eq!(j.len(), 1);
        let swaps = k.perf.pte_swaps;
        let (t, pages) = k.rollback(&mut s, j, CoreId(0)).unwrap();
        assert_eq!(pages, 8);
        assert_eq!(snapshot(&k, &s, a, 4 * PAGE_SIZE), before_a);
        assert_eq!(snapshot(&k, &s, b, 4 * PAGE_SIZE), before_b);
        assert_eq!(k.perf.rollback_pages, 8);
        // One pte_swap per restored page pair, counted like a forward swap.
        assert_eq!(k.perf.pte_swaps - swaps, 4);
        assert_eq!(t, Cycles(4 * k.machine.costs.pte_swap));
    }

    #[test]
    fn rollback_undoes_overlap_rotation() {
        // The rotation is not an exchange of page pairs: its record is the
        // byte image of the whole window.
        let (mut k, mut s) = setup(128);
        let base = k.vmem.alloc_region(&mut s, 10).unwrap();
        fill(&mut k, &s, base, 10, 3);
        let before = snapshot(&k, &s, base, 10 * PAGE_SIZE);
        // Slide 7 pages down by 3: ranges [3..10) -> [0..7) overlap.
        let req = SwapRequest {
            a: base,
            b: base.add_pages(3),
            pages: 7,
        };
        assert!(req.overlaps());
        k.journal_begin();
        k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive()).unwrap();
        assert_ne!(snapshot(&k, &s, base, 10 * PAGE_SIZE), before);
        let j = k.journal_take().unwrap();
        k.rollback(&mut s, j, CoreId(0)).unwrap();
        assert_eq!(snapshot(&k, &s, base, 10 * PAGE_SIZE), before);
    }

    #[test]
    fn rollback_undoes_memmove() {
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 2).unwrap();
        fill(&mut k, &s, a, 2, 5);
        fill(&mut k, &s, b, 2, 6);
        let before_b = snapshot(&k, &s, b, 2 * PAGE_SIZE);
        k.journal_begin();
        k.memmove(&s, CoreId(0), a, b, 2 * PAGE_SIZE).unwrap();
        assert_ne!(snapshot(&k, &s, b, 2 * PAGE_SIZE), before_b);
        let j = k.journal_take().unwrap();
        let (_, pages) = k.rollback(&mut s, j, CoreId(0)).unwrap();
        assert_eq!(pages, 2);
        assert_eq!(snapshot(&k, &s, b, 2 * PAGE_SIZE), before_b);
    }

    #[test]
    fn rollback_undoes_word_writes() {
        let (mut k, mut s) = setup(16);
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.vmem.write_u64(&s, a, 111).unwrap();
        k.journal_begin();
        k.write_word(&s, CoreId(0), a, 222).unwrap();
        k.write_word(&s, CoreId(0), a, 333).unwrap();
        let j = k.journal_take().unwrap();
        assert_eq!(j.len(), 2);
        k.rollback(&mut s, j, CoreId(0)).unwrap();
        assert_eq!(k.vmem.read_u64(&s, a).unwrap(), 111, "oldest value wins");
    }

    #[test]
    fn rollback_composes_interleaved_ops_in_reverse() {
        // memmove into b, then swap a<->b, then scribble a word: the undo
        // order (word, swap, bytes) must restore the exact initial state.
        let (mut k, mut s) = setup(128);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 2).unwrap();
        fill(&mut k, &s, a, 2, 7);
        fill(&mut k, &s, b, 2, 8);
        let before_a = snapshot(&k, &s, a, 2 * PAGE_SIZE);
        let before_b = snapshot(&k, &s, b, 2 * PAGE_SIZE);
        k.journal_begin();
        k.memmove(&s, CoreId(0), a, b, PAGE_SIZE).unwrap();
        k.swap_va(&mut s, CoreId(0), SwapRequest { a, b, pages: 2 }, SwapVaOptions::naive())
            .unwrap();
        k.write_word(&s, CoreId(0), a + 64, 0xDEAD).unwrap();
        let j = k.journal_take().unwrap();
        assert_eq!(j.len(), 3);
        k.rollback(&mut s, j, CoreId(0)).unwrap();
        assert_eq!(snapshot(&k, &s, a, 2 * PAGE_SIZE), before_a);
        assert_eq!(snapshot(&k, &s, b, 2 * PAGE_SIZE), before_b);
    }

    #[test]
    fn faulted_swap_records_nothing() {
        use crate::fault::{FaultConfig, FaultPlan};
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 2).unwrap();
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::transient_only(1.0, 1))));
        k.journal_begin();
        assert!(k
            .swap_va(&mut s, CoreId(0), SwapRequest { a, b, pages: 2 }, SwapVaOptions::naive())
            .is_err());
        let j = k.journal_take().unwrap();
        assert!(j.is_empty(), "a faulted request mutates nothing, journals nothing");
    }

    #[test]
    fn unmapped_swap_records_nothing() {
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let hole = a.add_pages(64);
        k.journal_begin();
        assert!(k
            .swap_va(&mut s, CoreId(0), SwapRequest { a, b: hole, pages: 2 }, SwapVaOptions::naive())
            .is_err());
        let j = k.journal_take().unwrap();
        assert!(j.is_empty() && j.words.is_empty(), "no partial pre-image survives");
    }

    #[test]
    fn empty_rollback_is_free() {
        let (mut k, mut s) = setup(16);
        k.journal_begin();
        let j = k.journal_take().unwrap();
        let (t, pages) = k.rollback(&mut s, j, CoreId(0)).unwrap();
        assert_eq!(t, Cycles::ZERO);
        assert_eq!(pages, 0);
    }

    #[test]
    fn journal_lifecycle() {
        let (mut k, _) = setup(16);
        assert!(k.journal_take().is_none());
        k.journal_begin();
        assert!(k.journal_take().is_some());
        assert!(k.journal_take().is_none(), "take stops journaling");
    }

    #[test]
    fn a_retired_log_of_any_size_is_reused() {
        // A log the size a large heap's memmove cycle journals (over
        // 16 MiB) must hand its arenas to the next cycle, not be freed.
        let (mut k, _) = setup(16);
        k.journal_begin();
        let log = k.journal.as_mut().unwrap();
        log.bytes.reserve(17 << 20);
        log.words.reserve(1 << 20);
        let (bytes, words) = (log.bytes.as_ptr(), log.words.as_ptr());
        assert!(log.footprint() > 16 << 20);
        k.journal_retire();
        k.journal_begin();
        let log = k.journal.as_ref().unwrap();
        assert_eq!((log.bytes.as_ptr(), log.words.as_ptr()), (bytes, words));
        assert!(log.is_empty() && log.bytes.is_empty());
    }

    #[test]
    fn journal_ids_are_unique_and_monotonic() {
        let (mut k, _) = setup(16);
        k.journal_begin();
        let a = k.journal_take().unwrap().id();
        k.journal_begin();
        let b = k.journal_take().unwrap().id();
        assert!(a != 0 && b != 0 && b > a);
    }

    #[test]
    fn undo_records_are_idempotent() {
        // Installing a pre-image twice lands where installing it once
        // does — the property a recovery that dies on a record and
        // re-runs it leans on.
        let (mut k, mut s) = setup(128);
        let a = k.vmem.alloc_region(&mut s, 3).unwrap();
        let b = k.vmem.alloc_region(&mut s, 3).unwrap();
        fill(&mut k, &s, a, 3, 1);
        fill(&mut k, &s, b, 3, 2);
        let before = snapshot(&k, &s, a, 3 * PAGE_SIZE);
        k.journal_begin();
        k.swap_va(&mut s, CoreId(0), SwapRequest { a, b, pages: 3 }, SwapVaOptions::naive())
            .unwrap();
        k.write_word(&s, CoreId(0), a, 9).unwrap();
        let log = k.journal_take().unwrap();
        for rec in log.records().iter().rev() {
            k.undo_op(&mut s, &log, rec).unwrap();
            k.undo_op(&mut s, &log, rec).unwrap();
        }
        assert_eq!(snapshot(&k, &s, a, 3 * PAGE_SIZE), before);
    }

    #[test]
    fn replaying_a_rollback_is_rejected_before_corrupting() {
        let (mut k, mut s) = setup(128);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 2).unwrap();
        fill(&mut k, &s, a, 2, 1);
        fill(&mut k, &s, b, 2, 2);
        let before_a = snapshot(&k, &s, a, 2 * PAGE_SIZE);
        let before_b = snapshot(&k, &s, b, 2 * PAGE_SIZE);
        k.journal_begin();
        k.swap_va(&mut s, CoreId(0), SwapRequest { a, b, pages: 2 }, SwapVaOptions::naive())
            .unwrap();
        // The log also carries a word pre-image at `a` (b's first word,
        // swapped in), which a blind replay would write back over `a`.
        k.write_word(&s, CoreId(0), a, 0xBAD).unwrap();
        let j = k.journal_take().unwrap();
        let id = j.id();
        let replay = j.clone();
        k.rollback(&mut s, j, CoreId(0)).unwrap();
        // The shootdown a rollback's caller owes: the TLB still maps `a`
        // to the frame swapped in.
        k.flush_asid_all_cores(CoreId(0), s.asid());
        assert_eq!(snapshot(&k, &s, a, 2 * PAGE_SIZE), before_a);
        assert_eq!(snapshot(&k, &s, b, 2 * PAGE_SIZE), before_b);
        // Something writes after the rollback; a second rollback would
        // clobber it with the stale word pre-image. Rejected up front,
        // with both ranges untouched.
        k.write_word(&s, CoreId(0), a, 0xF00D).unwrap();
        assert_eq!(
            k.rollback(&mut s, replay, CoreId(0)),
            Err(RollbackError::Replayed { id })
        );
        let mut expect_a = before_a;
        expect_a[..8].copy_from_slice(&0xF00Du64.to_le_bytes());
        assert_eq!(snapshot(&k, &s, a, 2 * PAGE_SIZE), expect_a);
        assert_eq!(snapshot(&k, &s, b, 2 * PAGE_SIZE), before_b);
    }

    #[test]
    fn mid_rollback_crash_aborts_the_restore() {
        use crate::fault::CrashPlan;
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.vmem.write_u64(&s, a, 1).unwrap();
        k.journal_begin();
        k.write_word(&s, CoreId(0), a, 2).unwrap();
        k.write_word(&s, CoreId(0), a + 8, 3).unwrap();
        let j = k.journal_take().unwrap();
        k.set_crash_plans(vec![CrashPlan::nth(CrashPoint::MidRollback, 2)]);
        assert_eq!(
            k.rollback(&mut s, j, CoreId(0)),
            Err(RollbackError::Crashed)
        );
        assert_eq!(k.crashed(), Some(CrashPoint::MidRollback));
    }
}
