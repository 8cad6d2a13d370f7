//! The GC schedule engine: typed work packets in buckets, after
//! mmtk-core's `work_bucket` architecture.
//!
//! Every parallel GC phase — LISP2 mark, forward, adjust and compact, and
//! the scavenger's trace, forward, adjust and promote — is written once,
//! as **typed packets** (mark roots, mark-transitive-closure chunks,
//! forward ranges, adjust ranges, compact/SwapVA batches) run through a
//! [`PacketScheduler`]. Each phase is a **bucket**. How buckets relate in
//! virtual time is the scheduler's *bucket policy*, chosen by
//! [`SchedulerKind`]:
//!
//! * **Barrier** (the default, behind every paper figure): a bucket opens
//!   only after the previous one drains, with every worker clock joined
//!   (mmtk's `WorkBucketStage`). Packets hold one work item each — the
//!   per-object dispatch of the classic four-barrier pipeline — and land
//!   on the least-loaded worker (work stealing on) or round-robin with no
//!   stealing (off). Ready times are the bucket milestone.
//! * **Packets** (`--scheduler packets`): buckets overlap. A packet is
//!   ready when the packets it depends on complete, so workers flow across
//!   bucket boundaries wherever the dependency graph allows. Packets are
//!   chunks ([`MARK_CHUNK`] objects, [`chunk_ranges`]) placed on a
//!   round-robin owner, with deterministic [`STEAL_COST`] steals when
//!   work stealing is on.
//!
//! # Model
//!
//! Functional effects still execute host-sequentially in heap order (what
//! makes sliding compaction safe); only *time* is scheduled. Each packet
//! has an **owner** (the deterministic stand-in for "the worker that
//! generated the work"), a **ready time** and a **cost** measured by
//! running its functional effects.
//!
//! Placement is two-phase ([`PacketScheduler::begin`] then
//! [`PacketScheduler::finish`]) because the executing core must be known
//! *before* the packet's kernel accesses run (core identity feeds the TLB
//! and cache simulators), while the cost is only known *after*. Executing
//! a packet off its owner's deque is a **steal** and pays [`STEAL_COST`]
//! — the CAS + cache-line transfer of popping a remote deque — so the
//! schedule prefers locality and only migrates work when the owner's
//! backlog exceeds the steal charge.
//!
//! # Determinism
//!
//! The schedule is a pure function of the packet sequence (kinds, ready
//! times, costs): owners are assigned by a counter, placement ties break
//! owner-first then lowest-index, and all host-side execution is
//! sequential. Repeated runs — and runs under any `SVAGC_HOST_THREADS` —
//! produce bit-identical virtual-time schedules.

use crate::config::SchedulerKind;
use crate::scheduler::WorkerPool;
use svagc_kernel::CoreId;
use svagc_metrics::{Cycles, TraceKind, Tracer};

/// Cycles charged for executing a packet off its owner's deque: the
/// steal's CAS plus the cache-line transfer of the deque top. Small enough
/// that stealing wins whenever a worker is meaningfully backlogged, large
/// enough that the schedule keeps honest locality.
pub const STEAL_COST: Cycles = Cycles(24);

/// Objects per mark-transitive-closure packet under the packets policy.
/// Small chunks keep the mark bucket's load balance close to per-object
/// greedy dispatch while still modeling packet-granular handoff.
pub const MARK_CHUNK: usize = 8;

/// Range-packet count per worker for the forward/adjust/compact buckets
/// under the packets policy: each bucket is split into about
/// `CHUNKS_PER_WORKER * workers` contiguous ranges.
pub const CHUNKS_PER_WORKER: usize = 8;

/// The packet types the GC buckets are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Scan the root set and seed the mark stack.
    MarkRoots,
    /// Trace a chunk of the transitive closure.
    MarkChunk,
    /// `CALCNEWADD` over a contiguous object range.
    ForwardRange,
    /// Rewrite reference fields over a contiguous move range.
    AdjustRange,
    /// Rewrite the root slots.
    AdjustRoots,
    /// Move a contiguous run of objects (SwapVA batches + memmoves) and
    /// clear its destinations' forwarding words.
    CompactBatch,
    /// A minor-collection work chunk (the scavenger's buckets are
    /// per-phase and coarser).
    MinorChunk,
    /// Demote a batch of cold pages to the far-memory tier (writeback +
    /// verify + residency record per page), piggybacked on the end of a
    /// GC cycle.
    DemoteBatch,
}

impl PacketKind {
    /// Short name for trace args and logs.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::MarkRoots => "mark-roots",
            PacketKind::MarkChunk => "mark-chunk",
            PacketKind::ForwardRange => "forward-range",
            PacketKind::AdjustRange => "adjust-range",
            PacketKind::AdjustRoots => "adjust-roots",
            PacketKind::CompactBatch => "compact-batch",
            PacketKind::MinorChunk => "minor-chunk",
            PacketKind::DemoteBatch => "demote-batch",
        }
    }

    /// Stable numeric id (trace args are `u64`).
    pub fn id(self) -> u64 {
        match self {
            PacketKind::MarkRoots => 0,
            PacketKind::MarkChunk => 1,
            PacketKind::ForwardRange => 2,
            PacketKind::AdjustRange => 3,
            PacketKind::AdjustRoots => 4,
            PacketKind::CompactBatch => 5,
            PacketKind::MinorChunk => 6,
            // 7 belonged to a retired kind; ids stay stable so trace
            // output does not move.
            PacketKind::DemoteBatch => 8,
        }
    }
}

/// A packet mid-execution: placement chosen, cost not yet known.
#[derive(Debug, Clone, Copy)]
pub struct PacketTicket {
    /// The packet's type.
    pub kind: PacketKind,
    /// Worker the packet executes on.
    pub worker: usize,
    /// Virtual time the packet starts: `max(worker clock, ready time)`,
    /// plus the steal charge when executed off-owner.
    pub start: Cycles,
    /// True when the executing worker is not the packet's owner.
    pub stolen: bool,
    /// IPI interference this packet's shootdowns pushed onto the other
    /// cores, stalling every worker when the packet finishes.
    stall: Cycles,
}

impl PacketTicket {
    /// Record IPI interference caused by this packet (see
    /// [`PacketScheduler::finish`]).
    pub fn stall(&mut self, interference: Cycles) {
        self.stall += interference;
    }
}

/// `gc.sched.*` counters for one cycle's schedule (packets policy only:
/// the barrier policy's one-item packets are the per-object dispatch of a
/// phase pipeline and are neither counted nor traced).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Packets executed.
    pub packets: u64,
    /// Packets executed off their owner's deque.
    pub steals: u64,
    /// Total steal charges paid (cycles).
    pub steal_cycles: u64,
}

/// The schedule engine: a [`WorkerPool`] driven by a bucket policy, with
/// deterministic owner assignment and steal accounting.
#[derive(Debug)]
pub struct PacketScheduler {
    pool: WorkerPool,
    cores: usize,
    policy: SchedulerKind,
    stealing: bool,
    /// The open bucket runs on workers `0..active`.
    active: usize,
    /// Virtual time the open bucket opened at.
    opened: Cycles,
    /// Round-robin owner cursor.
    next_owner: usize,
    /// Trace-timeline position of virtual time zero (packet spans).
    trace_base: Cycles,
    /// Schedule counters, drained into [`crate::GcCycleStats`].
    pub stats: SchedStats,
}

impl PacketScheduler {
    /// An engine over `workers` workers on a `cores`-core machine, pinned
    /// starting at `core_base` (see [`WorkerPool::with_core_base`]). The
    /// first bucket is open at time zero on every worker; packet spans are
    /// traced relative to `trace_base`.
    pub fn new(
        policy: SchedulerKind,
        workers: usize,
        cores: usize,
        core_base: usize,
        stealing: bool,
        trace_base: Cycles,
    ) -> PacketScheduler {
        PacketScheduler {
            pool: WorkerPool::with_core_base(workers, core_base),
            cores,
            policy,
            stealing,
            active: workers,
            opened: Cycles::ZERO,
            next_owner: 0,
            trace_base,
            stats: SchedStats::default(),
        }
    }

    /// Do buckets overlap in virtual time? True under the packets policy:
    /// ready times are dependency completions (so callers track the
    /// dependencies), and work from different buckets may run at once (so
    /// per-packet state, such as a SwapVA batch, cannot outlive its
    /// packet). False under the barrier policy, where every bucket runs
    /// alone between two joins.
    pub fn overlaps(&self) -> bool {
        self.policy == SchedulerKind::Packets
    }

    /// Open the next bucket at milestone `at` on workers `0..workers`.
    /// The barrier policy joins every worker clock at `max(makespan, at)`
    /// and rewinds the round-robin cursor, so a bucket's schedule depends
    /// only on its own packets.
    pub fn open(&mut self, at: Cycles, workers: usize) {
        self.active = workers.clamp(1, self.pool.len());
        self.opened = at;
        if !self.overlaps() {
            self.pool.join(at);
            self.next_owner = 0;
        }
    }

    /// The open bucket's milestone so far: when its last packet (and
    /// every earlier one) has finished.
    pub fn close(&self) -> Cycles {
        self.opened.max(self.pool.makespan())
    }

    /// Objects per mark packet: one under the barrier policy (LIFO
    /// per-object marking), [`MARK_CHUNK`] under packets.
    pub fn mark_chunk(&self) -> usize {
        if self.overlaps() {
            MARK_CHUNK
        } else {
            1
        }
    }

    /// The open bucket's packet partition of `len` items as `[start,
    /// end)` ranges. Under the barrier policy each item that `has_work`
    /// is its own packet; under packets the items are cut into
    /// [`chunk_ranges`] over the bucket's workers (items without work
    /// ride along in their chunk).
    pub fn ranges<'a>(
        &self,
        len: usize,
        has_work: impl Fn(usize) -> bool + 'a,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let (items, chunks) = if self.overlaps() {
            (None, Some(chunk_ranges(len, self.active)))
        } else {
            (
                Some((0..len).filter(move |&i| has_work(i)).map(|i| (i, i + 1))),
                None,
            )
        };
        items
            .into_iter()
            .flatten()
            .chain(chunks.into_iter().flatten())
    }

    /// Create a packet that becomes ready at `ready` and place it: the
    /// ticket carries the executing worker and start time. Run the
    /// packet's functional effects on [`Self::core`] of the ticket, then
    /// [`Self::finish`] it with the measured cost.
    pub fn begin(&mut self, kind: PacketKind, ready: Cycles) -> PacketTicket {
        let n = self.active;
        if !self.overlaps() && self.stealing {
            return self.ticket(kind, self.pool.least_loaded(n));
        }
        let owner = self.next_owner % n;
        self.next_owner = owner + 1;
        if !self.overlaps() {
            return self.ticket(kind, owner);
        }
        let candidates = if self.stealing {
            0..n
        } else {
            owner..owner + 1
        };
        let (worker, start, stolen) = candidates
            .map(|w| {
                let at = self.pool.load(w).max(ready);
                if w == owner {
                    (w, at, false)
                } else {
                    (w, Cycles(at.get().saturating_add(STEAL_COST.get())), true)
                }
            })
            .min_by_key(|&(w, start, stolen)| (start, stolen, w))
            .expect("a bucket runs on at least one worker");
        PacketTicket {
            kind,
            worker,
            start,
            stolen,
            stall: Cycles::ZERO,
        }
    }

    /// Begin a packet of the VM thread (root scanning): the barrier
    /// policy runs it on worker 0; packets place it like any other.
    pub fn begin_vm(&mut self, kind: PacketKind, ready: Cycles) -> PacketTicket {
        if self.overlaps() {
            self.begin(kind, ready)
        } else {
            self.ticket(kind, 0)
        }
    }

    /// Begin a packet on the least-loaded worker, whatever the stealing
    /// setting: the barrier pipeline's shared tail work (the last SwapVA
    /// batch and the forwarding-word clears after a compact bucket).
    pub fn begin_any(&mut self, kind: PacketKind) -> PacketTicket {
        self.ticket(kind, self.pool.least_loaded(self.active))
    }

    /// An owner-run ticket starting at `worker`'s clock.
    fn ticket(&self, kind: PacketKind, worker: usize) -> PacketTicket {
        PacketTicket {
            kind,
            worker,
            start: self.pool.load(worker),
            stolen: false,
            stall: Cycles::ZERO,
        }
    }

    /// The machine core a ticket's packet executes on.
    pub fn core(&self, t: &PacketTicket) -> CoreId {
        self.core_of(t.worker)
    }

    /// The machine core worker `w` is pinned to.
    pub fn core_of(&self, w: usize) -> CoreId {
        self.pool.core_of(w, self.cores)
    }

    /// The cores of the open bucket's workers.
    pub fn bucket_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.active).map(|w| self.core_of(w))
    }

    /// How far into the open bucket a running packet has got after `cost`
    /// cycles — what a mid-bucket watchdog check measures. Barrier: the
    /// bucket's makespan so far (plus the packet's pending stall) and the
    /// packet's cost. Packets: the packet's end relative to the opening.
    pub fn elapsed(&self, t: &PacketTicket, cost: Cycles) -> Cycles {
        if self.overlaps() {
            (t.start + cost).saturating_sub(self.opened)
        } else {
            self.pool.makespan().saturating_sub(self.opened) + self.stall_share(t.stall) + cost
        }
    }

    /// Per-worker share of `interference` cycles spread over the other
    /// cores (each worker core absorbs its share of the IPI handling).
    fn stall_share(&self, interference: Cycles) -> Cycles {
        interference / (self.cores as u64 - 1).max(1)
    }

    /// Commit a packet's measured cost: its worker runs from the ticket's
    /// start for `cost` cycles, then its IPI stall (if any) is charged to
    /// every worker. Returns the completion time (dependents' ready time).
    /// Under the packets policy the packet is counted and traced on its
    /// core's lane; `items` is its work-item count.
    pub fn finish(
        &mut self,
        trace: &mut Tracer,
        t: PacketTicket,
        cost: Cycles,
        items: u64,
    ) -> Cycles {
        self.pool.run_at(t.worker, t.start, cost);
        if t.stall.get() > 0 {
            self.pool.charge_all(self.stall_share(t.stall));
        }
        if self.overlaps() {
            self.stats.packets += 1;
            if t.stolen {
                self.stats.steals += 1;
                self.stats.steal_cycles += STEAL_COST.get();
            }
            trace.span_abs(
                TraceKind::Packet,
                self.trace_base + t.start,
                cost,
                self.core(&t).0 as u32,
                &[
                    ("kind", t.kind.id()),
                    ("worker", t.worker as u64),
                    ("stolen", u64::from(t.stolen)),
                    ("items", items),
                ],
            );
        }
        t.start + cost
    }

    /// Schedule makespan so far: the slowest worker's clock.
    pub fn makespan(&self) -> Cycles {
        self.pool.makespan()
    }

    /// Charge every worker (a per-worker local flush).
    pub fn charge_all(&mut self, cost: Cycles) {
        self.pool.charge_all(cost);
    }

    /// Charge a global synchronization point (pinning, a broadcast
    /// shootdown): the barrier policy's VM thread (worker 0) performs it,
    /// under packets every worker stalls for it.
    pub fn sync(&mut self, cost: Cycles) {
        if self.overlaps() {
            self.pool.charge_all(cost);
        } else {
            self.pool.dispatch_to(0, cost);
        }
    }
}

/// Split `len` items into about `CHUNKS_PER_WORKER * workers` contiguous
/// `[start, end)` ranges of near-equal size (the packets policy's
/// forward/adjust/compact partition). Deterministic; never yields an
/// empty range.
pub fn chunk_ranges(len: usize, workers: usize) -> impl Iterator<Item = (usize, usize)> {
    let chunks = (CHUNKS_PER_WORKER * workers.max(1)).min(len);
    let (base, extra) = (len / chunks.max(1), len % chunks.max(1));
    (0..chunks).map(move |i| {
        let start = i * base + i.min(extra);
        (start, start + base + usize::from(i < extra))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(policy: SchedulerKind, workers: usize, stealing: bool) -> PacketScheduler {
        PacketScheduler::new(policy, workers, 8, 0, stealing, Cycles::ZERO)
    }

    #[test]
    fn chunks_cover_exactly() {
        for len in [0usize, 1, 5, 17, 100, 1000] {
            for workers in [1usize, 2, 4, 8] {
                let r: Vec<_> = chunk_ranges(len, workers).collect();
                let mut pos = 0;
                for &(s, e) in &r {
                    assert_eq!(s, pos, "contiguous");
                    assert!(e > s, "non-empty range");
                    pos = e;
                }
                assert_eq!(pos, len, "covers all items");
                assert!(r.len() <= CHUNKS_PER_WORKER * workers);
            }
        }
    }

    #[test]
    fn owners_rotate_deterministically() {
        let mut a = engine(SchedulerKind::Packets, 3, true);
        let mut b = engine(SchedulerKind::Packets, 3, true);
        let mut sink = Tracer::disabled();
        for i in 0..20u64 {
            let ta = a.begin(PacketKind::MarkChunk, Cycles::ZERO);
            let tb = b.begin(PacketKind::MarkChunk, Cycles::ZERO);
            assert_eq!(
                (ta.worker, ta.start, ta.stolen),
                (tb.worker, tb.start, tb.stolen)
            );
            let cost = Cycles(1 + (i * 7919) % 97);
            assert_eq!(
                a.finish(&mut sink, ta, cost, 1),
                b.finish(&mut sink, tb, cost, 1)
            );
        }
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.stats.packets, 20);
        assert_eq!(a.stats.steals, b.stats.steals);
    }

    #[test]
    fn skewed_packets_get_stolen() {
        // One worker's deque fills with huge packets; the others steal.
        let mut s = engine(SchedulerKind::Packets, 2, true);
        let mut sink = Tracer::disabled();
        for i in 0..10u64 {
            let cost = if i % 2 == 0 { Cycles(1000) } else { Cycles(10) };
            let t = s.begin(PacketKind::CompactBatch, Cycles::ZERO);
            s.finish(&mut sink, t, cost, 1);
        }
        assert!(s.stats.steals > 0, "skew must trigger steals");
        // Stealing bounds the makespan well below serializing the bigs.
        assert!(s.makespan() < Cycles(5000));
        assert_eq!(
            s.stats.steal_cycles,
            s.stats.steals * STEAL_COST.get(),
            "every steal pays exactly one charge"
        );
    }

    #[test]
    fn stealing_off_keeps_every_packet_home() {
        let mut s = engine(SchedulerKind::Packets, 2, false);
        let mut sink = Tracer::disabled();
        for i in 0..10u64 {
            let cost = if i % 2 == 0 { Cycles(1000) } else { Cycles(10) };
            let t = s.begin(PacketKind::CompactBatch, Cycles::ZERO);
            assert_eq!(t.worker, (i % 2) as usize, "owner runs it");
            s.finish(&mut sink, t, cost, 1);
        }
        assert_eq!(s.stats.steals, 0);
        assert_eq!(s.makespan(), Cycles(5000), "skew is not rebalanced");
    }

    #[test]
    fn ready_times_defer_dependents() {
        let mut s = engine(SchedulerKind::Packets, 2, true);
        let mut sink = Tracer::disabled();
        let t = s.begin(PacketKind::MarkRoots, Cycles::ZERO);
        let done = s.finish(&mut sink, t, Cycles(100), 0);
        assert_eq!(done, Cycles(100));
        // A dependent packet cannot start before its dependency resolves,
        // even on the idle worker.
        let t2 = s.begin(PacketKind::MarkChunk, done);
        assert!(t2.start >= done);
    }

    #[test]
    fn barrier_buckets_join_and_ignore_ready_times() {
        let mut s = engine(SchedulerKind::Barrier, 2, true);
        let mut sink = Tracer::disabled();
        let t = s.begin(PacketKind::MarkChunk, Cycles::ZERO);
        s.finish(&mut sink, t, Cycles(100), 1);
        // Least-loaded: the idle worker takes the next packet at once,
        // whatever its nominal ready time.
        let t = s.begin(PacketKind::MarkChunk, Cycles(100));
        assert_eq!((t.worker, t.start), (1, Cycles::ZERO));
        s.finish(&mut sink, t, Cycles(30), 1);
        assert_eq!(s.close(), Cycles(100));
        s.open(s.close(), 1);
        let t = s.begin(PacketKind::ForwardRange, Cycles::ZERO);
        assert_eq!(
            (t.worker, t.start),
            (0, Cycles(100)),
            "joined at the milestone"
        );
        assert_eq!(s.stats.packets, 0, "barrier packets are not counted");
    }

    #[test]
    fn barrier_static_dispatch_rewinds_per_bucket() {
        let mut s = engine(SchedulerKind::Barrier, 3, false);
        let mut sink = Tracer::disabled();
        for _ in 0..4 {
            let t = s.begin(PacketKind::MarkChunk, Cycles::ZERO);
            s.finish(&mut sink, t, Cycles(5), 1);
        }
        s.open(s.close(), 3);
        let owners: Vec<usize> = (0..4)
            .map(|_| {
                let t = s.begin(PacketKind::ForwardRange, Cycles::ZERO);
                s.finish(&mut sink, t, Cycles(1), 1);
                t.worker
            })
            .collect();
        assert_eq!(owners, [0, 1, 2, 0], "round-robin restarts at worker 0");
    }

    #[test]
    fn granularity_follows_the_policy() {
        let barrier = engine(SchedulerKind::Barrier, 2, true);
        let items: Vec<_> = barrier.ranges(5, |i| i != 2).collect();
        assert_eq!(
            items,
            [(0, 1), (1, 2), (3, 4), (4, 5)],
            "one packet per item with work"
        );
        assert_eq!(barrier.mark_chunk(), 1);
        let packets = engine(SchedulerKind::Packets, 2, true);
        let chunks: Vec<_> = packets.ranges(5, |i| i != 2).collect();
        assert_eq!(chunks, chunk_ranges(5, 2).collect::<Vec<_>>());
        assert_eq!(packets.mark_chunk(), MARK_CHUNK);
    }

    #[test]
    fn core_pinning_respects_base() {
        let s = PacketScheduler::new(SchedulerKind::Packets, 2, 8, 4, true, Cycles::ZERO);
        assert_eq!(s.core_of(1), CoreId(5));
        assert_eq!(s.bucket_cores().collect::<Vec<_>>(), [CoreId(4), CoreId(5)]);
    }
}
