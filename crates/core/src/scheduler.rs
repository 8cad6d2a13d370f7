//! Deterministic virtual-time simulation of parallel GC workers.
//!
//! GC phases are executed host-sequentially (the functional side effects on
//! simulated memory happen in heap order, which is what makes sliding
//! compaction safe), while *time* is attributed to N simulated workers,
//! each with its own virtual clock. [`crate::packets::PacketScheduler`]
//! decides which worker runs each piece of work and when; this module is
//! the clock model it drives.
//!
//! The phase cost is the [`WorkerPool::makespan`]: the pause ends when the
//! slowest worker finishes. Determinism is total — same inputs, same
//! simulated times, bit for bit.

use svagc_kernel::CoreId;
use svagc_metrics::Cycles;

/// Saturating clock charge shared by every charging path. Worker clocks
/// must never wrap — a wrapped clock reports a tiny makespan, which an
/// adversarial deadline/cost config could otherwise exploit. The first
/// saturation is tolerated (the clock clamps at `u64::MAX`, keeping the
/// makespan huge); charging *more* onto an already-saturated clock trips
/// the debug assert because it means the simulation has left the regime
/// where virtual time is meaningful.
#[inline]
fn charge(load: &mut u64, cost: Cycles) {
    debug_assert!(
        *load < u64::MAX || cost.get() == 0,
        "worker clock already saturated at u64::MAX; cost {} would be lost",
        cost.get()
    );
    *load = load.saturating_add(cost.get());
}

/// A pool of simulated GC workers with per-worker virtual clocks.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    loads: Vec<u64>,
    /// First core this pool's workers are pinned to (worker `w` runs on
    /// core `(base + w) % cores`). Distinct collectors sharing a machine
    /// (multi-JVM) use disjoint bases so their pinned cores never collide.
    base: usize,
}

impl WorkerPool {
    /// A pool of `n` workers (n ≥ 1).
    ///
    /// ```
    /// use svagc_core::WorkerPool;
    /// use svagc_metrics::Cycles;
    ///
    /// let mut pool = WorkerPool::new(2);
    /// pool.dispatch_to(0, Cycles(100));
    /// pool.dispatch_to(1, Cycles(40));
    /// assert_eq!(pool.makespan(), Cycles(100)); // the slowest worker
    /// assert_eq!(pool.least_loaded(2), 1);
    /// ```
    pub fn new(n: usize) -> WorkerPool {
        WorkerPool::with_core_base(n, 0)
    }

    /// A pool of `n` workers whose core pinning starts at `core_base`
    /// (worker `w` → core `(core_base + w) % cores`). Multi-tenant runs
    /// give each collector its own base so tenants' pinned cores are
    /// disjoint whenever the machine has enough cores.
    pub fn with_core_base(n: usize, core_base: usize) -> WorkerPool {
        assert!(n >= 1, "at least one GC worker");
        WorkerPool {
            loads: vec![0; n],
            base: core_base,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when the pool has no workers. The constructor rejects `n == 0`,
    /// so every constructed pool returns `false` — the method exists for
    /// the `len`/`is_empty` convention and must stay consistent with
    /// [`WorkerPool::len`] rather than hardcoding that invariant.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Worker `w`'s current virtual clock.
    pub fn load(&self, w: usize) -> Cycles {
        Cycles(self.loads[w])
    }

    /// The least-loaded of workers `0..among` — where a work-stealing
    /// pool's next item lands. Ties break to the lowest index
    /// (determinism).
    pub fn least_loaded(&self, among: usize) -> usize {
        self.loads[..among.clamp(1, self.loads.len())]
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("WorkerPool invariant: constructed with at least one worker")
    }

    /// Charge `cost` to worker `w`.
    pub fn dispatch_to(&mut self, w: usize, cost: Cycles) {
        charge(&mut self.loads[w], cost);
    }

    /// Run worker `w` from `start` (at or after its clock — the gap is the
    /// worker idling until the work was ready) for `cost` cycles.
    pub fn run_at(&mut self, w: usize, start: Cycles, cost: Cycles) {
        debug_assert!(
            start.get() >= self.loads[w],
            "work must start at or after the worker's clock"
        );
        self.loads[w] = start.get().saturating_add(cost.get());
    }

    /// The core a worker runs on: worker `w` is pinned to core
    /// `(core_base + w) mod cores`, so collectors constructed with
    /// disjoint bases (multi-JVM tenants) pin to disjoint cores whenever
    /// `cores >= tenants * threads`.
    pub fn core_of(&self, worker: usize, total_cores: usize) -> CoreId {
        CoreId((self.base + worker) % total_cores)
    }

    /// Phase wall time: the slowest worker's clock.
    pub fn makespan(&self) -> Cycles {
        Cycles(self.loads.iter().copied().max().unwrap_or(0))
    }

    /// Charge `cost` to *every* worker (an IPI stall or a per-worker local
    /// flush).
    pub fn charge_all(&mut self, cost: Cycles) {
        for l in &mut self.loads {
            charge(l, cost);
        }
    }

    /// Phase barrier: every worker waits for the slowest, and for `at`.
    pub fn join(&mut self, at: Cycles) {
        let m = self.makespan().max(at).get();
        self.loads.fill(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_balances_and_breaks_ties_low() {
        let mut p = WorkerPool::new(4);
        // 8 equal items over 4 workers: perfect balance.
        for _ in 0..8 {
            let w = p.least_loaded(4);
            p.dispatch_to(w, Cycles(10));
        }
        assert_eq!(p.makespan(), Cycles(20));
        assert_eq!(p.least_loaded(4), 0, "all tied: lowest index");
        p.dispatch_to(0, Cycles(1));
        assert_eq!(p.least_loaded(4), 1);
        assert_eq!(p.least_loaded(1), 0, "restricted to worker 0");
    }

    #[test]
    fn join_aligns_clocks() {
        let mut p = WorkerPool::new(3);
        p.dispatch_to(0, Cycles(5));
        p.dispatch_to(1, Cycles(50));
        p.join(Cycles::ZERO);
        assert!((0..3).all(|w| p.load(w) == Cycles(50)));
        // A milestone past the makespan moves every clock to it.
        p.join(Cycles(70));
        assert!((0..3).all(|w| p.load(w) == Cycles(70)));
    }

    #[test]
    fn charge_all_models_per_worker_overhead() {
        let mut p = WorkerPool::new(4);
        p.charge_all(Cycles(10));
        assert_eq!(p.makespan(), Cycles(10));
        assert!((0..4).all(|w| p.load(w) == Cycles(10)));
    }

    #[test]
    fn core_mapping_wraps() {
        let p = WorkerPool::new(8);
        assert_eq!(p.core_of(0, 4), CoreId(0));
        assert_eq!(p.core_of(5, 4), CoreId(1));
        // With a base, pinning shifts and still wraps.
        let q = WorkerPool::with_core_base(8, 3);
        assert_eq!(q.core_of(0, 4), CoreId(3));
        assert_eq!(q.core_of(1, 4), CoreId(0));
    }

    #[test]
    fn concurrent_collectors_pin_disjoint_cores() {
        // Regression: `core_of` used to ignore `&self`, pinning worker i of
        // *every* collector to core `i % cores` — multi-JVM tenants'
        // worker 0 all collided on core 0. With per-collector bases and
        // cores >= 2 * threads the two tenants' pinned sets are disjoint.
        let threads = 4;
        let cores = 2 * threads;
        let a = WorkerPool::with_core_base(threads, 0);
        let b = WorkerPool::with_core_base(threads, threads);
        let pins_a: Vec<_> = (0..threads).map(|w| a.core_of(w, cores)).collect();
        let pins_b: Vec<_> = (0..threads).map(|w| b.core_of(w, cores)).collect();
        for ca in &pins_a {
            assert!(
                !pins_b.contains(ca),
                "tenants share pinned core {ca:?}: {pins_a:?} vs {pins_b:?}"
            );
        }
    }

    #[test]
    fn clock_charges_saturate_instead_of_wrapping() {
        // Regression: unchecked `+=` let an adversarial cost wrap a worker
        // clock back to ~0 and report a tiny makespan. Every charge path
        // must clamp at u64::MAX instead.
        let near_max = Cycles(u64::MAX - 50);
        let mut p = WorkerPool::new(2);
        p.dispatch_to(0, near_max);
        p.dispatch_to(0, Cycles(100));
        assert_eq!(p.load(0), Cycles(u64::MAX));
        let mut q = WorkerPool::new(2);
        q.charge_all(near_max);
        q.charge_all(Cycles(100));
        assert_eq!(q.makespan(), Cycles(u64::MAX), "charge_all clamps");
        let mut r = WorkerPool::new(1);
        r.run_at(0, near_max, Cycles(100));
        assert_eq!(r.load(0), Cycles(u64::MAX), "run_at clamps");
    }

    #[test]
    fn run_at_advances_clock_past_idle_gaps() {
        let mut p = WorkerPool::new(2);
        // Work only ready at t=40 on an idle worker: the worker waits.
        p.run_at(0, Cycles(40), Cycles(10));
        assert_eq!(p.load(0), Cycles(50), "idle gap counts toward the clock");
        assert_eq!(p.load(1), Cycles::ZERO);
    }

    #[test]
    fn is_empty_agrees_with_len() {
        // Regression: `is_empty` used to hardcode `false` with a doc
        // comment claiming it meant "exactly one worker".
        for n in 1..5 {
            let p = WorkerPool::new(n);
            assert_eq!(p.len(), n);
            assert!(!p.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one GC worker")]
    fn zero_worker_pool_rejected() {
        let _ = WorkerPool::new(0);
    }
}
