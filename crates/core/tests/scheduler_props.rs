//! Properties of the GC schedule engine's barrier policy, checked over
//! seeded [`SimRng`] item streams: greedy (work-stealing) placement obeys
//! the classic list-scheduling bounds, round-robin placement (no
//! stealing) never beats it under head skew, and bucket joins decompose
//! the makespan into per-bucket makespans.

use svagc_core::{PacketKind, PacketScheduler, SchedulerKind};
use svagc_metrics::{Cycles, SimRng, Tracer};

/// Seeds per property.
const CASES: u64 = 64;

fn engine(n: usize, stealing: bool) -> PacketScheduler {
    PacketScheduler::new(SchedulerKind::Barrier, n, 64, 0, stealing, Cycles::ZERO)
}

/// Run one packet per item cost in the open bucket.
fn run(s: &mut PacketScheduler, items: &[u64]) {
    let mut sink = Tracer::disabled();
    for &c in items {
        let t = s.begin(PacketKind::MarkChunk, Cycles::ZERO);
        s.finish(&mut sink, t, Cycles(c), 1);
    }
}

fn items(rng: &mut SimRng, len: std::ops::Range<usize>, cost: std::ops::Range<u64>) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(cost.clone())).collect()
}

/// Greedy list scheduling is within the Graham bound:
/// `makespan <= total/n + max_item`, and at least `max(total/n,
/// max_item)` (no scheduler can beat that).
#[test]
fn greedy_obeys_graham_bounds() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x6EA4 + seed);
        let n = rng.gen_range(1usize..16);
        let items = items(&mut rng, 1..200, 1..10_000);
        let mut s = engine(n, true);
        run(&mut s, &items);
        let total: u64 = items.iter().sum();
        let max_item = *items.iter().max().unwrap();
        let makespan = s.makespan().get();
        let lower = (total / n as u64).max(max_item);
        let upper = total / n as u64 + max_item;
        assert!(
            makespan >= lower,
            "seed {seed}: makespan {makespan} < lower {lower}"
        );
        assert!(
            makespan <= upper,
            "seed {seed}: makespan {makespan} > upper {upper}"
        );
    }
}

/// On uniform items greedy and round-robin placement balance perfectly
/// and agree exactly. (List scheduling is only a 2-approximation, so
/// there is no pairwise dominance claim on arbitrary inputs.)
#[test]
fn uniform_items_balance_identically() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x0AF0 + seed);
        let n = rng.gen_range(1usize..8);
        let rounds = rng.gen_range(1usize..40);
        let cost = rng.gen_range(1u64..1000);
        let uniform = vec![cost; rounds * n];
        let (mut greedy, mut fixed) = (engine(n, true), engine(n, false));
        run(&mut greedy, &uniform);
        run(&mut fixed, &uniform);
        assert_eq!(greedy.makespan(), fixed.makespan(), "seed {seed}");
        assert_eq!(
            greedy.makespan(),
            Cycles(rounds as u64 * cost),
            "seed {seed}"
        );
    }
}

/// Under a big-item-first skew (one giant, many small), greedy stays at
/// the giant item's cost while round-robin stacks small items behind it
/// (what makes the Shenandoah copy-phase model slower under skew).
#[test]
fn static_suffers_under_head_skew() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x5CE4 + seed);
        let n = rng.gen_range(2usize..8);
        let small = items(&mut rng, 8..100, 1..100);
        let mut skewed = vec![small.iter().sum::<u64>() + 1];
        skewed.extend(&small);
        let (mut greedy, mut fixed) = (engine(n, true), engine(n, false));
        run(&mut greedy, &skewed);
        run(&mut fixed, &skewed);
        assert_eq!(greedy.makespan(), Cycles(skewed[0]), "seed {seed}");
        assert!(fixed.makespan() >= greedy.makespan(), "seed {seed}");
    }
}

/// More workers never hurt (greedy makespan is monotone in n).
#[test]
fn more_workers_never_hurt() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x3043 + seed);
        let items = items(&mut rng, 1..150, 1..10_000);
        let mut prev = u64::MAX;
        for n in [1usize, 2, 4, 8, 16] {
            let mut s = engine(n, true);
            run(&mut s, &items);
            let m = s.makespan().get();
            assert!(m <= prev, "seed {seed}, n={n}: {m} > previous {prev}");
            prev = m;
        }
    }
}

/// Bucket joins preserve total-order consistency: the next bucket opens
/// with every worker at the same clock, so the makespan decomposes as a
/// sum of bucket makespans.
#[test]
fn buckets_decompose_phases() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xB0C4 + seed);
        let phase_a = items(&mut rng, 1..50, 1..1000);
        let phase_b = items(&mut rng, 1..50, 1..1000);
        for stealing in [true, false] {
            let mut s = engine(4, stealing);
            run(&mut s, &phase_a);
            let a = s.close();
            s.open(a, 4);
            run(&mut s, &phase_b);
            let mut solo = engine(4, stealing);
            run(&mut solo, &phase_b);
            assert_eq!(
                s.close(),
                a + solo.makespan(),
                "seed {seed}, stealing {stealing}"
            );
        }
    }
}
