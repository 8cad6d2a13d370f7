//! Property tests of the measurement substrate: cache replacement laws
//! and perf-counter algebra.
//!
//! Offline std-only: every property draws its inputs from the
//! deterministic `SimRng` (splitmix64), one seeded stream per property,
//! so every failure reproduces from the printed case number.

use svagc_metrics::{PerfCounters, SetAssocCache, SimRng};

/// Cases drawn per property.
const CASES: u64 = 256;

/// Run `property` on [`CASES`] cases drawn from one stream seeded with
/// `seed`.
fn for_cases(seed: u64, mut property: impl FnMut(u64, &mut SimRng)) {
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..CASES {
        property(case, &mut rng);
    }
}

/// A fully-associative-equivalent cache with capacity C lines never
/// misses on a working set of at most C distinct lines (after the cold
/// pass) — LRU's basic guarantee.
#[test]
fn lru_retains_small_working_sets() {
    for_cases(0x12C_0001, |case, rng| {
        let distinct = rng.gen_range(1..16usize);
        let accesses: Vec<usize> = (0..rng.gen_range(1..300usize))
            .map(|_| rng.gen_range(0..16usize))
            .collect();
        // 16 lines of capacity in one set (16-way, one set).
        let mut c = SetAssocCache::new(16 * 64, 16, 64);
        let lines: Vec<u64> = (0..distinct as u64).map(|i| i * 64).collect();
        // Cold pass.
        for &l in &lines {
            c.access(l);
        }
        c.reset_stats();
        for &a in &accesses {
            c.access(lines[a % distinct]);
        }
        let (_, misses) = c.stats();
        assert_eq!(
            misses, 0,
            "case {case}: working set of {distinct} fits: no misses allowed"
        );
    });
}

/// Inclusion monotonicity: a bigger cache of the same shape never has
/// more misses on the same trace.
#[test]
fn bigger_cache_never_misses_more() {
    for_cases(0xB16_0002, |case, rng| {
        let trace: Vec<u64> = (0..rng.gen_range(1..400usize))
            .map(|_| rng.gen_range(0..256u64))
            .collect();
        let mut small = SetAssocCache::new(8 * 64, 8, 64); // 8 lines, 1 set
        let mut big = SetAssocCache::new(32 * 64, 32, 64); // 32 lines, 1 set
        for &t in &trace {
            small.access(t * 64);
            big.access(t * 64);
        }
        let (_, m_small) = small.stats();
        let (_, m_big) = big.stats();
        assert!(
            m_big <= m_small,
            "case {case}: big {m_big} vs small {m_small}"
        );
    });
}

/// Counter algebra: (a + b) - b == a for arbitrary counters.
#[test]
fn perf_counter_algebra() {
    for_cases(0xA16_0003, |case, rng| {
        let vals: Vec<u64> = (0..16).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let build = |off: usize| {
            let mut c = PerfCounters::new();
            c.syscalls = vals[off % 16];
            c.pte_swaps = vals[(off + 1) % 16];
            c.bytes_copied = vals[(off + 2) % 16];
            c.tlb_lookups = vals[(off + 3) % 16];
            c.tlb_misses = vals[(off + 4) % 16].min(c.tlb_lookups);
            c.ipis_sent = vals[(off + 5) % 16];
            c.cache_references = vals[(off + 6) % 16];
            c.cache_misses = vals[(off + 7) % 16].min(c.cache_references);
            c
        };
        let a = build(0);
        let b = build(5);
        assert_eq!((a + b) - b, a, "case {case}");
        let mut m = PerfCounters::new();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m, a + b, "case {case}");
    });
}
