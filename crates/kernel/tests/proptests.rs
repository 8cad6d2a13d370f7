//! Property tests of SwapVA: content exchange for arbitrary disjoint
//! ranges, move semantics for arbitrary overlaps, aggregation equivalence,
//! and memmove correctness under arbitrary overlap.
//!
//! Offline std-only: every property draws its inputs from the
//! deterministic `SimRng` (splitmix64), one seeded stream per property,
//! so every failure reproduces from the printed case number.

use svagc_kernel::{CoreId, Kernel, SwapRequest, SwapVaOptions};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{AddressSpace, Asid, VirtAddr};

const CORE: CoreId = CoreId(0);

/// Cases drawn per property.
const CASES: u64 = 64;

fn setup(frames: u32) -> (Kernel, AddressSpace) {
    (
        Kernel::new(MachineConfig::i5_7600(), frames),
        AddressSpace::new(Asid(1)),
    )
}

fn stamp_pages(k: &mut Kernel, s: &AddressSpace, base: VirtAddr, pages: u64, tag: u64) {
    for i in 0..pages {
        k.vmem.write_u64(s, base.add_pages(i), tag + i).unwrap();
    }
}

/// Run `property` on [`CASES`] cases, each with its own rng drawn from
/// the property's seed.
fn for_cases(seed: u64, mut property: impl FnMut(u64, &mut SimRng)) {
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..CASES {
        property(case, &mut rng);
    }
}

/// Disjoint swap exchanges page contents exactly, for any size.
#[test]
fn disjoint_swap_exchanges() {
    for_cases(0xD15_0001, |case, rng| {
        let pages = rng.gen_range(1..50u64);
        let (mut k, mut s) = setup(2 * 50 + 8);
        let a = k.vmem.alloc_region(&mut s, pages).unwrap();
        let b = k.vmem.alloc_region(&mut s, pages).unwrap();
        stamp_pages(&mut k, &s, a, pages, 1_000);
        stamp_pages(&mut k, &s, b, pages, 9_000);
        let req = SwapRequest { a, b, pages };
        k.swap_va(&mut s, CORE, req, SwapVaOptions::naive()).unwrap();
        for i in 0..pages {
            assert_eq!(k.vmem.read_u64(&s, a.add_pages(i)).unwrap(), 9_000 + i, "case {case}");
            assert_eq!(k.vmem.read_u64(&s, b.add_pages(i)).unwrap(), 1_000 + i, "case {case}");
        }
        assert_eq!(k.perf.bytes_copied, 0, "case {case}");
    });
}

/// Overlap rotation: for any (n, delta) with 0 < delta < n, the lower
/// range receives exactly the old upper range, and the window remains
/// a permutation of its original frames.
#[test]
fn overlap_rotation_moves() {
    for_cases(0x0E1_0002, |case, rng| {
        let n = rng.gen_range(2..48u64);
        let delta_frac = rng.gen_range(0.01..0.99f64);
        let delta = ((n as f64 * delta_frac) as u64).clamp(1, n - 1);
        let window = n + delta;
        let (mut k, mut s) = setup((window + 8) as u32);
        let base = k.vmem.alloc_region(&mut s, window).unwrap();
        stamp_pages(&mut k, &s, base, window, 500);
        let req = SwapRequest { a: base, b: base.add_pages(delta), pages: n };
        assert!(req.overlaps(), "case {case}");
        k.swap_va(&mut s, CORE, req, SwapVaOptions::naive()).unwrap();
        // Move semantics: lower n pages = old upper n pages.
        for i in 0..n {
            assert_eq!(
                k.vmem.read_u64(&s, base.add_pages(i)).unwrap(),
                500 + delta + i,
                "case {case}: n={n}, delta={delta}"
            );
        }
        // Permutation: all original stamps present exactly once.
        let mut seen: Vec<u64> = (0..window)
            .map(|i| k.vmem.read_u64(&s, base.add_pages(i)).unwrap())
            .collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..window).map(|i| 500 + i).collect();
        assert_eq!(seen, expect, "case {case}");
        // O(n + delta) PTE writes.
        assert_eq!(k.perf.pte_swaps, window, "case {case}");
    });
}

/// A batch call is functionally identical to issuing its requests one
/// by one (and cheaper).
#[test]
fn aggregation_equivalence() {
    for_cases(0xA66_0003, |case, rng| {
        let sizes: Vec<u64> = (0..rng.gen_range(1..12usize))
            .map(|_| rng.gen_range(1..6u64))
            .collect();
        let total: u64 = sizes.iter().sum();
        let (mut k1, mut s1) = setup((2 * total + 8) as u32);
        let (mut k2, mut s2) = setup((2 * total + 8) as u32);
        let mut reqs1 = Vec::new();
        let mut reqs2 = Vec::new();
        for (idx, &pages) in sizes.iter().enumerate() {
            let a1 = k1.vmem.alloc_region(&mut s1, pages).unwrap();
            let b1 = k1.vmem.alloc_region(&mut s1, pages).unwrap();
            let a2 = k2.vmem.alloc_region(&mut s2, pages).unwrap();
            let b2 = k2.vmem.alloc_region(&mut s2, pages).unwrap();
            assert_eq!(a1, a2, "case {case}");
            stamp_pages(&mut k1, &s1, a1, pages, idx as u64 * 100);
            stamp_pages(&mut k2, &s2, a2, pages, idx as u64 * 100);
            reqs1.push(SwapRequest { a: a1, b: b1, pages });
            reqs2.push(SwapRequest { a: a2, b: b2, pages });
        }
        let opts = SwapVaOptions::pinned();
        let mut separated = svagc_metrics::Cycles::ZERO;
        for r in &reqs1 {
            separated += k1.swap_va(&mut s1, CORE, *r, opts).unwrap().0;
        }
        let (aggregated, _) = k2.swap_va_batch(&mut s2, CORE, &reqs2, opts).unwrap();
        // Same final memory contents.
        for (idx, r) in reqs1.iter().enumerate() {
            for i in 0..r.pages {
                let v1 = k1.vmem.read_u64(&s1, r.b.add_pages(i)).unwrap();
                let v2 = k2.vmem.read_u64(&s2, reqs2[idx].b.add_pages(i)).unwrap();
                assert_eq!(v1, v2, "case {case}");
            }
        }
        // Aggregation saves (n-1) syscall entries.
        let saved = separated.get() as i64 - aggregated.get() as i64;
        let expected = (reqs1.len() as i64 - 1)
            * (k1.machine.costs.syscall_entry_exit + k1.machine.costs.tlb_flush_local) as i64;
        assert_eq!(saved, expected, "case {case}: sizes {sizes:?}");
    });
}

/// memmove is byte-exact for any length and any (possibly
/// overlapping) src/dst offsets.
#[test]
fn memmove_byte_exact() {
    for_cases(0x3E3_0004, |case, rng| {
        let len = rng.gen_range(1..20_000u64);
        let src_off = rng.gen_range(0..8_000u64);
        let dst_off = rng.gen_range(0..8_000u64);
        let (mut k, mut s) = setup(64);
        let region = k.vmem.alloc_region(&mut s, 8).unwrap();
        let len = len.min(8 * 4096 - src_off.max(dst_off));
        let data: Vec<u8> = (0..len).map(|x| (x * 31 % 251) as u8).collect();
        k.vmem.write_bytes(&s, region + src_off, &data).unwrap();
        k.memmove(&s, CORE, region + src_off, region + dst_off, len).unwrap();
        let mut out = vec![0u8; len as usize];
        k.vmem.read_bytes(&s, region + dst_off, &mut out).unwrap();
        assert_eq!(out, data, "case {case}: len={len}, src={src_off}, dst={dst_off}");
    });
}

/// Disjoint swap is an involution (overlap is a *move*, so this law
/// applies only to disjoint pairs).
#[test]
fn disjoint_swap_is_involutive() {
    for_cases(0x1E0_0005, |case, rng| {
        let pages = rng.gen_range(1..30u64);
        let (mut k, mut s) = setup(2 * 30 + 8);
        let a = k.vmem.alloc_region(&mut s, pages).unwrap();
        let b = k.vmem.alloc_region(&mut s, pages).unwrap();
        stamp_pages(&mut k, &s, a, pages, 111);
        stamp_pages(&mut k, &s, b, pages, 777);
        let req = SwapRequest { a, b, pages };
        k.swap_va(&mut s, CORE, req, SwapVaOptions::pinned()).unwrap();
        k.swap_va(&mut s, CORE, req, SwapVaOptions::pinned()).unwrap();
        for i in 0..pages {
            assert_eq!(k.vmem.read_u64(&s, a.add_pages(i)).unwrap(), 111 + i, "case {case}");
            assert_eq!(k.vmem.read_u64(&s, b.add_pages(i)).unwrap(), 777 + i, "case {case}");
        }
    });
}

/// Deterministic edge cases that random sampling is unlikely to hit.
mod edges {
    use super::*;
    use svagc_vmem::{FrameId, Pte, PteFlags};

    /// Ranges in different PGD subtrees (512 GiB apart): the walk crosses
    /// every table level and the PMD caches never help across operands.
    #[test]
    fn swap_across_pgd_subtrees() {
        let (mut k, mut s) = setup(64);
        // Map 4 pages at two far-apart canonical addresses by hand.
        let a = VirtAddr(1u64 << 39);
        let b = VirtAddr(3u64 << 39);
        for i in 0..4u64 {
            let fa = k.vmem.frames.alloc().unwrap();
            let fb = k.vmem.frames.alloc().unwrap();
            s.page_table_mut()
                .map(a.add_pages(i), Pte::map(fa, PteFlags::WRITABLE))
                .unwrap();
            s.page_table_mut()
                .map(b.add_pages(i), Pte::map(fb, PteFlags::WRITABLE))
                .unwrap();
            k.vmem.write_u64(&s, a.add_pages(i), 100 + i).unwrap();
            k.vmem.write_u64(&s, b.add_pages(i), 200 + i).unwrap();
        }
        let req = SwapRequest { a, b, pages: 4 };
        assert!(!req.overlaps());
        k.swap_va(&mut s, CORE, req, SwapVaOptions::naive()).unwrap();
        for i in 0..4u64 {
            assert_eq!(k.vmem.read_u64(&s, a.add_pages(i)).unwrap(), 200 + i);
            assert_eq!(k.vmem.read_u64(&s, b.add_pages(i)).unwrap(), 100 + i);
        }
        // Four PUD+PMD+PTE table triples were materialized (2 subtrees x
        // 1 chain each for a and b within one PGD entry each).
        assert!(s.page_table().tables_allocated() >= 6);
    }

    /// The fully-unoptimized configuration (no PMD cache, no overlap
    /// support, global flushes) still swaps disjoint ranges correctly and
    /// costs strictly more than the optimized one.
    #[test]
    fn unoptimized_is_correct_and_slower() {
        let (mut k1, mut s1) = setup(2 * 64 + 8);
        let a1 = k1.vmem.alloc_region(&mut s1, 64).unwrap();
        let b1 = k1.vmem.alloc_region(&mut s1, 64).unwrap();
        stamp_pages(&mut k1, &s1, a1, 64, 10);
        let req1 = SwapRequest { a: a1, b: b1, pages: 64 };
        let (slow, _) = k1
            .swap_va(&mut s1, CORE, req1, SwapVaOptions::unoptimized())
            .unwrap();
        for i in 0..64 {
            assert_eq!(k1.vmem.read_u64(&s1, b1.add_pages(i)).unwrap(), 10 + i);
        }

        let (mut k2, mut s2) = setup(2 * 64 + 8);
        let a2 = k2.vmem.alloc_region(&mut s2, 64).unwrap();
        let b2 = k2.vmem.alloc_region(&mut s2, 64).unwrap();
        let req2 = SwapRequest { a: a2, b: b2, pages: 64 };
        let (fast, _) = k2
            .swap_va(&mut s2, CORE, req2, SwapVaOptions::pinned())
            .unwrap();
        assert!(slow.get() > fast.get(), "unopt {slow} vs opt {fast}");
    }

    /// A swap over a range that straddles a PMD boundary (the 512-page
    /// line): the per-operand PMD cache must miss exactly once more.
    #[test]
    fn swap_straddling_pmd_boundary() {
        let (mut k, mut s) = setup(3000);
        // Allocate 600 pages so the range crosses one 2 MiB boundary.
        let a = k.vmem.alloc_region(&mut s, 600).unwrap();
        let b = k.vmem.alloc_region(&mut s, 600).unwrap();
        stamp_pages(&mut k, &s, a, 600, 5_000);
        stamp_pages(&mut k, &s, b, 600, 9_000);
        let req = SwapRequest { a, b, pages: 600 };
        k.swap_va(&mut s, CORE, req, SwapVaOptions::pinned()).unwrap();
        for i in (0..600).step_by(97) {
            assert_eq!(k.vmem.read_u64(&s, a.add_pages(i)).unwrap(), 9_000 + i);
            assert_eq!(k.vmem.read_u64(&s, b.add_pages(i)).unwrap(), 5_000 + i);
        }
        // Each operand: 600 walks, of which at most a handful are full
        // (one per PTE-table crossed), the rest PMD-cache hits.
        assert!(k.perf.pmd_cache_hits >= 2 * (600 - 4));
    }

    /// FrameId::default and Pte raw-roundtrip interplay under swaps of the
    /// zero frame (frame 0 is a valid frame, not a sentinel).
    #[test]
    fn frame_zero_is_swappable() {
        let (mut k, mut s) = setup(8);
        // The first region gets frame 0.
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        let b = k.vmem.alloc_region(&mut s, 1).unwrap();
        assert_eq!(s.page_table().pte(a).unwrap().frame(), FrameId(0));
        k.vmem.write_u64(&s, a, 0xF0).unwrap();
        k.vmem.write_u64(&s, b, 0xF1).unwrap();
        let req = SwapRequest { a, b, pages: 1 };
        k.swap_va(&mut s, CORE, req, SwapVaOptions::naive()).unwrap();
        assert_eq!(s.page_table().pte(b).unwrap().frame(), FrameId(0));
        assert_eq!(k.vmem.read_u64(&s, a).unwrap(), 0xF1);
        assert_eq!(k.vmem.read_u64(&s, b).unwrap(), 0xF0);
    }
}
