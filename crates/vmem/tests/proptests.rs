//! Property tests: the page table against a model, and PTE swapping as a
//! permutation of the mapping.
//!
//! Offline std-only: every property draws its inputs from the
//! deterministic `SimRng` (splitmix64), one seeded stream per property,
//! so every failure reproduces from the printed case number.

use std::collections::HashMap;
use svagc_metrics::SimRng;
use svagc_vmem::{FrameId, PageTable, Pte, PteFlags, VirtAddr, VmError};

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

/// Random-but-valid virtual page addresses across several table subtrees:
/// a few PGD/PUD/PMD indices and any PTE index.
fn arb_va(rng: &mut SimRng) -> VirtAddr {
    let pgd = rng.gen_range(0..4u64);
    let pud = rng.gen_range(0..4u64);
    let pmd = rng.gen_range(0..8u64);
    let pte = rng.gen_range(0..512u64);
    VirtAddr((pgd << 39) | (pud << 30) | (pmd << 21) | (pte << 12))
}

#[derive(Debug, Clone)]
enum Op {
    Map(VirtAddr, u32),
    Unmap(VirtAddr),
    Translate(VirtAddr),
}

fn arb_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(0..3u32) {
        0 => {
            let va = arb_va(rng);
            Op::Map(va, rng.gen_range(1..10_000u32))
        }
        1 => Op::Unmap(arb_va(rng)),
        _ => Op::Translate(arb_va(rng)),
    }
}

/// The page table behaves exactly like a `HashMap<vpn, frame>`.
#[test]
fn page_table_matches_model() {
    for_cases(0x7AB_0001, |case, rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..200usize))
            .map(|_| arb_op(rng))
            .collect();
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for op in ops {
            match op {
                Op::Map(va, frame) => {
                    let r = pt.map(va, Pte::map(FrameId(frame), PteFlags::WRITABLE));
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(va.vpn()) {
                        assert!(r.is_ok(), "case {case}: map {va:?}");
                        e.insert(frame);
                    } else {
                        assert_eq!(r, Err(VmError::AlreadyMapped(va)), "case {case}");
                    }
                }
                Op::Unmap(va) => {
                    let r = pt.unmap(va);
                    match model.remove(&va.vpn()) {
                        Some(f) => assert_eq!(r.unwrap().frame(), FrameId(f), "case {case}"),
                        None => assert!(r.is_err(), "case {case}: unmap {va:?}"),
                    }
                }
                Op::Translate(va) => {
                    let r = pt.translate(va);
                    match model.get(&va.vpn()) {
                        Some(&f) => {
                            let pa = r.unwrap();
                            assert_eq!(pa.frame(), FrameId(f), "case {case}");
                            assert_eq!(pa.frame_offset(), va.page_offset(), "case {case}");
                        }
                        None => assert!(r.is_err(), "case {case}: translate {va:?}"),
                    }
                }
            }
            assert_eq!(pt.mapped_pages(), model.len() as u64, "case {case}");
        }
    });
}

/// Any sequence of PTE swaps permutes the frame assignment: the same
/// multiset of frames stays mapped, just under different pages.
#[test]
fn swaps_are_permutations() {
    for_cases(0x5A9_0002, |case, rng| {
        let pages = rng.gen_range(2..40u64);
        let swaps: Vec<(u64, u64)> = (0..rng.gen_range(1..60usize))
            .map(|_| (rng.gen_range(0..40u64), rng.gen_range(0..40u64)))
            .collect();
        let base = VirtAddr(0x4000_0000);
        let mut pt = PageTable::new();
        for i in 0..pages {
            pt.map(
                base.add_pages(i),
                Pte::map(FrameId(i as u32 + 100), PteFlags::WRITABLE),
            )
            .unwrap();
        }
        let mut model: Vec<u32> = (0..pages as u32).map(|i| i + 100).collect();
        for (i, j) in swaps {
            let (i, j) = (i % pages, j % pages);
            pt.swap_ptes(base.add_pages(i), base.add_pages(j)).unwrap();
            model.swap(i as usize, j as usize);
        }
        for i in 0..pages {
            assert_eq!(
                pt.pte(base.add_pages(i)).unwrap().frame(),
                FrameId(model[i as usize]),
                "case {case}: page {i}"
            );
        }
        assert_eq!(pt.mapped_pages(), pages, "case {case}");
    });
}

/// Alignment helpers round-trip: align_down(va) <= va <= align_up(va),
/// both page-aligned, within one page of the original.
#[test]
fn alignment_laws() {
    for_cases(0xA11_0003, |case, rng| {
        let va = VirtAddr(rng.gen_range(0..(1u64 << 47)));
        let down = va.align_down();
        let up = va.align_up();
        assert!(
            down.is_page_aligned() && up.is_page_aligned(),
            "case {case}: {va:?}"
        );
        assert!(down <= va && va <= up, "case {case}: {va:?}");
        assert!(va - down < 4096, "case {case}: {va:?}");
        assert!(up - va < 4096, "case {case}: {va:?}");
        assert_eq!(va.is_page_aligned(), down == up, "case {case}: {va:?}");
    });
}
