//! Property tests of the collector: for arbitrary object graphs and
//! liveness patterns, collection preserves exactly the reachable data —
//! under every collector configuration — and SVAGC compacts to the same
//! layout as the memmove variant.
//!
//! Offline std-only: every property draws its inputs from the
//! deterministic `SimRng` (splitmix64), one seeded stream per property,
//! so every failure reproduces from the printed case number.

use svagc_core::{GcConfig, Lisp2Collector};
use svagc_heap::{Heap, HeapConfig, ObjRef, ObjShape, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);

/// A randomly generated heap population: object shapes, ref wiring, and
/// which objects are rooted.
#[derive(Debug, Clone)]
struct Population {
    shapes: Vec<(u32, u32)>, // (refs, data_words)
    /// For each object, targets of its ref fields (indices into shapes,
    /// possibly younger or older).
    targets: Vec<Vec<usize>>,
    rooted: Vec<bool>,
}

/// Cases drawn per property.
const CASES: u64 = 32;

/// Run `property` on a pinned population first, then on [`CASES`]
/// populations drawn from one stream seeded with `seed`. Case 0 is the
/// pinned one.
fn for_cases(seed: u64, mut property: impl FnMut(u64, &Population)) {
    property(0, &pinned_population());
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 1..=CASES {
        property(case, &arb_population(&mut rng));
    }
}

fn arb_population(rng: &mut SimRng) -> Population {
    let n = rng.gen_range(2..60usize);
    let mut shapes = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    let mut rooted = Vec::with_capacity(n);
    for _ in 0..n {
        let refs = rng.gen_range(0..4u32);
        let data = if rng.gen_bool(0.2) {
            // Large object (>= 10 pages).
            rng.gen_range((10 * PAGE_SIZE / 8) as u32..(14 * PAGE_SIZE / 8) as u32)
        } else {
            rng.gen_range(1..300u32)
        };
        shapes.push((refs, data));
        targets.push((0..refs).map(|_| rng.gen_range(0..n)).collect());
        rooted.push(rng.gen_bool(0.4));
    }
    // Keep at least one root so the heap isn't trivially empty.
    rooted[0] = true;
    Population {
        shapes,
        targets,
        rooted,
    }
}

/// A 35-object population with five large objects and cross-wired refs,
/// kept as a fixed case: it once failed `collection_preserves_reachable_graph`.
#[rustfmt::skip]
fn pinned_population() -> Population {
    let shapes = vec![
        (0, 288), (3, 110), (3, 46), (2, 190), (0, 35), (0, 248), (3, 78), (0, 261), (1, 244),
        (1, 149), (3, 187), (0, 165), (0, 91), (1, 132), (2, 5188), (0, 138), (2, 5477), (3, 10),
        (1, 49), (0, 67), (0, 1), (2, 7131), (2, 111), (1, 71), (0, 22), (1, 5149), (3, 191),
        (1, 116), (3, 112), (2, 140), (2, 154), (1, 200), (0, 33), (0, 88), (1, 257),
    ];
    let targets = vec![
        vec![], vec![22, 25, 14], vec![29, 7, 19], vec![27, 30], vec![], vec![], vec![26, 18, 25],
        vec![], vec![29], vec![28], vec![17, 20, 31], vec![], vec![], vec![13], vec![17, 11],
        vec![], vec![21, 24], vec![5, 4, 30], vec![25], vec![], vec![], vec![33, 32],
        vec![33, 16], vec![20], vec![], vec![12], vec![21, 30, 34], vec![8], vec![31, 32, 5],
        vec![20, 17], vec![13, 27], vec![6], vec![], vec![], vec![9],
    ];
    let rooted = [
        1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1,
        0, 0, 0, 1, 1, 0,
    ]
    .iter()
    .map(|&r| r == 1)
    .collect();
    Population {
        shapes,
        targets,
        rooted,
    }
}

/// Build the population in a fresh heap; returns reachable indices and the
/// stamps of each object.
fn build(pop: &Population, cfg: GcConfig) -> (Kernel, Heap, RootSet, Lisp2Collector, Vec<ObjRef>) {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 48 << 20);
    let mut h = Heap::new(&mut k, Asid(1), HeapConfig::new(32 << 20)).unwrap();
    let mut roots = RootSet::new();
    let mut objs = Vec::new();
    for (i, &(refs, data)) in pop.shapes.iter().enumerate() {
        let shape = ObjShape::with_refs(refs, data);
        let (obj, _) = h.alloc(&mut k, CORE, shape).unwrap();
        // Stamp: first/last data words carry the object index (a
        // single-word object only gets the head stamp).
        h.write_data(&mut k, CORE, obj, refs as u64, 0, 0xA000 + i as u64)
            .unwrap();
        if data > 1 {
            h.write_data(
                &mut k,
                CORE,
                obj,
                refs as u64,
                data as u64 - 1,
                0xB000 + i as u64,
            )
            .unwrap();
        }
        objs.push(obj);
    }
    // Wire refs (all objects exist now).
    for (i, tgts) in pop.targets.iter().enumerate() {
        for (slot, &t) in tgts.iter().enumerate() {
            h.write_ref(&mut k, CORE, objs[i], slot as u64, objs[t])
                .unwrap();
        }
    }
    for (i, &r) in pop.rooted.iter().enumerate() {
        if r {
            roots.push(objs[i]);
        }
    }
    (k, h, roots, Lisp2Collector::new(cfg), objs)
}

/// Host-side reachability over the population description.
fn reachable(pop: &Population) -> Vec<bool> {
    let n = pop.shapes.len();
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = (0..n).filter(|&i| pop.rooted[i]).collect();
    for &s in &stack {
        seen[s] = true;
    }
    while let Some(i) = stack.pop() {
        for &t in &pop.targets[i] {
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    seen
}

/// Walk the post-GC graph from the roots and check every stamp; returns
/// the number of objects reached.
fn verify_graph(case: u64, k: &mut Kernel, h: &Heap, roots: &RootSet, pop: &Population) -> u64 {
    let mut visited = std::collections::HashSet::new();
    let mut stack: Vec<ObjRef> = roots.iter_live().collect();
    while let Some(obj) = stack.pop() {
        if !visited.insert(obj) {
            continue;
        }
        let (hdr, _) = h
            .read_header(k, CORE, obj)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let refs = hdr.num_refs as u64;
        let data = hdr.size_words as u64 - 2 - refs;
        let (first, _) = h
            .read_data(k, CORE, obj, refs, 0)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert!(
            first >= 0xA000,
            "case {case}: head stamp corrupted: {first:#x}"
        );
        let idx = (first - 0xA000) as usize;
        assert!(
            idx < pop.shapes.len(),
            "case {case}: stamp index {idx} out of range"
        );
        if data > 1 {
            let (last, _) = h
                .read_data(k, CORE, obj, refs, data - 1)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(
                last,
                0xB000 + idx as u64,
                "case {case}: tail stamp of object {idx}"
            );
        }
        assert_eq!(
            hdr.num_refs, pop.shapes[idx].0,
            "case {case}: refs of object {idx}"
        );
        for r in 0..refs {
            let (tgt, _) = h
                .read_ref(k, CORE, obj, r)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            if !tgt.is_null() {
                stack.push(tgt);
            }
        }
    }
    visited.len() as u64
}

/// Collection keeps exactly the reachable objects, with intact data and
/// references, under all four collector configurations.
#[test]
fn collection_preserves_reachable_graph() {
    for_cases(0xC0_11EC7, |case, pop| {
        let expected: u64 = reachable(pop).iter().map(|&b| b as u64).sum();
        for cfg in [
            GcConfig::svagc(4),
            GcConfig::lisp2_memmove(4),
            GcConfig::svagc(1).with_aggregation(None),
            GcConfig::svagc(4).with_overlap(false),
        ] {
            let (mut k, mut h, mut roots, mut gc, _) = build(pop, cfg);
            let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();
            assert_eq!(
                stats.live_objects, expected,
                "case {case}: live count under {cfg:?}"
            );
            let walked = verify_graph(case, &mut k, &h, &roots, pop);
            assert_eq!(
                walked, expected,
                "case {case}: reachable walk under {cfg:?}"
            );
            // A second collection finds the same live set and moves nothing.
            let stats2 = gc.collect(&mut k, &mut h, &mut roots).unwrap();
            assert_eq!(
                stats2.live_objects, expected,
                "case {case}: second live count under {cfg:?}"
            );
            assert_eq!(
                stats2.moved_objects, 0,
                "case {case}: second cycle moved under {cfg:?}"
            );
        }
    });
}

/// SVAGC and the memmove variant compact any population to identical
/// layouts (SwapVA is a pure mechanism change).
#[test]
fn layouts_identical_across_mechanisms() {
    for_cases(0x1A4_0002, |case, pop| {
        let run = |cfg: GcConfig| {
            let (mut k, mut h, mut roots, mut gc, _) = build(pop, cfg);
            gc.collect(&mut k, &mut h, &mut roots).unwrap();
            let layout: Vec<u64> = roots.iter_live().map(|r| r.0.get()).collect();
            (layout, h.top().get())
        };
        let (l1, t1) = run(GcConfig::svagc(4));
        let (l2, t2) = run(GcConfig::lisp2_memmove(4));
        assert_eq!(l1, l2, "case {case}: root layout");
        assert_eq!(t1, t2, "case {case}: heap top");
    });
}
