//! Property tests of the allocator: objects never overlap, Algorithm 3's
//! alignment invariants hold for arbitrary allocation sequences, and the
//! bidirectional TLAB keeps species separated.
//!
//! Offline std-only: every property draws its inputs from the
//! deterministic `SimRng` (splitmix64), one seeded stream per property,
//! so every failure reproduces from the printed case number.

use svagc_heap::{Heap, HeapConfig, HeapError, ObjShape, TlabAllocator};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);

/// Cases drawn per property.
const CASES: u64 = 48;

/// Run `property` on [`CASES`] cases drawn from one stream seeded with
/// `seed`.
fn for_cases(seed: u64, mut property: impl FnMut(u64, &mut SimRng)) {
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..CASES {
        property(case, &mut rng);
    }
}

fn setup(bytes: u64) -> (Kernel, Heap) {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), bytes + (1 << 20));
    let h = Heap::new(&mut k, Asid(1), HeapConfig::new(bytes)).unwrap();
    (k, h)
}

/// A small object (up to 3 refs, up to 199 data words) or a large one
/// (at/above the 10-page threshold), with even odds.
fn arb_shape(rng: &mut SimRng) -> ObjShape {
    if rng.gen_bool(0.5) {
        let refs = rng.gen_range(0..4u32);
        ObjShape::with_refs(refs, rng.gen_range(1..200u32))
    } else {
        ObjShape::data_bytes(rng.gen_range(10 * PAGE_SIZE..20 * PAGE_SIZE))
    }
}

fn arb_shapes(rng: &mut SimRng, max_len: usize) -> Vec<ObjShape> {
    (0..rng.gen_range(1..max_len))
        .map(|_| arb_shape(rng))
        .collect()
}

/// Shared-space allocation: objects are disjoint, in order, and every
/// large object is page-aligned on both sides.
#[test]
fn shared_alloc_invariants() {
    for_cases(0x5A4_0001, |case, rng| {
        let shapes = arb_shapes(rng, 60);
        let (mut k, mut h) = setup(64 << 20);
        let mut placed: Vec<(u64, u64, bool)> = Vec::new();
        for shape in shapes {
            match h.alloc(&mut k, CORE, shape) {
                Ok((obj, _)) => {
                    let start = obj.0.get();
                    let large = h.is_large(shape);
                    if large {
                        assert_eq!(start % PAGE_SIZE, 0, "case {case}: large start aligned");
                    }
                    placed.push((start, shape.size_bytes(), large));
                }
                Err(HeapError::NeedGc { .. }) => break,
                Err(e) => panic!("case {case}: {e}"),
            }
        }
        // Disjoint and monotonically increasing.
        for w in placed.windows(2) {
            let (s0, len0, large0) = w[0];
            let (s1, _, _) = w[1];
            assert!(s0 + len0 <= s1, "case {case}: objects must not overlap");
            if large0 {
                // The next object starts at or after the aligned end.
                assert!(
                    s1 % PAGE_SIZE == 0 || s1 >= (s0 + len0).next_multiple_of(PAGE_SIZE),
                    "case {case}: object after a large one at {s1:#x}"
                );
            }
        }
        // Heap accounting is consistent.
        assert!(h.used_bytes() <= h.capacity(), "case {case}");
        assert_eq!(h.object_count(), placed.len(), "case {case}");
    });
}

/// TLAB allocation: same invariants, plus small/large species never
/// interleave *within* a TLAB (larges grow down, smalls grow up).
#[test]
fn tlab_alloc_invariants() {
    for_cases(0x71A_0002, |case, rng| {
        let shapes = arb_shapes(rng, 80);
        let (mut k, mut h) = setup(64 << 20);
        let mut alloc = TlabAllocator::new(1 << 20);
        let mut placed: Vec<(u64, u64)> = Vec::new();
        for shape in shapes {
            match alloc.alloc(&mut h, &mut k, CORE, shape) {
                Ok((obj, _)) => {
                    if h.is_large(shape) {
                        assert_eq!(
                            obj.0.get() % PAGE_SIZE,
                            0,
                            "case {case}: large start aligned"
                        );
                    }
                    placed.push((obj.0.get(), shape.size_bytes()));
                }
                Err(HeapError::NeedGc { .. }) => break,
                Err(e) => panic!("case {case}: {e}"),
            }
        }
        // Objects never overlap, regardless of allocation order.
        placed.sort_unstable();
        for w in placed.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "case {case}: objects must not overlap"
            );
        }
    });
}

/// Object headers survive arbitrary data writes within bounds: writing
/// every data word never clobbers the header or a neighbour.
#[test]
fn data_writes_stay_in_bounds() {
    for_cases(0xDA7_0003, |case, rng| {
        let num_refs = rng.gen_range(0..5u32);
        let data_words = rng.gen_range(1..300u32);
        let probe = rng.gen_range(0..300u32) % data_words;
        let (mut k, mut h) = setup(4 << 20);
        let shape = ObjShape::with_refs(num_refs, data_words);
        let (a, _) = h.alloc(&mut k, CORE, shape).unwrap();
        let (b, _) = h.alloc(&mut k, CORE, ObjShape::data(4)).unwrap();
        h.write_data(&mut k, CORE, b, 0, 0, 0xB00).unwrap();
        h.write_data(&mut k, CORE, a, num_refs as u64, probe as u64, 0xDADA)
            .unwrap();
        // Header of `a` intact.
        let (hdr, _) = h.read_header(&mut k, CORE, a).unwrap();
        assert_eq!(hdr.size_words, shape.size_words(), "case {case}");
        assert_eq!(hdr.num_refs, num_refs, "case {case}");
        // Neighbour `b` intact (last word of `a` is adjacent to `b`'s header).
        let (hdr_b, _) = h.read_header(&mut k, CORE, b).unwrap();
        assert_eq!(
            hdr_b.size_words,
            ObjShape::data(4).size_words(),
            "case {case}"
        );
        assert_eq!(
            h.read_data(&mut k, CORE, b, 0, 0).unwrap().0,
            0xB00,
            "case {case}"
        );
    });
}
