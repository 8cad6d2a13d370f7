//! `Bisort` (JOlden): a bitonic-sort binary tree of small nodes.
//!
//! The paper sets the input to 2 M entries; we scale to 64 Ki - 1 nodes
//! (1/32) and keep the structure: a full binary tree of 48-byte objects,
//! churned by rebuilding random subtrees. Small objects dominate, so
//! SwapVA rarely applies — Bisort anchors the "little to gain" end of
//! Fig. 11.
//!
//! GC-safety: the host-side mirror stores [`RootId`]s, never raw object
//! addresses — any allocation may trigger a compaction that moves every
//! node, and only roots (and heap references) are updated by the GC.

use crate::env::JvmEnv;
use crate::workload::Workload;
use svagc_core::GcError;
use svagc_heap::{ObjRef, ObjShape, RootId};
use svagc_metrics::{Cycles, SimRng};

/// Tree depth: `2^DEPTH - 1` nodes.
const DEPTH: u32 = 16;
/// Depth of the subtrees rebuilt each step.
const REBUILD_DEPTH: u32 = 11;

fn node_shape() -> ObjShape {
    // left, right, and two data words (key + checksum).
    ObjShape::with_refs(2, 2)
}

/// The Bisort workload.
pub struct Bisort {
    rng: SimRng,
    /// Root slot of each tree position (complete-tree indexing: children
    /// of `i` at `2i+1`, `2i+2`).
    slots: Vec<RootId>,
    next_key: u64,
}

impl Bisort {
    /// Standard configuration.
    pub fn new() -> Bisort {
        Bisort {
            rng: SimRng::seed_from_u64(59),
            slots: Vec::new(),
            next_key: 1,
        }
    }

    fn node_count() -> usize {
        (1usize << DEPTH) - 1
    }

    /// Allocate a fresh node into slot `idx` and hook it to its parent.
    /// The node is rooted before any further allocation can run, and the
    /// parent is re-read from its root slot (fresh after any GC).
    fn place_node(&mut self, env: &mut JvmEnv, idx: usize) -> Result<(), GcError> {
        let obj = env.alloc(node_shape())?;
        env.roots.set(self.slots[idx], obj);
        let key = self.next_key;
        self.next_key += 1;
        env.app_cycles += env.heap.write_data(env.kernel, env.core, obj, 2, 0, key)?;
        env.app_cycles += env.heap.write_data(env.kernel, env.core, obj, 2, 1, key ^ 0xB15)?;
        env.write_ref(obj, 0, ObjRef::NULL)?;
        env.write_ref(obj, 1, ObjRef::NULL)?;
        if idx > 0 {
            let parent_idx = (idx - 1) / 2;
            let which = ((idx - 1) % 2) as u64;
            let parent = env.roots.get(self.slots[parent_idx]);
            env.write_ref(parent, which, obj)?;
        }
        Ok(())
    }

    /// Rebuild the whole subtree under `top` (inclusive), top-down in BFS
    /// order so parents exist before children hook in.
    fn rebuild_subtree(&mut self, env: &mut JvmEnv, top: usize) -> Result<u64, GcError> {
        let mut frontier = vec![top];
        let mut built = 0u64;
        while let Some(idx) = frontier.pop() {
            self.place_node(env, idx)?;
            built += 1;
            let l = 2 * idx + 1;
            if l < Self::node_count() {
                frontier.push(l);
                frontier.push(l + 1);
            }
        }
        Ok(built)
    }

    /// Walk the subtree through real heap refs, verifying checksums.
    fn check_subtree(&self, env: &mut JvmEnv, obj: ObjRef, depth: u32) -> Result<u64, String> {
        if obj.is_null() {
            return if depth == DEPTH {
                Ok(0)
            } else {
                Err(format!("null interior node at depth {depth}"))
            };
        }
        let (key, t) = env
            .heap
            .read_data(env.kernel, env.core, obj, 2, 0)
            .map_err(|e| e.to_string())?;
        let (flag, t2) = env
            .heap
            .read_data(env.kernel, env.core, obj, 2, 1)
            .map_err(|e| e.to_string())?;
        env.app_cycles += t + t2;
        if flag != key ^ 0xB15 {
            return Err(format!("corrupt node: key {key} checksum {flag}"));
        }
        let (l, tl) = env
            .heap
            .read_ref(env.kernel, env.core, obj, 0)
            .map_err(|e| e.to_string())?;
        let (r, tr) = env
            .heap
            .read_ref(env.kernel, env.core, obj, 1)
            .map_err(|e| e.to_string())?;
        env.app_cycles += tl + tr;
        Ok(1 + self.check_subtree(env, l, depth + 1)? + self.check_subtree(env, r, depth + 1)?)
    }
}

impl Default for Bisort {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for Bisort {
    fn name(&self) -> String {
        "Bisort".into()
    }

    fn threads(&self) -> u32 {
        896
    }

    fn min_heap_bytes(&self) -> u64 {
        let node_bytes = node_shape().size_bytes();
        let rebuild = (1u64 << REBUILD_DEPTH) * node_bytes;
        Self::node_count() as u64 * node_bytes + 2 * rebuild + (64 << 10)
    }

    fn setup(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        *self = Self::new(); // a used instance starts over
        self.slots = (0..Self::node_count())
            .map(|_| env.roots.push(ObjRef::NULL))
            .collect();
        self.rebuild_subtree(env, 0)?;
        Ok(())
    }

    fn step(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        // Replace a random depth-REBUILD_DEPTH subtree: old nodes become
        // garbage (their slots and parent link are overwritten).
        let top_levels = DEPTH - REBUILD_DEPTH;
        let first = (1usize << top_levels) - 1;
        let count = 1usize << top_levels;
        let idx = first + self.rng.gen_range(0..count);
        let built = self.rebuild_subtree(env, idx)?;
        // Bitonic merge compute over the rebuilt subtree.
        env.charge_app(Cycles(built * node_shape().size_bytes() * 4));
        Ok(())
    }

    fn default_steps(&self) -> usize {
        120
    }

    fn verify(&mut self, env: &mut JvmEnv) -> Result<(), String> {
        let root = env.roots.get(self.slots[0]);
        let n = self.check_subtree(env, root, 0)?;
        if n != Self::node_count() as u64 {
            return Err(format!("tree lost nodes: {n} of {}", Self::node_count()));
        }
        Ok(())
    }
}
