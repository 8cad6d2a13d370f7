//! Correctness checks that do not depend on the cost model, and the
//! digest of the simulated plane.

use std::collections::BTreeMap;
use svagc_metrics::Registry;

/// What one completed operation contributes to the checks: the heap hash
/// of each of its JVMs, in tenant order.
#[derive(Debug, Clone)]
pub struct Hashes<'a> {
    /// The operation's label.
    pub label: &'a str,
    /// Operations with equal keys must have equal hashes.
    pub twin_key: &'a str,
    /// Heap hash per JVM.
    pub hashes: Vec<u64>,
}

/// The twin oracle: operations that share a twin key must leave
/// bit-identical heaps, JVM by JVM. SVAGC and SVAGC(-SwapVA) differ only
/// in how they move bytes; ParallelGC and Shenandoah share a heap layout.
/// Returns `(label, message)` for every operation in a mismatched group.
pub fn twin_mismatches(ops: &[Hashes]) -> Vec<(String, String)> {
    let mut groups: BTreeMap<&str, Vec<&Hashes>> = BTreeMap::new();
    for h in ops {
        groups.entry(h.twin_key).or_default().push(h);
    }
    let mut bad = Vec::new();
    for members in groups.values() {
        let first = members[0];
        for other in &members[1..] {
            if other.hashes == first.hashes {
                continue;
            }
            let jvm = first
                .hashes
                .iter()
                .zip(&other.hashes)
                .position(|(a, b)| a != b)
                .unwrap_or(first.hashes.len().min(other.hashes.len()));
            let msg = format!(
                "twin oracle: {} and {} leave different heaps (JVM {jvm}: {:#x} vs {:#x})",
                first.label,
                other.label,
                first.hashes.get(jvm).copied().unwrap_or(0),
                other.hashes.get(jvm).copied().unwrap_or(0),
            );
            bad.push((first.label.to_string(), msg.clone()));
            bad.push((other.label.to_string(), msg));
        }
    }
    bad
}

/// The replay oracle: the layered replay of a run must leave the heap and
/// counters `driver::run` left for the same configuration.
pub fn replay_matches(
    label: &str,
    run: (u64, &Registry),
    replay: (u64, &Registry),
) -> Result<(), String> {
    if run.0 != replay.0 {
        return Err(format!(
            "replay oracle: {label}: replay heap hash {:#x} != driver::run {:#x}",
            replay.0, run.0
        ));
    }
    if run.1 != replay.1 {
        let diff = run
            .1
            .iter()
            .chain(replay.1.iter())
            .map(|(k, _)| k)
            .find(|k| run.1.get(k) != replay.1.get(k))
            .unwrap_or("?");
        return Err(format!(
            "replay oracle: {label}: counter {diff} is {} in the replay but {} in driver::run",
            replay.1.get(diff),
            run.1.get(diff)
        ));
    }
    Ok(())
}

/// FNV-1a over `lines` after sorting them, so the digest does not depend
/// on the order operations ran in.
pub fn digest(mut lines: Vec<String>) -> u64 {
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
