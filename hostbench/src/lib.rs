//! Host-cost benchmark of the SVAGC simulator.
//!
//! Runs one workload through the simulator's public entry points
//! (`driver::run`, `multijvm::run_multi`), checks every output, and
//! reports end-to-end host metrics (`--trace 0`) or per-crate-layer
//! metrics from a separate traced pass (`--trace 1`). See README.md.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage and /proc as laid out on 64-bit Linux");

pub mod host;
pub mod ops;
pub mod oracle;
pub mod replay;
pub mod stats;

use host::Usage;
use ops::{Op, OpRun, Outcome, Target, WorkloadId};
use replay::{Profile, SharedProfile};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;
use svagc_metrics::Registry;
use svagc_workloads::driver::CollectorKind;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metric names and units (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_ms.p50", "ms"),
    ("run_ms.tail", "ms"),
];

/// Per-layer metric names and units (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("kernel.with_bytes_ms", "ms"),
    ("heap.new_ms", "ms"),
    ("workloads.setup_ms", "ms"),
    ("workloads.step_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    ("heap.content_hash_ms", "ms"),
    ("core.collect_ms.svagc", "ms"),
    ("core.collect_ms.memmove", "ms"),
    ("baselines.collect_ms", "ms"),
    ("core.collect_calls", "count"),
    ("vmem.frame_use_ratio", "ratio"),
    ("metrics.cache_model_ms", "ms"),
    ("metrics.ns_per_access", "ns"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("host.par_efficiency", "ratio"),
    ("workloads.run_multi_ms.n8", "ms"),
    ("workloads.run_multi_ms.n32", "ms"),
    ("bench.other_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("kernel.bytes_copied", "bytes"),
    ("kernel.pte_swaps", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.ipis_sent", "count"),
    ("kernel.tlb_flushes_local", "count"),
    ("kernel.tlb_flushes_page", "count"),
    ("vmem.pt_level_accesses", "count"),
    ("vmem.pmd_hit_ratio", "ratio"),
    ("vmem.tlb_miss_ratio", "ratio"),
    ("metrics.cache_accesses", "count"),
    ("metrics.cache_miss_pct", "%"),
    ("metrics.dtlb_miss_pct", "%"),
    ("core.gc_cycles", "count"),
    ("core.pause_cycles", "cycles"),
    ("core.phase.mark", "cycles"),
    ("core.phase.forward", "cycles"),
    ("core.phase.adjust", "cycles"),
    ("core.phase.compact", "cycles"),
    ("core.phase.shootdown", "cycles"),
    ("core.objects_moved", "count"),
    ("core.swap_ratio", "ratio"),
    ("heap.live_objects", "count"),
    ("workloads.steps", "count"),
    ("workloads.app_cycles", "cycles"),
];

/// Setup passes per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Failure bookkeeping of a run: every operation executed counts as
/// attempted; one that errs, panics or breaks an oracle counts as failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations executed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One message per failure, naming the configuration.
    pub errors: Vec<String>,
}

impl Tally {
    /// `failed / attempted` (0 before anything ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One pass: every operation of the workload run once.
pub struct Pass {
    /// Wall and CPU time of the whole pass.
    pub usage: Usage,
    /// Host milliseconds of each operation, in `ops` order.
    pub op_ms: Vec<f64>,
    /// The outcome of each operation that did not fail.
    pub outcomes: Vec<Option<Outcome>>,
}

impl Pass {
    /// Digest of every simulated statistic the pass produced.
    pub fn sim_digest(&self, ops: &[Op]) -> u64 {
        let mut lines = Vec::new();
        for (op, o) in ops.iter().zip(&self.outcomes) {
            for (i, r) in o.iter().flat_map(Outcome::runs).enumerate() {
                lines.push(format!(
                    "{}#{i} {} app={} wall={} steps={} hash={:#x}",
                    op.label,
                    r.registry().to_json(),
                    r.app_cycles.get(),
                    r.total_wall.get(),
                    r.steps,
                    r.heap_hash
                ));
            }
        }
        oracle::digest(lines)
    }

    /// The counters of every JVM of the pass, summed.
    pub fn registry_sum(&self) -> Registry {
        let mut sum = Registry::new();
        for r in self.outcomes.iter().flatten().flat_map(Outcome::runs) {
            for (k, v) in r.registry().iter() {
                sum.add(k, v);
            }
        }
        sum
    }
}

/// Run every operation once with `run`, then the twin oracle, counting
/// attempts and failures in `tally`.
pub fn run_pass(ops: &[Op], run: impl Fn(&Op) -> OpRun, tally: &mut Tally) -> Pass {
    let (runs, usage) = host::measure(|| ops.iter().map(&run).collect::<Vec<_>>());
    let mut failed: BTreeSet<String> = BTreeSet::new();
    let mut op_ms = Vec::with_capacity(runs.len());
    let mut outcomes = Vec::with_capacity(runs.len());
    for (op, r) in ops.iter().zip(runs) {
        op_ms.push(r.ms);
        match r.result {
            Ok(o) => outcomes.push(Some(o)),
            Err(e) => {
                tally.errors.push(e);
                failed.insert(op.label.clone());
                outcomes.push(None);
            }
        }
    }
    let hashes: Vec<oracle::Hashes> = ops
        .iter()
        .zip(&outcomes)
        .filter_map(|(op, o)| {
            o.as_ref().map(|o| oracle::Hashes {
                label: &op.label,
                twin_key: &op.twin_key,
                hashes: o.runs().iter().map(|r| r.heap_hash).collect(),
            })
        })
        .collect();
    for (label, msg) in oracle::twin_mismatches(&hashes) {
        if failed.insert(label) {
            tally.errors.push(msg);
        }
    }
    tally.attempted += ops.len() as u64;
    tally.failed += failed.len() as u64;
    Pass {
        usage,
        op_ms,
        outcomes,
    }
}

/// Pin the simulator's host fan-out for `w`, never above the host's
/// cores. Returns the thread count.
pub fn pin_host_threads(w: WorkloadId) -> usize {
    let threads = w.host_threads().min(host::nproc()).max(1);
    set_host_threads(threads);
    threads
}

fn set_host_threads(n: usize) {
    // Only called between passes, when the benchmark runs one thread.
    std::env::set_var("SVAGC_HOST_THREADS", n.to_string());
}

/// Measured passes a run of `seconds` makes on `w`, whose pass runs
/// `ops_per_pass` operations: as many as fit on the reference host, and
/// at least [`stats::MIN_SAMPLES`] operations.
fn passes_for(w: WorkloadId, seconds: u64, ops_per_pass: usize) -> usize {
    let fit = (seconds as f64 / w.nominal_pass_s()).floor() as usize;
    fit.max(stats::MIN_SAMPLES.div_ceil(ops_per_pass.max(1)))
}

/// What a run prints besides its metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines, printed before the result.
    pub lines: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"));
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    Metric {
        name,
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end run (`--trace 0`): [`SETUP_REPEATS`] setup passes, then
/// the measured passes, with tracing off throughout.
pub fn end_to_end(w: WorkloadId, ops: &[Op], seconds: u64, tally: &mut Tally) -> Report {
    let mut rep = Report::default();
    let setup_s: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            run_pass(ops, ops::run_setup, tally)
                .op_ms
                .iter()
                .sum::<f64>()
                / 1e3
        })
        .collect();
    let passes: Vec<Pass> = (0..passes_for(w, seconds, ops.len()))
        .map(|_| run_pass(ops, ops::run_op, tally))
        .collect();
    sim_report(w, ops, &passes, tally, &mut rep);

    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let tail = stats::tail(&op_ms).expect("passes_for takes at least MIN_SAMPLES operations");
    // The typical operation: each operation's median over the passes,
    // then the median over operations.
    let op_medians: Vec<f64> = (0..ops.len())
        .map(|i| stats::median(&passes.iter().map(|p| p.op_ms[i]).collect::<Vec<_>>()))
        .collect();
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.usage.wall_s))
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    rep.lines.push(format!(
        "pass walls [{}] s; set-up passes [{}] s",
        walls.join(", "),
        setups.join(", ")
    ));
    rep.lines.push(format!(
        "run_ms.tail is p{:.1} of {} operations ({} passes)",
        tail.percentile,
        tail.samples,
        passes.len()
    ));
    let med = |f: fn(&Usage) -> f64| {
        stats::median(&passes.iter().map(|p| f(&p.usage)).collect::<Vec<_>>())
    };
    rep.metrics = vec![
        metric(&END_TO_END, "setup_s", stats::median(&setup_s)),
        metric(&END_TO_END, "wall_s", med(|u| u.wall_s)),
        metric(&END_TO_END, "cpu_s", med(Usage::cpu_s)),
        metric(&END_TO_END, "peak_rss_mb", host::peak_rss_mb()),
        metric(&END_TO_END, "run_ms.p50", stats::median(&op_medians)),
        metric(&END_TO_END, "run_ms.tail", tail.value),
    ];
    rep
}

/// Print the simulated plane of the passes: one digest per workload (which
/// every pass must reproduce) and, on `multi_jvm`, SVAGC's per-JVM pause
/// for each fleet size. Reported as-is, never gated.
fn sim_report(w: WorkloadId, ops: &[Op], passes: &[Pass], tally: &mut Tally, rep: &mut Report) {
    let first = passes[0].sim_digest(ops);
    rep.lines.push(format!(
        "sim_digest {} = {first:#018x} over {} operations",
        w.name(),
        ops.len()
    ));
    for (i, p) in passes.iter().enumerate().skip(1) {
        let d = p.sim_digest(ops);
        if d != first {
            tally.failed += ops.len() as u64;
            tally.errors.push(format!(
                "determinism: pass {i} has sim digest {d:#018x}, pass 0 had {first:#018x}"
            ));
        }
    }
    for (op, o) in ops.iter().zip(&passes[0].outcomes) {
        if let (Some(Outcome::Fleet(m)), CollectorKind::Svagc) = (o, op.cfg.collector) {
            rep.lines.push(format!(
                "sim {}: per-JVM GC pause {} cycles ({:.3} ms)",
                op.label,
                m.gc_pause_cycles() / m.n as u64,
                m.avg_gc_total_ms()
            ));
        }
    }
}

/// The traced run (`--trace 1`): an untraced reference pass, then the
/// layered replay of every operation on one host thread with a span
/// around each layer call, checked against the reference pass.
pub fn traced(w: WorkloadId, ops: &[Op], threads: usize, tally: &mut Tally) -> Report {
    let mut rep = Report::default();
    let reference = run_pass(ops, ops::run_op, tally);
    sim_report(w, ops, std::slice::from_ref(&reference), tally, &mut rep);

    // The cache model's host cost: the same configurations run plain.
    let mut cache_model_ms = 0.0;
    if ops.iter().any(|op| op.cfg.instrumented) {
        let plain = run_pass(
            ops,
            |op| {
                let mut cfg = op.cfg.clone();
                cfg.instrumented = false;
                ops::run_with(op, &cfg)
            },
            tally,
        );
        cache_model_ms = reference.op_ms.iter().sum::<f64>() - plain.op_ms.iter().sum::<f64>();
    }

    // The replay runs on one host thread; compare it with an untraced
    // pass on one thread too.
    let untraced_wall = if threads == 1 {
        reference.usage.wall_s
    } else {
        set_host_threads(1);
        let p = run_pass(ops, ops::run_op, tally);
        set_host_threads(threads);
        p.usage.wall_s
    };

    let prof: SharedProfile = Rc::new(RefCell::new(Profile::default()));
    let (mut frames_peak, mut frames_provisioned) = (0u64, 0u64);
    let t0 = Instant::now();
    for (op, outcome) in ops.iter().zip(&reference.outcomes) {
        tally.attempted += 1;
        let replayed = match &op.target {
            Target::Program(name) => {
                vec![replay::replay(ops::program(name).as_mut(), &op.cfg, &prof)]
            }
            Target::Fleet(seeds) => replay::replay_fleet(
                seeds.len(),
                |i| Box::new(ops::fleet_tenant(seeds[i])),
                &op.cfg,
                &prof,
            ),
        };
        let runs = outcome.as_ref().map(Outcome::runs).unwrap_or_default();
        let check = (|| {
            if runs.len() != replayed.len() {
                return Err(format!(
                    "{}: no driver::run result to check the replay against",
                    op.label
                ));
            }
            for (i, (run, rp)) in runs.iter().zip(&replayed).enumerate() {
                let rp = rp
                    .as_ref()
                    .map_err(|e| format!("{}: replay of JVM {i}: {e}", op.label))?;
                frames_peak += u64::from(rp.frames_peak);
                frames_provisioned += u64::from(rp.frames_provisioned);
                let label = format!("{}#{i}", op.label);
                oracle::replay_matches(
                    &label,
                    (run.heap_hash, &run.registry()),
                    (rp.heap_hash, &rp.registry),
                )?;
            }
            Ok(())
        })();
        if let Err(e) = check {
            tally.failed += 1;
            tally.errors.push(e);
        }
    }
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;

    let prof = prof.borrow();
    let reg = reference.registry_sum();
    let get = |k: &str| reg.get(k) as f64;
    let fleet_ms = |n: usize| -> f64 {
        ops.iter()
            .zip(&reference.op_ms)
            .filter(|(op, _)| matches!(&op.target, Target::Fleet(s) if s.len() == n))
            .map(|(_, ms)| ms)
            .sum()
    };
    let u = reference.usage;
    let mut m: Vec<Metric> = replay::span::ALL
        .iter()
        .map(|&s| metric(&PER_LAYER, s, prof.self_ms(s)))
        .collect();
    m.extend([
        metric(&PER_LAYER, "core.collect_calls", prof.collect_calls as f64),
        metric(
            &PER_LAYER,
            "vmem.frame_use_ratio",
            ratio(frames_peak as f64, frames_provisioned as f64),
        ),
        metric(&PER_LAYER, "metrics.cache_model_ms", cache_model_ms),
        metric(
            &PER_LAYER,
            "metrics.ns_per_access",
            ratio(cache_model_ms * 1e6, get("perf.cache_accesses")),
        ),
        metric(&PER_LAYER, "host.user_s", u.user_s),
        metric(&PER_LAYER, "host.sys_s", u.sys_s),
        metric(
            &PER_LAYER,
            "host.par_efficiency",
            ratio(u.cpu_s(), u.wall_s * threads as f64),
        ),
        metric(&PER_LAYER, "workloads.run_multi_ms.n8", fleet_ms(8)),
        metric(&PER_LAYER, "workloads.run_multi_ms.n32", fleet_ms(32)),
        metric(&PER_LAYER, "bench.other_ms", traced_ms - prof.total_ms()),
        metric(
            &PER_LAYER,
            "bench.trace_overhead",
            ratio(traced_ms / 1e3, untraced_wall),
        ),
        metric(&PER_LAYER, "kernel.bytes_copied", get("perf.bytes_copied")),
        metric(&PER_LAYER, "kernel.pte_swaps", get("perf.pte_swaps")),
        metric(&PER_LAYER, "kernel.syscalls", get("perf.syscalls")),
        metric(&PER_LAYER, "kernel.ipis_sent", get("perf.ipis_sent")),
        metric(
            &PER_LAYER,
            "kernel.tlb_flushes_local",
            get("perf.tlb_flushes_local"),
        ),
        metric(
            &PER_LAYER,
            "kernel.tlb_flushes_page",
            get("perf.tlb_flushes_page"),
        ),
        metric(
            &PER_LAYER,
            "vmem.pt_level_accesses",
            get("perf.pt_level_accesses"),
        ),
        // Two GETPTE walks per swapped page pair.
        metric(
            &PER_LAYER,
            "vmem.pmd_hit_ratio",
            ratio(get("perf.pmd_cache_hits"), 2.0 * get("perf.pte_swaps")),
        ),
        metric(
            &PER_LAYER,
            "vmem.tlb_miss_ratio",
            ratio(get("perf.tlb_misses"), get("perf.tlb_lookups")),
        ),
        metric(
            &PER_LAYER,
            "metrics.cache_accesses",
            get("perf.cache_accesses"),
        ),
        metric(
            &PER_LAYER,
            "metrics.cache_miss_pct",
            100.0 * ratio(get("perf.cache_misses"), get("perf.cache_references")),
        ),
        metric(
            &PER_LAYER,
            "metrics.dtlb_miss_pct",
            100.0 * ratio(get("perf.tlb_misses"), get("perf.tlb_lookups")),
        ),
        metric(&PER_LAYER, "core.gc_cycles", get("gc.cycles")),
        metric(&PER_LAYER, "core.pause_cycles", get("gc.pause.total")),
        metric(&PER_LAYER, "core.phase.mark", get("gc.phase.mark")),
        metric(&PER_LAYER, "core.phase.forward", get("gc.phase.forward")),
        metric(&PER_LAYER, "core.phase.adjust", get("gc.phase.adjust")),
        metric(&PER_LAYER, "core.phase.compact", get("gc.phase.compact")),
        metric(
            &PER_LAYER,
            "core.phase.shootdown",
            get("gc.phase.shootdown"),
        ),
        metric(&PER_LAYER, "core.objects_moved", get("gc.moved_objects")),
        metric(
            &PER_LAYER,
            "core.swap_ratio",
            ratio(get("gc.swapped_objects"), get("gc.moved_objects")),
        ),
        metric(&PER_LAYER, "heap.live_objects", get("gc.live_objects")),
    ]);
    let runs: Vec<_> = reference
        .outcomes
        .iter()
        .flatten()
        .flat_map(Outcome::runs)
        .collect();
    m.push(metric(
        &PER_LAYER,
        "workloads.steps",
        runs.iter().map(|r| r.steps as f64).sum(),
    ));
    m.push(metric(
        &PER_LAYER,
        "workloads.app_cycles",
        runs.iter().map(|r| r.app_cycles.get() as f64).sum(),
    ));
    rep.lines.push(format!(
        "traced pass {traced_ms:.1} ms = named self times {:.1} ms + bench.other_ms {:.1} ms; \
         untraced pass on one host thread {:.1} ms",
        prof.total_ms(),
        traced_ms - prof.total_ms(),
        untraced_wall * 1e3
    ));
    rep.metrics = m;
    rep
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
