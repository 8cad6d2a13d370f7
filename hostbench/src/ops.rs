//! The three workloads as lists of operations, and how one operation runs
//! through the simulator's public entry points.
//!
//! An operation is one `driver::run` call or one `multijvm::run_multi`
//! fleet. Every run builds fresh `Workload` instances: a used instance is
//! not safe to set up again (see the README).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use svagc_workloads::driver::{run, CollectorKind, RunConfig, RunResult};
use svagc_workloads::lrucache::LruCache;
use svagc_workloads::multijvm::{run_multi, MultiJvmResult};
use svagc_workloads::{suite, Workload};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// The standard suite under four collectors at 1.2× heap.
    SuiteSweep,
    /// Table III mode: instrumented cache/DTLB runs.
    CacheModel,
    /// LRUCache fleets of 8 and 32 JVMs.
    MultiJvm,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::SuiteSweep,
        WorkloadId::CacheModel,
        WorkloadId::MultiJvm,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadId::SuiteSweep => "suite_sweep",
            WorkloadId::CacheModel => "cache_model",
            WorkloadId::MultiJvm => "multi_jvm",
        }
    }

    /// Host threads the simulator may fan out over (`SVAGC_HOST_THREADS`),
    /// before capping at the host's core count.
    pub fn host_threads(&self) -> usize {
        match self {
            WorkloadId::SuiteSweep | WorkloadId::CacheModel => 1,
            WorkloadId::MultiJvm => 2,
        }
    }

    /// Host seconds one pass takes on the reference host (2 cores). The
    /// number of measured passes in a run is `--seconds` divided by this,
    /// so both sides of a comparison take the same number of samples.
    pub fn nominal_pass_s(&self) -> f64 {
        match self {
            WorkloadId::SuiteSweep => 20.0,
            WorkloadId::CacheModel => 10.0,
            WorkloadId::MultiJvm => 5.3,
        }
    }
}

/// What an operation runs.
#[derive(Debug, Clone)]
pub enum Target {
    /// One program of the suite, by its `suite::by_name` name.
    Program(String),
    /// A fleet of LRUCache JVMs, one cache seed per tenant.
    Fleet(Vec<u64>),
}

/// One operation of a workload.
#[derive(Clone)]
pub struct Op {
    /// Names the configuration in every message.
    pub label: String,
    /// Operations with the same key must leave bit-identical heaps.
    pub twin_key: String,
    /// What runs.
    pub target: Target,
    /// How it runs.
    pub cfg: RunConfig,
}

/// The result of an operation that completed.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A single JVM.
    Single(Box<RunResult>),
    /// A fleet.
    Fleet(MultiJvmResult),
}

impl Outcome {
    /// Every JVM's result, in tenant order.
    pub fn runs(&self) -> Vec<&RunResult> {
        match self {
            Outcome::Single(r) => vec![r.as_ref()],
            Outcome::Fleet(m) => m.per_jvm.iter().collect(),
        }
    }
}

/// One execution of an operation.
pub struct OpRun {
    /// Host milliseconds the public call took.
    pub ms: f64,
    /// The outcome, or why the operation failed (error or panic).
    pub result: Result<Outcome, String>,
}

/// The LRUCache geometry of Figs. 2/14: 192 entries, values log-uniform
/// in [1 B, 2 MiB], 8 inserts per step.
pub fn fleet_tenant(seed: u64) -> LruCache {
    LruCache::new(192, 2 << 20, 8, seed)
}

/// Build a fresh workload instance for a program target.
pub fn program(name: &str) -> Box<dyn Workload> {
    suite::by_name(name).unwrap_or_else(|| panic!("unknown suite program {name}"))
}

const SUITE_COLLECTORS: [CollectorKind; 4] = [
    CollectorKind::Svagc,
    CollectorKind::SvagcMemmove,
    CollectorKind::ParallelGc,
    CollectorKind::Shenandoah,
];

const CACHE_PROGRAMS: [&str; 5] = [
    "FFT.large",
    "Sparse.large",
    "Sigverify",
    "Bisort",
    "ParallelSort",
];
const CACHE_STEPS: usize = 25;
const FLEET_SIZES: [usize; 2] = [8, 32];

/// Which collectors must leave identical heaps: the two LISP2 variants
/// share the aligned heap layout, the two baselines the unaligned one.
fn twin_family(kind: CollectorKind) -> &'static str {
    match kind {
        CollectorKind::Svagc | CollectorKind::SvagcMemmove => "lisp2",
        _ => "baseline",
    }
}

fn single(name: &str, kind: CollectorKind, factor: f64, f: impl FnOnce(&mut RunConfig)) -> Op {
    let mut cfg = RunConfig::new(kind);
    cfg.heap_factor = factor;
    f(&mut cfg);
    let mode = if cfg.instrumented {
        "|instrumented"
    } else {
        ""
    };
    Op {
        label: format!("{name}|{}|{factor:.1}x{mode}", kind.label()),
        twin_key: format!("{name}|{factor:.1}x|{}", twin_family(kind)),
        target: Target::Program(name.to_string()),
        cfg,
    }
}

/// The operations of one pass of `w`, in a fixed order.
///
/// The seed reaches the LRUCache generator of every fleet tenant
/// (`LruCache::new`): it rotates the caches of Figs. 2/14 across the
/// tenant slots (ASID and core base), so every seed runs the figure's
/// fleets. The suite programs have no public seed: their generators keep
/// the seeds of `suite.rs`, so their simulated results are the figure
/// suite's whatever the seed. The order is fixed: allocator and
/// page-fault state carried from one operation to the next make single
/// operations' host times depend on what ran before them.
pub fn ops(w: WorkloadId, seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    match w {
        WorkloadId::SuiteSweep => {
            for prog in suite::standard_suite() {
                for kind in SUITE_COLLECTORS {
                    ops.push(single(&prog.name(), kind, 1.2, |_| {}));
                }
            }
        }
        WorkloadId::CacheModel => {
            for name in CACHE_PROGRAMS {
                for kind in [CollectorKind::Svagc, CollectorKind::SvagcMemmove] {
                    for factor in [1.2, 2.0] {
                        ops.push(single(name, kind, factor, |c| {
                            c.steps = Some(CACHE_STEPS);
                            c.instrumented = true;
                        }));
                    }
                }
            }
        }
        WorkloadId::MultiJvm => {
            for n in FLEET_SIZES {
                // The caches of Figs. 2/14 (seeds 100..100+n), rotated
                // across tenant slots by the seed.
                let seeds: Vec<u64> = (0..n as u64)
                    .map(|i| 100 + (i + seed % n as u64) % n as u64)
                    .collect();
                for kind in [CollectorKind::Svagc, CollectorKind::SvagcMemmove] {
                    let mut cfg = RunConfig::new(kind);
                    cfg.gc_threads = 4; // the paper pins GCThreadsCount=4
                    cfg.heap_factor = 1.2;
                    ops.push(Op {
                        label: format!("LRUCache x{n}|{}", kind.label()),
                        twin_key: format!("LRUCache x{n}"),
                        target: Target::Fleet(seeds.clone()),
                        cfg,
                    });
                }
            }
        }
    }
    ops
}

/// Run `op` through its public entry with `cfg`, timing the call and
/// turning an error or a panic into a failed outcome.
pub fn run_with(op: &Op, cfg: &RunConfig) -> OpRun {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| match &op.target {
        Target::Program(name) => {
            run(program(name).as_mut(), cfg).map(|r| Outcome::Single(Box::new(r)))
        }
        Target::Fleet(seeds) => run_multi(
            seeds.len(),
            |i| Box::new(fleet_tenant(seeds[i])) as Box<dyn Workload>,
            cfg,
        )
        .map(Outcome::Fleet),
    }));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let result = match result {
        Ok(Ok(o)) => Ok(o),
        Ok(Err(e)) => Err(format!("{}: {e}", op.label)),
        Err(panic) => Err(format!("{}: panicked: {}", op.label, panic_message(&panic))),
    };
    OpRun { ms, result }
}

/// Run `op` as configured.
pub fn run_op(op: &Op) -> OpRun {
    run_with(op, &op.cfg)
}

/// Run only `op`'s set-up: everything before the first mutator step
/// (`steps = Some(0)`, so the run ends right after the initial live set
/// is built and checked).
pub fn run_setup(op: &Op) -> OpRun {
    let mut cfg = op.cfg.clone();
    cfg.steps = Some(0);
    run_with(op, &cfg)
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}
