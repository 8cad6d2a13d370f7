//! The layered replay: one run composed from the simulator's public layer
//! calls, with a host-time span around each, so every crate's self time
//! can be read off without any profiling code inside the simulator.
//!
//! The replay makes the calls `driver::run` makes, in the same order, for
//! the configurations the benchmark uses (no faults, tiering, frame pool,
//! pressure ladder, crash plans or concurrent marking). Its heap hash and
//! counter registry are checked against `driver::run`'s for the same
//! configuration, so it cannot silently drift from `driver::run`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use svagc_core::{Collector, GcCycleStats, GcError, GcLog};
use svagc_heap::{Heap, HeapConfig, HeapError, HeapVerifier, ObjRef, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::{BandwidthModel, Cycles, Registry};
use svagc_vmem::Asid;
use svagc_workloads::driver::{CollectorKind, RunConfig};
use svagc_workloads::{JvmEnv, Workload};

/// Span names, one per crate-layer call the replay times.
pub mod span {
    /// `Kernel::with_bytes` and the kernel's run settings.
    pub const KERNEL_WITH_BYTES: &str = "kernel.with_bytes_ms";
    /// `Heap::new`.
    pub const HEAP_NEW: &str = "heap.new_ms";
    /// `Workload::setup`, minus the collections it triggers.
    pub const SETUP: &str = "workloads.setup_ms";
    /// `Workload::step`, minus the collections it triggers.
    pub const STEP: &str = "workloads.step_ms";
    /// `Workload::verify`.
    pub const VERIFY: &str = "workloads.verify_ms";
    /// `HeapVerifier::content_hash`.
    pub const CONTENT_HASH: &str = "heap.content_hash_ms";
    /// `Collector::collect` of SVAGC (LISP2 with SwapVA).
    pub const COLLECT_SVAGC: &str = "core.collect_ms.svagc";
    /// `Collector::collect` of SVAGC(-SwapVA) (LISP2 with memmove).
    pub const COLLECT_MEMMOVE: &str = "core.collect_ms.memmove";
    /// `Collector::collect` of ParallelGC and Shenandoah.
    pub const COLLECT_BASELINES: &str = "baselines.collect_ms";

    /// Every span, in report order.
    pub const ALL: [&str; 9] = [
        KERNEL_WITH_BYTES,
        HEAP_NEW,
        SETUP,
        STEP,
        VERIFY,
        CONTENT_HASH,
        COLLECT_SVAGC,
        COLLECT_MEMMOVE,
        COLLECT_BASELINES,
    ];
}

/// Self times of nested host-time spans. A span's self time is its
/// duration minus the part its child spans cover, so the self times of
/// all spans sum to the time spent inside outermost spans.
#[derive(Debug, Default)]
pub struct Profile {
    self_time: BTreeMap<&'static str, Duration>,
    stack: Vec<(Instant, Duration)>,
    /// Collections the timed collectors ran.
    pub collect_calls: u64,
}

impl Profile {
    fn enter(&mut self) {
        self.stack.push((Instant::now(), Duration::ZERO));
    }

    fn exit(&mut self, name: &'static str) {
        let (start, children) = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let total = start.elapsed();
        *self.self_time.entry(name).or_default() += total.saturating_sub(children);
        if let Some(parent) = self.stack.last_mut() {
            parent.1 += total;
        }
    }

    /// Self milliseconds of span `name` (0 if it never ran).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_time
            .get(name)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// Self milliseconds summed over every span.
    pub fn total_ms(&self) -> f64 {
        self.self_time.values().map(|d| d.as_secs_f64() * 1e3).sum()
    }
}

/// A profile shared between the replay and the collector wrapper it
/// installs in the JVM.
pub type SharedProfile = Rc<RefCell<Profile>>;

/// Run `f` inside span `name` of `prof`. No borrow of the profile is held
/// while `f` runs, so `f` may open nested spans.
pub fn in_span<R>(prof: &SharedProfile, name: &'static str, f: impl FnOnce() -> R) -> R {
    prof.borrow_mut().enter();
    let r = f();
    prof.borrow_mut().exit(name);
    r
}

/// A collector that delegates every call and times the collections.
struct TimedCollector {
    inner: Box<dyn Collector>,
    span: &'static str,
    prof: SharedProfile,
}

impl Collector for TimedCollector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        self.prof.borrow_mut().collect_calls += 1;
        in_span(&self.prof, self.span, || {
            self.inner.collect(kernel, heap, roots)
        })
    }

    fn log(&self) -> &GcLog {
        self.inner.log()
    }

    fn collect_minor(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Option<Result<GcCycleStats, GcError>> {
        let r = in_span(&self.prof, self.span, || {
            self.inner.collect_minor(kernel, heap, roots)
        });
        if r.is_some() {
            self.prof.borrow_mut().collect_calls += 1;
        }
        r
    }

    fn pressure_degrade(&mut self) -> bool {
        self.inner.pressure_degrade()
    }

    fn write_barrier(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        core: CoreId,
        obj: ObjRef,
        field: u64,
    ) -> Result<Cycles, HeapError> {
        self.inner.write_barrier(kernel, heap, core, obj, field)
    }
}

fn collect_span(kind: CollectorKind) -> &'static str {
    match kind {
        CollectorKind::Svagc => span::COLLECT_SVAGC,
        CollectorKind::SvagcMemmove | CollectorKind::Custom(_) => span::COLLECT_MEMMOVE,
        CollectorKind::ParallelGc | CollectorKind::Shenandoah => span::COLLECT_BASELINES,
    }
}

/// What a replayed run leaves: the values checked against `driver::run`
/// and the frame counts only the replay can see.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Content hash of the final heap.
    pub heap_hash: u64,
    /// The counters `RunResult::registry` reports for the same run.
    pub registry: Registry,
    /// Most simulated DRAM frames in use at once.
    pub frames_peak: u32,
    /// Simulated DRAM frames the machine was built with.
    pub frames_provisioned: u32,
}

/// Refuse configurations whose `driver::run` path the replay does not make.
fn check_plain(cfg: &RunConfig) -> Result<(), String> {
    let plain = cfg.fault_rate == 0.0
        && !cfg.trace
        && !cfg.wal
        && cfg.crash_plans.is_empty()
        && cfg.wal_mutation.is_none()
        && cfg.frame_pool.is_none()
        && !cfg.pressure
        && cfg.wal_namespace == 0
        && !cfg.concurrent
        && cfg.dram_fraction.is_none();
    if plain {
        Ok(())
    } else {
        Err(
            "the layered replay covers only plain configurations (no faults, trace, WAL, \
             crash plans, frame pool, pressure, concurrent marking or tiering)"
                .into(),
        )
    }
}

/// Replay one run of `workload` under `cfg`, recording spans in `prof`.
pub fn replay(
    workload: &mut dyn Workload,
    cfg: &RunConfig,
    prof: &SharedProfile,
) -> Result<Replayed, String> {
    check_plain(cfg)?;
    // Heap sizing as `driver::run` does it: an aligned heap's minimum
    // includes its internal fragmentation (bounded at 5%).
    let min_heap = workload.min_heap_bytes();
    let min_effective = if cfg.collector.aligned_heap() {
        (min_heap as f64 * 1.05) as u64
    } else {
        min_heap
    };
    let heap_bytes = (min_effective as f64 * cfg.heap_factor) as u64;
    let oracle_on = cfg.tlb_oracle || std::env::var_os("SVAGC_TLB_ORACLE").is_some();

    let mut kernel = in_span(prof, span::KERNEL_WITH_BYTES, || {
        let mut k = Kernel::with_bytes(cfg.machine.clone(), heap_bytes + (16 << 20));
        if let Some(bw) = &cfg.bandwidth {
            k.share_bandwidth(bw);
        }
        k.set_instrumented(cfg.instrumented);
        k.set_tlb_oracle(oracle_on);
        k
    });
    let mut heap_cfg = HeapConfig::new(heap_bytes).with_alignment(cfg.collector.aligned_heap());
    if let Some(t) = cfg.threshold_pages {
        heap_cfg = heap_cfg.with_threshold(t);
    }
    let heap = in_span(prof, span::HEAP_NEW, || {
        Heap::new(&mut kernel, Asid(cfg.asid), heap_cfg)
    })
    .map_err(|e| e.to_string())?;
    let collector = TimedCollector {
        inner: cfg.collector.build_configured(
            cfg.gc_threads,
            cfg.verify_phases,
            cfg.deadline_cycles,
            cfg.degrade,
            cfg.retry,
            cfg.scheduler,
            cfg.core_base,
        ),
        span: collect_span(cfg.collector),
        prof: prof.clone(),
    };

    let mut env = JvmEnv::new(&mut kernel, heap, Box::new(collector));
    in_span(prof, span::SETUP, || workload.setup(&mut env)).map_err(|e| e.to_string())?;
    let steps = cfg.steps.unwrap_or_else(|| workload.default_steps());
    for s in 0..steps {
        in_span(prof, span::STEP, || workload.step(&mut env))
            .map_err(|e| format!("step {s}: {e}"))?;
    }
    in_span(prof, span::VERIFY, || workload.verify(&mut env))?;
    let JvmEnv {
        mut heap,
        collector,
        ..
    } = env;
    let heap_hash = in_span(prof, span::CONTENT_HASH, || {
        HeapVerifier::new().content_hash(&kernel, &mut heap)
    });

    let mut registry = Registry::new();
    kernel.perf.register_into(&mut registry);
    collector.log().register_into(&mut registry);
    let oracle = kernel.tlb_oracle_stats();
    if oracle.stale_hits > 0 || oracle.audit_violations > 0 {
        return Err(format!(
            "stale-TLB oracle: {} stale hit(s), {} audit violation(s)",
            oracle.stale_hits, oracle.audit_violations
        ));
    }
    registry.add("gc.tlb.stale_hits", oracle.stale_hits);
    registry.add("gc.tlb.audit_violations", oracle.audit_violations);
    if oracle.enabled {
        registry.add("gc.tlb.checks", oracle.checks);
    }
    Ok(Replayed {
        heap_hash,
        registry,
        frames_peak: kernel.vmem.frames.peak(),
        frames_provisioned: kernel.vmem.phys.frame_count(),
    })
}

/// Memory streams each fleet JVM registers with the shared bandwidth
/// model (its mutator plus GC copier threads), as `run_fleet` does.
const STREAMS_PER_JVM: usize = 4;

/// Replay every tenant of an `n`-JVM `run_multi` fleet under `base`, one
/// after the other, with the per-tenant settings `run_fleet` gives them.
/// Copy costs depend only on how many streams are registered, which is
/// constant for the fleet, so a sequential replay charges what the
/// host-parallel fleet charged.
pub fn replay_fleet(
    n: usize,
    make: impl Fn(usize) -> Box<dyn Workload>,
    base: &RunConfig,
    prof: &SharedProfile,
) -> Vec<Result<Replayed, String>> {
    let bandwidth = BandwidthModel::new();
    let _streams: Vec<_> = (0..n * STREAMS_PER_JVM)
        .map(|_| bandwidth.register())
        .collect();
    let core_share = (base.machine.cores / n).max(1);
    (0..n)
        .map(|i| {
            let mut cfg = base.clone();
            cfg.bandwidth = Some(bandwidth.clone());
            cfg.effective_cores = Some(core_share);
            cfg.asid = (i + 1) as u16;
            cfg.core_base = i * core_share;
            replay(make(i).as_mut(), &cfg, prof)
        })
        .collect()
}
