//! Command-line driver: run any benchmark under any collector without
//! writing code. `bin/svagc_cli` is a thin `main` over [`run`], which
//! returns what the binary prints and the code it exits with; the tier-1
//! table in `tests/cli_matrix.rs` calls [`run`] in-process.
//!
//! ```text
//! svagc list
//! svagc run --workload Sigverify --collector svagc --heap-factor 1.2
//! svagc run --workload Sparse.large --collector parallelgc --steps 40 --instrumented
//! svagc multi --jvms 8 --collector svagc --gc-threads 4
//! ```

use crate::report::{HostInfo, Report};
use std::fmt::Write as _;
use std::str::FromStr;
use svagc_core::protocol::{self, ModelConfig};
use svagc_core::{CycleClass, DegradePolicy, DegradedMode, RetryPolicy, SchedulerKind};
use svagc_kernel::{CrashPlan, FlushMode, WalMutation};
use svagc_metrics::MachineConfig;
use svagc_workloads::driver::{run_with_crash, CollectorKind, CrashOutcome, RunConfig};
use svagc_workloads::lrucache::LruCache;
use svagc_workloads::multijvm::{run_multi, TenantOutcome};
use svagc_workloads::noisy::{self, NoisySpec};
use svagc_workloads::suite;

/// What one invocation prints on each stream and the code it exits with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOutput {
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
}

const USAGE: &str = "usage:
  svagc list
  svagc run --workload <name> [--collector svagc|memmove|parallelgc|shenandoah]
            [--heap-factor <f>] [--gc-threads <n>] [--steps <n>]
            [--machine 6130|6240|i5] [--threshold <pages>] [--instrumented]
            [--fault-rate <p>] [--fault-seed <n>] [--fault-permanent]
            [--swap-fallback-budget <n>] [--verify-phases]
            [--gc-deadline-cycles <n>] [--degrade-policy off|standard|standard:N]
            [--trace <out.json>] [--trace-summary] [--bench-json <out.json>]
            [--tlb-oracle] [--wal] [--crash-plan <pt[:n],...>]
            [--wal-mutate skip-commit|drop-intent|corrupt-preimage]
            [--scheduler barrier|packets] [--core-base <n>] [--concurrent]
            [--dram-fraction <f>] [--device-fault-rate <p>]
            [--device-fault-seed <n>] [--device-offline-after <n>]
  svagc recover ...same flags as run...
  svagc multi --jvms <n> [--collector ...] [--gc-threads <n>]
            [--scheduler barrier|packets]
  svagc fleet [--tenants <n>] [--victims <i,j,...>] [--victim-fault-rate <p>]
            [--seed <n>] [--steps <n>] [--live-objects <n>]
            [--quota-fraction <f>] [--max-attempts <n>] [--no-pressure]
            [--machine 6130|6240|i5]
  svagc protocol-check [--deep]

  --dram-fraction <f> arm cold-object tiering: keep this fraction of the
                      heap's pages resident in DRAM and demote the cold
                      rest to a simulated far-memory device after every
                      GC cycle. The run ends with a promote-all and the
                      invisibility oracle (residency and device empty,
                      heap hash equal to the DRAM-only run's)
  --device-fault-rate <p>  per-device-request fault probability, split
                      across transient EIO / latency spikes / torn
                      writebacks; the retry ladder absorbs them
  --device-fault-seed <n>  seed of the device fault plan
  --device-offline-after <n>  kill the far device for good after n
                      requests: writebacks degrade the run to DRAM-only
                      mode; a lost fetch exits 16 (device failed)
  --concurrent        SATB concurrent marking: tracing overlaps mutator
                      execution (charged as interference, not pause);
                      only initial mark, the SATB-buffer drain, and
                      compaction stay in the pause. The compacted heap is
                      bit-identical to the STW run's. LISP2 collectors
                      (svagc | memmove) wrap in the concurrent collector;
                      shenandoah arms its SATB barrier so its final-mark
                      charge is proportional to logged work; parallelgc
                      is unchanged
  --scheduler         bucket policy of the GC schedule engine: barrier
                      (default; each phase's bucket opens after the
                      previous one drains, one packet per object) or
                      packets (buckets overlap: chunked packets run when
                      their dependencies complete, with deterministic
                      work stealing, so workers flow across phases)
  --core-base <n>     first machine core the GC workers pin to (worker w
                      runs on core (n + w) mod cores; multi-JVM runs set
                      disjoint bases automatically)
  --gc-deadline-cycles <n>  per-phase watchdog budget in virtual cycles; a
                      phase exceeding it aborts the GC cycle and rolls it
                      back through the compaction journal
  --degrade-policy    circuit breaker applied after aborted cycles:
                      off (default; aborts propagate as errors), standard
                      (normal -> memmove-only -> single-threaded, recover
                      after 2 clean cycles), or standard:N (probation N)
  --trace <out.json>  write a Chrome trace_event JSON (chrome://tracing,
                      https://ui.perfetto.dev) of every GC phase, SwapVA
                      call, shootdown, and fault event, timestamped in
                      virtual cycles
  --trace-summary     print a per-phase/per-event text digest and the
                      unified counter registry instead of raw JSON
  --bench-json <out>  write a svagc-bench-report-v1 BENCH record of the
                      run: the unified counter registry plus derived
                      pause/throughput scalars in the simulated plane
                      (digested), host wall time outside it
  --tlb-oracle        run under the stale-translation oracle: every TLB
                      hit is cross-checked against the live page table
                      and every flush audited against the Algorithm 4
                      preconditions; any violation fails the run
  --wal               arm the kernel write-ahead journal for PTE-mutating
                      GC operations (implied by --crash-plan)
  --crash-plan        seeded crash points, comma-separated `point[:n]`
                      (the machine dies at the n-th occurrence; n
                      defaults to 1): before-batch, inside-batch,
                      after-batch, mid-ipi, mid-rollback, mid-log-append,
                      inside-recovery, mid-demote-writeback,
                      mid-promote-fetch.
                      `run` exits 13 when a crash fires; `recover`
                      reboots the dead machine, replays the journal, and
                      exits 0 only if the rebuilt heap hashes
                      bit-identically to a pre- or post-cycle snapshot
                      (14 if recovery fails closed)
  --wal-mutate        seeded journal corruption (teeth testing): a
                      correct recovery MUST fail closed under it
  recover             like `run`, but after a seeded crash the machine is
                      rebooted and the recovery state machine replays the
                      write-ahead journal (see --crash-plan)

  fleet               the noisy-neighbor chaos harness: N tenants churn
                      under a shared frame pool (per-tenant quotas, GC
                      headroom, pressure ladder) while the victim tenants
                      get seeded permanent SwapVA faults; a fault-free
                      twin fleet runs alongside and both blast-radius
                      oracles are applied (isolation: healthy heaps
                      bit-identical to the twin's; frame-leak: pool
                      in-use == survivors' footprints, ownership audit
                      clean). Quarantines are reported per tenant with
                      their classified failure; the fleet itself exits 0
                      when every tenant completed and the oracles held,
                      1 on an oracle violation, or the first quarantined
                      tenant's failure code (quarantine is the expected
                      outcome for a faulted victim — scripts assert on
                      it, they don't treat it as a harness error)

  exit codes: 0 ok | 1 error | 2 usage | 10 watchdog deadline |
              11 fault abort | 12 degraded-mode ladder exhausted |
              13 machine crashed | 14 recovery failed |
              15 tenant out of memory | 16 far device failed

  protocol-check      exhaustively model-check the three TLB-coherence
                      protocols (GlobalBroadcast / LocalOnly / Tracked)
                      and run the seeded mutation suite; --deep adds a
                      larger 4-core x 4-page universe. Exit 1 if a real
                      protocol has a counterexample or a seeded bug goes
                      undetected";

/// `println!` into a captured stream.
macro_rules! say {
    ($buf:expr $(, $($fmt:tt)+)?) => {{
        let _ = writeln!($buf $(, $($fmt)+)?);
    }};
}

/// An early exit: its code and what it writes to stderr.
struct Exit(i32, String);

fn fail(code: i32, msg: impl std::fmt::Display) -> Exit {
    Exit(code, format!("{msg}\n"))
}

/// A usage error: the reason, then the usage text; exit 2.
fn usage(why: impl std::fmt::Display) -> Exit {
    Exit(2, format!("{why}\n{USAGE}\n"))
}

/// Run one invocation (`args` without the program name) and capture it.
pub fn run(args: &[String]) -> CliOutput {
    let (mut stdout, mut stderr) = (String::new(), String::new());
    let code = match dispatch(args, &mut stdout, &mut stderr) {
        Ok(()) => 0,
        Err(Exit(code, msg)) => {
            stderr.push_str(&msg);
            code
        }
    };
    CliOutput { code, stdout, stderr }
}

fn dispatch(args: &[String], out: &mut String, err: &mut String) -> Result<(), Exit> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("list") => list(out),
        Some(cmd @ ("run" | "recover")) => run_or_recover(cmd, &Flags::parse(rest)?, out, err),
        Some("multi") => multi(&Flags::parse(rest)?, out),
        Some("fleet") => fleet(&Flags::parse(rest)?, out),
        Some("protocol-check") => protocol_check(&Flags::parse(rest)?, out),
        _ => Err(Exit(2, format!("{USAGE}\n"))),
    }
}

fn parse_collector(s: &str) -> Result<CollectorKind, Exit> {
    match s {
        "svagc" => Ok(CollectorKind::Svagc),
        "memmove" => Ok(CollectorKind::SvagcMemmove),
        "parallelgc" => Ok(CollectorKind::ParallelGc),
        "shenandoah" => Ok(CollectorKind::Shenandoah),
        other => Err(usage(format!("unknown collector {other:?}"))),
    }
}

fn parse_scheduler(s: &str) -> Result<SchedulerKind, Exit> {
    SchedulerKind::parse(s)
        .ok_or_else(|| usage(format!("unknown scheduler {s:?} (barrier | packets)")))
}

fn parse_machine(s: &str) -> Result<MachineConfig, Exit> {
    match s {
        "6130" => Ok(MachineConfig::xeon_gold_6130()),
        "6240" => Ok(MachineConfig::xeon_gold_6240()),
        "i5" => Ok(MachineConfig::i5_7600()),
        other => Err(usage(format!("unknown machine {other:?}"))),
    }
}

/// Flags that take no value.
#[rustfmt::skip]
const SWITCHES: [&str; 9] = [
    "instrumented",
    "verify-phases",
    "trace-summary",
    "tlb-oracle",
    "wal",
    "fault-permanent",
    "no-pressure",
    "deep",
    "concurrent",
];

/// Tiny flag parser: `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, Exit> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(usage(format!("unexpected argument {a:?}")));
            };
            let value = if SWITCHES.contains(&key) {
                "true"
            } else {
                it.next().ok_or_else(|| usage(format!("missing value for --{key}")))?
            };
            out.push((key.to_string(), value.to_string()));
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// `--key` parsed as a `T`; an unparseable value is a usage error.
    fn num<T: FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, Exit> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| usage(format!("--{key} expects {what}, got {v:?}"))))
            .transpose()
    }
}

fn list(out: &mut String) -> Result<(), Exit> {
    say!(out, "workloads:");
    for w in suite::standard_suite() {
        say!(
            out,
            "  {:<16} threads {:>4}  min heap {:>7.1} MiB",
            w.name(),
            w.threads(),
            w.min_heap_bytes() as f64 / (1 << 20) as f64
        );
    }
    say!(out, "  {:<16} threads {:>4}  (multi-JVM scalability workload)", "LRUCache", 1);
    say!(out, "collectors: svagc | memmove | parallelgc | shenandoah");
    Ok(())
}

fn run_or_recover(cmd: &str, fs: &Flags, out: &mut String, err: &mut String) -> Result<(), Exit> {
    let do_recover = cmd == "recover";
    let name = fs.get("workload").ok_or_else(|| usage("--workload is required"))?;
    let mut w = suite::by_name(name)
        .ok_or_else(|| fail(2, format!("unknown workload {name:?} (try `svagc list`)")))?;
    let mut cfg = RunConfig::new(parse_collector(fs.get("collector").unwrap_or("svagc"))?);
    cfg.machine = parse_machine(fs.get("machine").unwrap_or("6130"))?;
    cfg.heap_factor = fs.num("heap-factor", "a float")?.unwrap_or(cfg.heap_factor);
    cfg.gc_threads = fs.num("gc-threads", "an integer")?.unwrap_or(cfg.gc_threads);
    cfg.steps = fs.num("steps", "an integer")?;
    cfg.threshold_pages = fs.num("threshold", "pages")?;
    cfg.instrumented = fs.has("instrumented");
    cfg.verify_phases = fs.has("verify-phases");
    cfg.concurrent = fs.has("concurrent");
    cfg.fault_rate = fs.num("fault-rate", "a probability")?.unwrap_or(cfg.fault_rate);
    cfg.fault_seed = fs.num("fault-seed", "an integer")?.unwrap_or(cfg.fault_seed);
    cfg.fault_permanent_only = fs.has("fault-permanent");
    if let Some(budget) = fs.num("swap-fallback-budget", "an integer")? {
        cfg.retry = Some(RetryPolicy::default().with_fallback_budget(Some(budget)));
    }
    cfg.deadline_cycles = fs.num("gc-deadline-cycles", "cycles")?;
    if let Some(p) = fs.get("degrade-policy") {
        cfg.degrade = DegradePolicy::parse(p).ok_or_else(|| {
            usage(format!("unknown degrade policy {p:?} (off | standard | standard:N)"))
        })?;
    }
    let trace_path = fs.get("trace");
    let trace_summary = fs.has("trace-summary");
    cfg.trace = trace_path.is_some() || trace_summary;
    cfg.tlb_oracle = fs.has("tlb-oracle");
    cfg.wal = fs.has("wal");
    if let Some(spec) = fs.get("crash-plan") {
        for part in spec.split(',') {
            let plan = CrashPlan::parse(part)
                .ok_or_else(|| usage(format!("bad crash plan {part:?} (want point[:n])")))?;
            cfg.crash_plans.push(plan);
        }
    }
    if let Some(m) = fs.get("wal-mutate") {
        cfg.wal_mutation = Some(WalMutation::parse(m).ok_or_else(|| {
            usage(format!(
                "unknown WAL mutation {m:?} (skip-commit | drop-intent | corrupt-preimage)"
            ))
        })?);
    }
    if let Some(s) = fs.get("scheduler") {
        cfg.scheduler = parse_scheduler(s)?;
    }
    cfg.core_base = fs.num("core-base", "an integer")?.unwrap_or(cfg.core_base);
    cfg.dram_fraction = fs.num("dram-fraction", "a float")?;
    cfg.device_fault_rate =
        fs.num("device-fault-rate", "a probability")?.unwrap_or(cfg.device_fault_rate);
    cfg.device_fault_seed =
        fs.num("device-fault-seed", "an integer")?.unwrap_or(cfg.device_fault_seed);
    cfg.device_offline_after = fs.num("device-offline-after", "an integer")?;

    let t0 = std::time::Instant::now();
    let outcome = run_with_crash(w.as_mut(), &cfg, do_recover)
        .map_err(|f| fail(f.kind.exit_code(), format!("{cmd} failed: {f}")))?;
    let r = match outcome {
        CrashOutcome::Completed(r) => {
            if do_recover && cfg.crash_plans.is_empty() {
                say!(err, "note: no crash plan armed; the run completed normally");
            }
            *r
        }
        CrashOutcome::Crashed(rep) => {
            say!(
                out,
                "crash        : machine died at {} after {} completed step(s)",
                rep.point,
                rep.steps_completed
            );
            let Some(rec) = &rep.recovery else {
                return Err(fail(
                    13,
                    "machine crashed (re-run with `recover` to replay the journal)",
                ));
            };
            let rr = rec.outcome.as_ref().map_err(|why| {
                fail(14, format!("recovery FAILED closed after {} attempt(s): {why}", rec.attempts))
            })?;
            let snapshot =
                if rr.class == CycleClass::Committed { "post-cycle" } else { "pre-cycle" };
            say!(
                out,
                "recovery     : epoch {} {} | {} op(s) / {} page(s) undone | {} attempt(s)",
                rr.epoch,
                rr.class.name(),
                rr.undone_ops,
                rr.undone_pages,
                rec.attempts
            );
            say!(
                out,
                "heap         : {} objects, {} roots rebuilt from the journal",
                rr.objects,
                rr.roots
            );
            say!(out, "heap hash    : {:#018x}", rr.content_hash);
            say!(out, "verify       : ok (bit-identical to the {snapshot} snapshot)");
            if let Some(path) = fs.get("bench-json") {
                let mut rep2 = Report::new(
                    "cli_recover",
                    &format!("{name} crash recovery ({})", cfg.machine.name),
                );
                rep2.counters_from(&rep.registry());
                write_bench(path, &rep2, t0.elapsed().as_secs_f64() * 1e3, out)?;
            }
            return Ok(());
        }
    };
    let host_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    say!(out, "workload     : {}", r.workload);
    say!(out, "collector    : {}", r.collector);
    if cfg.scheduler == SchedulerKind::Packets {
        say!(
            out,
            "scheduler    : packets ({} packets | {} steals | {} steal cycles)",
            r.gc.total_sched_packets(),
            r.gc.total_sched_steals(),
            r.gc.total_sched_steal_cycles()
        );
    }
    say!(
        out,
        "heap         : {:.1} MiB ({}x of {:.1} MiB minimum)",
        r.heap_bytes as f64 / (1 << 20) as f64,
        cfg.heap_factor,
        r.min_heap_bytes as f64 / (1 << 20) as f64
    );
    say!(out, "steps        : {}", r.steps);
    say!(out, "full GCs     : {}", r.gc.count());
    say!(
        out,
        "GC pause     : total {:.3} ms | avg {:.3} ms | max {:.3} ms",
        r.gc_total_ms(),
        r.gc_avg_ms(),
        r.gc_max_ms()
    );
    say!(
        out,
        "app / total  : {:.3} ms / {:.3} ms  (throughput {:.1} steps/s)",
        r.app_wall.at_ghz(r.freq_ghz).as_millis(),
        r.total_wall.at_ghz(r.freq_ghz).as_millis(),
        r.throughput()
    );
    say!(
        out,
        "moved        : {} objects swapped (zero-copy), {:.2} MiB memmoved",
        r.perf.objects_swapped,
        r.perf.bytes_copied as f64 / (1 << 20) as f64
    );
    if cfg.instrumented {
        say!(
            out,
            "cache miss   : {:.2}%   dtlb miss: {:.2}%",
            r.perf.cache_miss_pct(),
            r.perf.dtlb_miss_pct()
        );
    }
    if cfg.fault_rate > 0.0 {
        say!(
            out,
            "resilience   : {} faults injected | {} retries | {} fallbacks | {} batch splits",
            r.gc.total_faults_injected(),
            r.gc.total_swap_retries(),
            r.gc.total_swap_fallbacks(),
            r.gc.total_batch_splits()
        );
    }
    if cfg.deadline_cycles.is_some() || cfg.degrade.enabled || r.gc.total_aborts() > 0 {
        say!(
            out,
            "transactions : {} aborts | {} watchdog expiries | {} pages rolled back | peak mode {}",
            r.gc.total_aborts(),
            r.gc.total_watchdog_expiries(),
            r.gc.total_rollback_pages(),
            DegradedMode::from_level(r.gc.max_mode()).name()
        );
    }
    if r.tier_mode != "off" {
        say!(
            out,
            "far tier     : mode {} | {} demotions | {} promotions | {} on-access \
             fetches | {} retries | {} device fault(s) | degraded {} / recovered {}",
            r.tier_mode,
            r.tier.demotions,
            r.tier.promotions,
            r.tier.fetch_on_access,
            r.tier.writeback_retries + r.tier.fetch_retries,
            r.device.faults,
            r.tier_ctl.degraded,
            r.tier_ctl.recovered
        );
        say!(out, "tier oracle  : ok (residency and device empty, heap fully resident)");
    }
    if r.tlb_oracle.enabled {
        say!(
            out,
            "tlb oracle   : {} hits checked | {} stale | {} audit violations",
            r.tlb_oracle.checks,
            r.tlb_oracle.stale_hits,
            r.tlb_oracle.audit_violations
        );
    }
    say!(out, "heap hash    : {:#018x}", r.heap_hash);
    say!(out, "verify       : {}", if r.verify_ok { "ok" } else { "FAILED" });
    if let Some(path) = trace_path {
        let json = svagc_metrics::chrome_trace_json(&r.trace);
        std::fs::write(path, &json)
            .map_err(|e| fail(1, format!("cannot write trace to {path:?}: {e}")))?;
        say!(out, "trace        : {} events -> {path}", r.trace.len());
    }
    if trace_summary {
        say!(out);
        say!(out, "{}", svagc_metrics::trace_summary(&r.trace, 10, cfg.machine.cores));
        say!(out, "-- counter registry --");
        say!(out, "{}", r.registry().render());
    }
    if let Some(path) = fs.get("bench-json") {
        let mut rep = Report::new(
            "cli_run",
            &format!("{} under {} ({})", r.workload, r.collector, cfg.machine.name),
        );
        rep.counters_from(&r.registry());
        rep.counter("gc.pause_cycles", r.gc_pause_cycles());
        rep.counter("sim.total_cycles", r.total_cycles());
        rep.derived("gc_total_ms", r.gc_total_ms());
        rep.derived("gc_avg_ms", r.gc_avg_ms());
        rep.derived("gc_max_ms", r.gc_max_ms());
        rep.derived("throughput_steps_per_s", r.throughput());
        write_bench(path, &rep, host_wall_ms, out)?;
    }
    Ok(())
}

/// Write `rep` as a single-threaded run's BENCH record and report its digest.
fn write_bench(path: &str, rep: &Report, wall_ms: f64, out: &mut String) -> Result<(), Exit> {
    let host = HostInfo { wall_ms, threads: 1, parallel: false };
    std::fs::write(path, rep.bench_json(&host))
        .map_err(|e| fail(1, format!("cannot write BENCH record to {path:?}: {e}")))?;
    say!(out, "bench json   : {} -> {path}", rep.sim_digest());
    Ok(())
}

fn multi(fs: &Flags, out: &mut String) -> Result<(), Exit> {
    let n: usize = fs.num("jvms", "an integer")?.ok_or_else(|| usage("--jvms is required"))?;
    let mut base = RunConfig::new(parse_collector(fs.get("collector").unwrap_or("svagc"))?);
    base.machine = parse_machine(fs.get("machine").unwrap_or("6130"))?;
    base.gc_threads = fs.num("gc-threads", "an integer")?.unwrap_or(4);
    if let Some(s) = fs.get("scheduler") {
        base.scheduler = parse_scheduler(s)?;
    }
    let res = run_multi(n, |i| Box::new(LruCache::new(192, 2 << 20, 8, 100 + i as u64)), &base)
        .map_err(|e| fail(1, format!("multi-JVM run failed: {e}")))?;
    say!(out, "JVMs         : {n} x LRUCache on {}", base.machine.name);
    say!(out, "collector    : {}", base.collector.label());
    say!(
        out,
        "per-JVM mean : GC total {:.3} ms | GC max {:.3} ms | app {:.2} ms | total {:.2} ms",
        res.avg_gc_total_ms(),
        res.avg_gc_max_ms(),
        res.avg_app_ms(),
        res.avg_total_ms()
    );
    Ok(())
}

fn fleet(fs: &Flags, out: &mut String) -> Result<(), Exit> {
    let mut spec = NoisySpec::standard(
        fs.num("victim-fault-rate", "a probability")?.unwrap_or(0.10),
        fs.num("seed", "an integer")?.unwrap_or(42),
    );
    spec.tenants = fs.num("tenants", "an integer")?.unwrap_or(spec.tenants);
    if let Some(v) = fs.get("victims") {
        spec.victims = v
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| usage(format!("--victims expects indices i,j,..., got {v:?}")))?;
    }
    spec.steps = fs.num("steps", "an integer")?.unwrap_or(spec.steps);
    spec.live_objects = fs.num("live-objects", "an integer")?.unwrap_or(spec.live_objects);
    spec.quota_fraction = fs.num("quota-fraction", "a float")?.unwrap_or(spec.quota_fraction);
    spec.max_attempts = fs.num("max-attempts", "an integer")?.unwrap_or(spec.max_attempts);
    spec.pressure = !fs.has("no-pressure");
    if spec.victims.iter().any(|&v| v >= spec.tenants) {
        return Err(usage("--victims indices must be < --tenants"));
    }
    let mut base = RunConfig::new(noisy::default_collector());
    base.machine = parse_machine(fs.get("machine").unwrap_or("6130"))?;
    let res = noisy::run_noisy_neighbor(&spec, &base)
        .map_err(|e| fail(1, format!("fleet FAILED: {e}")))?;
    let (quota, headroom) = noisy::quota_frames(&spec, base.heap_factor);
    say!(
        out,
        "fleet        : {} tenants x {} quota frames ({} GC headroom), pressure {}",
        spec.tenants,
        quota,
        headroom,
        if spec.pressure { "on" } else { "off" }
    );
    say!(
        out,
        "victims      : {:?} at {:.1}% permanent fault rate, {} attempt(s)",
        spec.victims,
        100.0 * spec.victim_fault_rate,
        spec.max_attempts
    );
    let mut first_quarantine: Option<i32> = None;
    for (i, o) in res.faulty.outcomes.iter().enumerate() {
        match o {
            TenantOutcome::Completed(r) => say!(
                out,
                "tenant {i:>2}    : completed | {} frames | throughput {:.1} steps/s | \
                 pressure remedies {} | heap hash {:#018x}",
                r.frames_in_use,
                r.throughput(),
                r.pressure.denial_remedies
                    + r.pressure.signal_minor_gcs
                    + r.pressure.signal_full_gcs,
                r.heap_hash
            ),
            TenantOutcome::Quarantined { kind, message, attempts, frames_reclaimed } => {
                first_quarantine.get_or_insert(kind.exit_code());
                say!(
                    out,
                    "tenant {i:>2}    : QUARANTINED [{}] after {attempts} attempt(s), \
                     {frames_reclaimed} frame(s) reclaimed: {message}",
                    kind.label()
                );
            }
        }
    }
    say!(
        out,
        "isolation    : ok ({} healthy tenant(s) bit-identical to the fault-free twin)",
        res.isolation_compared
    );
    say!(
        out,
        "frame leak   : ok ({} frame(s) audited, pool in-use == survivors' footprints)",
        res.frames_audited
    );
    // A quarantine is the expected outcome for a faulted victim: the fleet
    // exits with the first quarantined tenant's failure code, no message.
    first_quarantine.map_or(Ok(()), |code| Err(Exit(code, String::new())))
}

fn protocol_check(fs: &Flags, out: &mut String) -> Result<(), Exit> {
    let mut universes = vec![("default", ModelConfig::default_check())];
    if fs.has("deep") {
        // Larger bound: 4 cores x 4 pages x a 3-swap chain. Too slow
        // for the debug test suite; the CI protocol-check job runs it
        // in release mode.
        universes.push((
            "deep",
            ModelConfig {
                cores: 4,
                pages: 4,
                swaps: vec![(0, 1), (1, 2), (2, 3)],
                max_cycle_reads: 2,
                max_migrations: 1,
            },
        ));
    }
    let mut failed = false;
    for (label, cfg) in &universes {
        say!(
            out,
            "universe {label}: {} cores x {} pages, swaps {:?}, \
             <= {} mutator reads, <= {} migrations",
            cfg.cores,
            cfg.pages,
            cfg.swaps,
            cfg.max_cycle_reads,
            cfg.max_migrations
        );
        for mode in [FlushMode::GlobalBroadcast, FlushMode::LocalOnly, FlushMode::Tracked] {
            let rep = protocol::check_protocol(mode, cfg);
            match &rep.counterexample {
                None => say!(
                    out,
                    "  {mode:?}: no stale translation over {} states",
                    rep.states_explored
                ),
                Some(cex) => {
                    failed = true;
                    say!(out, "  {mode:?}: VIOLATION after {} states:\n{cex}", rep.states_explored);
                }
            }
        }
        say!(out, "  mutation suite:");
        for rep in protocol::mutation_suite(cfg) {
            let m = rep.mutation.expect("suite reports carry their mutation");
            match &rep.counterexample {
                Some(cex) => say!(
                    out,
                    "  [detected] {} ({:?}, {} states):\n{cex}",
                    m.label(),
                    rep.mode,
                    rep.states_explored
                ),
                None => {
                    failed = true;
                    say!(
                        out,
                        "  [MISSED] {} ({:?}) — checker has no teeth for this bug",
                        m.label(),
                        rep.mode
                    );
                }
            }
        }
    }
    if failed {
        return Err(fail(1, "protocol-check FAILED"));
    }
    say!(out, "protocol-check ok");
    Ok(())
}
