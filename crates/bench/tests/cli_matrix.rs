//! The `svagc_cli` matrix: every crash, chaos, tiering, scheduler,
//! concurrent-marking and tenant-isolation cell driven through the CLI,
//! as one table run in-process through `svagc_bench::cli::run`.
//!
//! Each row pins its exit code, substrings its stdout / stderr must or
//! must not contain, and optionally a reference row whose heap hash it
//! must reproduce. The substring checks are what keep a pass non-vacuous:
//! a crash row that exits 0 without "machine died at <pt>" never crashed.
//! Rows are memoised by their args, so a reference shared by several
//! tables runs once per process. Rate-0 cells take no seed, so each runs
//! once for all seeds.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use svagc_bench::cli::{self, CliOutput};

/// Fault seeds of the chaos, crash and packet matrices.
const SEEDS: [&str; 3] = ["1024023", "7", "99"];
/// Device fault seeds of the tiering matrix.
const TIER_SEEDS: [&str; 3] = ["53710", "7", "99"];
/// Fleet seeds of the tenant-isolation matrix.
const FLEET_SEEDS: [&str; 3] = ["42", "7", "99"];
/// The crash points a GC cycle passes through.
const CYCLE_POINTS: [&str; 3] = ["before-batch", "inside-batch", "after-batch"];

/// Fault-free LRUCache under SVAGC with phase verification and the TLB
/// oracle: the heap hash every fault, tier, scheduler and concurrent row
/// must reproduce.
const LRU: &str = "run --workload LRUCache --collector svagc --verify-phases --tlb-oracle";
/// The LRUCache crash-recovery invocation every crash row extends.
const RECOVER: &str = "recover --workload LRUCache --collector svagc --verify-phases --tlb-oracle";

const DIED: &str = "crash        : machine died at ";
const RECOVERED: &str = "verify       : ok (bit-identical";

struct Row {
    args: String,
    codes: &'static [i32],
    /// Substrings stdout must contain.
    out: Vec<String>,
    /// Substrings stderr must contain.
    err: Vec<String>,
    /// Substrings stdout must not contain.
    not_out: Vec<String>,
    /// Args of the row whose heap hash this row must equal.
    hash_of: Option<String>,
    /// Exact number of `QUARANTINED` tenant lines.
    quarantined: Option<usize>,
}

impl Row {
    fn new(args: impl Into<String>) -> Row {
        Row {
            args: args.into(),
            codes: &[0],
            out: Vec::new(),
            err: Vec::new(),
            not_out: Vec::new(),
            hash_of: None,
            quarantined: None,
        }
    }
    fn exits(mut self, codes: &'static [i32]) -> Row {
        self.codes = codes;
        self
    }
    fn out(mut self, s: impl Into<String>) -> Row {
        self.out.push(s.into());
        self
    }
    fn err(mut self, s: &str) -> Row {
        self.err.push(s.to_string());
        self
    }
    fn not_out(mut self, s: &str) -> Row {
        self.not_out.push(s.to_string());
        self
    }
    fn hash_of(mut self, args: &str) -> Row {
        self.hash_of = Some(args.to_string());
        self
    }
    fn quarantined(mut self, n: usize) -> Row {
        self.quarantined = Some(n);
        self
    }
    /// A crash row: `point` (`name[:n]`) must fire and recovery must land
    /// on a verified snapshot.
    fn recovers(self, point: &str) -> Row {
        let name = point.split(':').next().unwrap();
        self.out(format!("{DIED}{name}")).out(RECOVERED)
    }
}

/// `cli::run` on whitespace-separated `args`, once per process.
fn run(args: &str) -> &'static CliOutput {
    static RUNS: Mutex<BTreeMap<String, &'static OnceLock<CliOutput>>> =
        Mutex::new(BTreeMap::new());
    let cell =
        *RUNS.lock().unwrap().entry(args.to_string()).or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| cli::run(&args.split_whitespace().map(String::from).collect::<Vec<_>>()))
}

fn heap_hash(stdout: &str) -> Option<&str> {
    stdout.lines().find(|l| l.starts_with("heap hash"))?.split_whitespace().last()
}

/// Run every row and report all failing rows at once.
fn check(rows: Vec<Row>) {
    let mut failures = Vec::new();
    for row in &rows {
        let o = run(&row.args);
        let mut why = Vec::new();
        if !row.codes.contains(&o.code) {
            why.push(format!("exit code {} (want one of {:?})", o.code, row.codes));
        }
        for s in row.out.iter().filter(|s| !o.stdout.contains(*s)) {
            why.push(format!("stdout lacks {s:?}"));
        }
        for s in row.err.iter().filter(|s| !o.stderr.contains(*s)) {
            why.push(format!("stderr lacks {s:?}"));
        }
        for s in row.not_out.iter().filter(|s| o.stdout.contains(*s)) {
            why.push(format!("stdout has {s:?}"));
        }
        if o.stdout.contains("verify       : FAILED") {
            why.push("end-of-run verification failed".into());
        }
        let quarantines: Vec<&str> =
            o.stdout.lines().filter(|l| l.contains("QUARANTINED")).collect();
        // Every casualty carries a classified failure, whatever the row.
        for l in &quarantines {
            if !(l.contains("[fault-abort]") || l.contains("[out-of-memory]")) {
                why.push(format!("unclassified quarantine: {l}"));
            }
        }
        if let Some(n) = row.quarantined.filter(|&n| n != quarantines.len()) {
            why.push(format!("{} QUARANTINED tenants (want {n})", quarantines.len()));
        }
        if let Some(reference) = &row.hash_of {
            let (want, got) = (heap_hash(&run(reference).stdout), heap_hash(&o.stdout));
            if want.is_none() || want != got {
                why.push(format!("heap hash {got:?} != {want:?} of `{reference}`"));
            }
        }
        if !why.is_empty() {
            failures.push(format!(
                "svagc_cli {}\n  {}\n--- stdout\n{}--- stderr\n{}",
                row.args,
                why.join("\n  "),
                o.stdout,
                o.stderr
            ));
        }
    }
    let n = failures.len();
    assert!(n == 0, "{n} of {} rows failed:\n{}", rows.len(), failures.join("\n"));
}

/// The fault flags of one cell per seed; a rate-0 cell takes no seed, so
/// it is one cell with no flags.
fn per_seed(rate: &str, seeds: &[&str], flags: impl Fn(&str) -> String) -> Vec<String> {
    if rate == "0" {
        return vec![String::new()];
    }
    seeds.iter().map(|s| flags(s)).collect()
}

/// Seeded SwapVA faults under the standard degrade policy.
fn faults(rate: &str, seeds: &[&str]) -> Vec<String> {
    per_seed(rate, seeds, |s| {
        format!(" --fault-rate {rate} --fault-seed {s} --degrade-policy standard")
    })
}

/// Seeded far-memory device faults.
fn device_faults(rate: &str) -> Vec<String> {
    per_seed(rate, &TIER_SEEDS, |s| format!(" --device-fault-rate {rate} --device-fault-seed {s}"))
}

#[test]
fn chaos() {
    let args = "run --workload LRUCache --collector svagc --fault-rate 0.01 --fault-seed 1024023 \
                --verify-phases";
    check(vec![Row::new(args).not_out("resilience   : 0 faults injected")]);
}

#[test]
fn chaos_matrix() {
    let mut rows = vec![Row::new(LRU)];
    for seed in SEEDS {
        for rate in ["0.01", "0.10", "0.50"] {
            rows.push(
                Row::new(format!(
                    "run --workload LRUCache --collector svagc --verify-phases --fault-rate {rate} \
                     --fault-seed {seed} --degrade-policy standard --tlb-oracle"
                ))
                .hash_of(LRU),
            );
        }
    }
    // A 1-cycle watchdog fails the run closed with a typed error.
    rows.push(
        Row::new(
            "run --workload Sigverify --collector svagc --gc-deadline-cycles 1 \
             --degrade-policy standard",
        )
        .exits(&[12])
        .err("watchdog deadline expired"),
    );
    check(rows);
}

#[test]
fn crash_matrix() {
    let mut rows = Vec::new();
    for pt in ["before-batch", "inside-batch", "after-batch", "mid-ipi", "mid-log-append"] {
        for rate in ["0", "0.01", "0.10"] {
            for flags in faults(rate, &SEEDS) {
                rows.push(Row::new(format!("{RECOVER} --crash-plan {pt}{flags}")).recovers(pt));
            }
        }
    }
    // A crash during an in-process rollback lands on the pre-cycle
    // snapshot. 1% permanent faults do not abort a cycle on every seed;
    // 2% and 10% do.
    for rate in ["0.02", "0.10"] {
        for seed in SEEDS {
            rows.push(
                Row::new(format!(
                    "{RECOVER} --crash-plan mid-rollback --fault-rate {rate} --fault-seed {seed} \
                     --fault-permanent --swap-fallback-budget 0"
                ))
                .out(format!("{DIED}mid-rollback"))
                .out("pre-cycle snapshot"),
            );
        }
    }
    // A plan that also fires inside recovery: the restarted recovery verifies.
    rows.push(
        Row::new(format!("{RECOVER} --crash-plan after-batch,inside-recovery:2"))
            .out("2 attempt(s)")
            .out(RECOVERED),
    );
    // Without recovery a fired crash exits 13.
    let crash = "run --workload LRUCache --collector svagc --crash-plan mid-ipi";
    rows.push(Row::new(crash).exits(&[13]));
    // Teeth: each WAL corruption must fail recovery closed (exit 14).
    let teeth = "recover --workload LRUCache --collector svagc --verify-phases --crash-plan";
    for (plan, mutation, message) in [
        ("after-batch", "drop-intent", "recovery FAILED closed"),
        ("mid-ipi:100", "skip-commit", "unresolved"),
        ("after-batch", "corrupt-preimage", "checksum"),
    ] {
        let args = format!("{teeth} {plan} --wal-mutate {mutation}");
        rows.push(Row::new(args).exits(&[14]).err(message));
    }
    check(rows);
}

#[test]
fn tiering_chaos() {
    let mut rows = vec![Row::new(LRU)];
    // Non-vacuous: the tier must arm and actually demote pages, or hash
    // equality would hold trivially.
    for frac in ["0.6", "0.3"] {
        for rate in ["0", "0.01", "0.10"] {
            for flags in device_faults(rate) {
                rows.push(
                    Row::new(format!("{LRU} --dram-fraction {frac}{flags}"))
                        .out("far tier     : mode tiered")
                        .not_out("| 0 demotions")
                        .out("tier oracle  : ok")
                        .hash_of(LRU),
                );
            }
        }
    }
    // The memmove collector is equally invisible under tier pressure: raw
    // bulk writes over demoted pages must resolve residency first.
    let memmove = "run --workload LRUCache --collector memmove --verify-phases";
    rows.push(Row::new(memmove));
    for seed in TIER_SEEDS {
        rows.push(
            Row::new(format!(
                "{memmove} --dram-fraction 0.3 --device-fault-rate 0.10 --device-fault-seed {seed}"
            ))
            .out("far tier     : mode tiered")
            .hash_of(memmove),
        );
    }
    check(rows);
}

#[test]
fn tiering_device_loss_and_crash() {
    let mut rows = Vec::new();
    let offline = "run --workload LRUCache --collector svagc --verify-phases --dram-fraction 0.3 \
                   --device-offline-after";
    // Device death at arming time degrades to DRAM-only.
    rows.push(
        Row::new(format!("{offline} 0"))
            .out("far tier     : mode dram-only")
            .out("tier oracle  : ok"),
    );
    // A far page lost to a dead device fails closed.
    rows.push(Row::new(format!("{offline} 500")).exits(&[16]).err("far-tier page lost"));
    for pt in ["mid-demote-writeback:8", "mid-promote-fetch"] {
        for rate in ["0", "0.10"] {
            for flags in device_faults(rate) {
                let args = format!("{RECOVER} --dram-fraction 0.3 --crash-plan {pt}{flags}");
                rows.push(Row::new(args).recovers(pt));
            }
        }
    }
    check(rows);
}

#[test]
fn packet_scheduler() {
    let mut rows = vec![Row::new(LRU)];
    for rate in ["0", "0.01", "0.10"] {
        for flags in faults(rate, &SEEDS[..1]) {
            rows.push(Row::new(format!("{LRU} --scheduler packets{flags}")).hash_of(LRU));
        }
    }
    for pt in CYCLE_POINTS {
        rows.push(
            Row::new(format!(
                "recover --workload LRUCache --collector svagc --scheduler packets --verify-phases \
                 --tlb-oracle --crash-plan {pt}"
            ))
            .recovers(pt),
        );
    }
    check(rows);
}

#[test]
fn concurrent_mode() {
    let mut rows = vec![Row::new(LRU)];
    for rate in ["0", "0.01", "0.10"] {
        for flags in faults(rate, &SEEDS[..1]) {
            // Non-vacuous: the run must go through the concurrent collector.
            rows.push(
                Row::new(format!("{LRU} --concurrent{flags}"))
                    .out("collector    : SVAGC-concurrent")
                    .hash_of(LRU),
            );
        }
    }
    for pt in CYCLE_POINTS {
        rows.push(
            Row::new(format!(
                "recover --workload LRUCache --collector svagc --concurrent --verify-phases \
                 --tlb-oracle --crash-plan {pt}"
            ))
            .recovers(pt),
        );
    }
    check(rows);
}

#[test]
fn tenant_isolation() {
    let mut rows = Vec::new();
    for seed in FLEET_SEEDS {
        for rate in ["0.01", "0.10"] {
            let fleet = format!("fleet --victim-fault-rate {rate} --seed {seed}");
            // Pressure on: exactly the victim falls, typed, and both
            // blast-radius oracles run to completion.
            rows.push(
                Row::new(fleet.clone())
                    .exits(&[11])
                    .out("QUARANTINED [fault-abort]")
                    .quarantined(1)
                    .out("isolation    : ok")
                    .out("frame leak   : ok"),
            );
            // Pressure off: the quota squeeze may claim more tenants, but
            // each casualty is classified and the exit code stable.
            rows.push(
                Row::new(format!("{fleet} --no-pressure"))
                    .exits(&[11, 15])
                    .out("QUARANTINED")
                    .out("frame leak   : ok"),
            );
        }
        rows.push(
            Row::new(format!("fleet --victim-fault-rate 0 --seed {seed}"))
                .not_out("QUARANTINED")
                .out("completed"),
        );
    }
    check(rows);
}

#[test]
fn usage_errors_exit_2() {
    check(vec![
        Row::new("run --workload LRUCache --fault-rate abc")
            .exits(&[2])
            .err("--fault-rate expects a probability"),
        Row::new("run --workload LRUCache --wal-mutate bogus").exits(&[2]).err("corrupt-preimage"),
    ]);
}

#[test]
fn trace_export_is_byte_deterministic() {
    let dir = std::env::temp_dir().join(format!("svagc_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let traces: Vec<String> = ["a", "b"]
        .iter()
        .map(|name| {
            let path = dir.join(format!("trace_{name}.json"));
            let args = ["run", "--workload", "Sigverify", "--collector", "svagc", "--trace"];
            let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            args.push(path.to_str().unwrap().to_string());
            let o = cli::run(&args);
            assert_eq!(o.code, 0, "{}", o.stderr);
            std::fs::read_to_string(&path).unwrap()
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(traces[0] == traces[1], "two runs of one seed exported different traces");
    svagc_metrics::parse_json(&traces[0]).expect("the trace is valid JSON");
}
