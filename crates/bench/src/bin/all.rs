//! Regenerates every figure, table, and ablation of the paper, in order,
//! and emits the `BENCH_*.json` perf records.
//!
//! Flags:
//! * `--parallel` — fan independent experiments across host threads
//!   (width follows `SVAGC_HOST_THREADS` or the core count). Simulated
//!   output is byte-identical to a serial run; a cheap serial probe
//!   re-verifies that on every parallel run.
//! * `--check` — after the main run, re-run EVERY experiment in the
//!   other mode and fail on any simulated divergence (slow; ~2x).
//! * `--out DIR` — where to write `BENCH_<id>.json` + `BENCH_summary.json`
//!   (default: current directory).
//! * `--no-bench-json` — skip writing BENCH files (text output only).
//! * `--only ID[,ID…]` — run just these experiments (ids as in
//!   `BENCH_<id>.json`, e.g. `--only fig11` or `--only pause_cdf,fig06`),
//!   in the order given.

use std::path::PathBuf;
use std::process::ExitCode;
use svagc_bench::runner;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parallel = args.iter().any(|a| a == "--parallel");
    let check = args.iter().any(|a| a == "--check");
    let write_json = !args.iter().any(|a| a == "--no-bench-json");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let ids: Vec<&str> = match args.iter().position(|a| a == "--only") {
        Some(i) => {
            let list = args.get(i + 1).map(String::as_str).unwrap_or("");
            let ids: Vec<&str> = list.split(',').filter(|id| !id.is_empty()).collect();
            if let Some(bad) = ids.iter().find(|id| runner::find(id).is_none()) {
                eprintln!(
                    "--only: unknown experiment {bad:?}; known ids: {}",
                    runner::all_ids().join(",")
                );
                return ExitCode::FAILURE;
            }
            if ids.is_empty() {
                eprintln!("--only needs a comma-separated list of experiment ids");
                return ExitCode::FAILURE;
            }
            ids
        }
        None => runner::all_ids(),
    };
    let outcomes = runner::run_ids(&ids, parallel);
    for o in &outcomes {
        print!("{}", o.report.text());
    }

    let mut failures = Vec::new();
    if check {
        // Full dual-mode comparison: run everything again the other way.
        let other = runner::run_ids(&ids, !parallel);
        for (a, b) in outcomes.iter().zip(&other) {
            if a.report.sim_json() != b.report.sim_json() {
                failures.push(format!(
                    "{}: serial/parallel sim JSON diverged ({} vs {})",
                    a.report.id(),
                    a.report.sim_digest(),
                    b.report.sim_digest()
                ));
            }
        }
    } else if parallel {
        // Always-on cheap probe: a couple of fast experiments re-run
        // serially must reproduce the parallel run bit-for-bit.
        let probes: Vec<&str> = runner::DETERMINISM_PROBE_IDS
            .into_iter()
            .filter(|id| ids.contains(id))
            .collect();
        failures = runner::verify_against_serial(&outcomes, &probes);
    }
    for f in &failures {
        eprintln!("determinism check FAILED: {f}");
    }

    if write_json {
        let files = runner::write_bench_files(&out_dir, &outcomes, parallel)
            .and_then(|mut v| {
                v.push(runner::write_summary(&out_dir, &outcomes, parallel)?);
                Ok(v)
            })
            .unwrap_or_else(|e| panic!("cannot write BENCH files to {}: {e}", out_dir.display()));
        eprintln!("wrote {} BENCH files under {}", files.len(), out_dir.display());
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
