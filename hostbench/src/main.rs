//! `svagc-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use svagc_hostbench::ops::{self, WorkloadId};
use svagc_hostbench::{end_to_end, host, pin_host_threads, result_json, traced, Tally};

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = value("--workload")?;
    let workload = WorkloadId::parse(name).ok_or_else(|| {
        let known: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: svagc-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: build with --release");
        return ExitCode::from(2);
    }
    let threads = pin_host_threads(args.workload);
    println!(
        "hostbench workload={} seed={} seconds={} trace={} nproc={} host_threads={threads} rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::git_revision()
    );
    let ops = ops::ops(args.workload, args.seed);
    let mut tally = Tally::default();
    let report = if args.trace {
        traced(args.workload, &ops, threads, &mut tally)
    } else {
        end_to_end(args.workload, &ops, args.seconds, &mut tally)
    };
    for e in &tally.errors {
        println!("FAILED {e}");
    }
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    println!("{}", result_json(&tally, &report.metrics));
    ExitCode::SUCCESS
}
