//! The benchmark's own checks: the replay is faithful, the tail rule
//! takes the rank it claims, names and output follow the result format,
//! failures are counted instead of aborting, and every oracle fails
//! loudly on a mismatch.

use std::cell::RefCell;
use std::rc::Rc;
use svagc_hostbench::ops::{self, Op, Target, WorkloadId};
use svagc_hostbench::replay::{self, Profile};
use svagc_hostbench::{oracle, result_json, run_pass, stats, Metric, Tally, END_TO_END, PER_LAYER};
use svagc_kernel::{CrashPlan, CrashPoint};
use svagc_metrics::{parse_json, Registry};
use svagc_workloads::driver::{run, CollectorKind, RunConfig};
use svagc_workloads::multijvm::run_multi;

fn small_op(name: &str, kind: CollectorKind) -> Op {
    let mut cfg = RunConfig::new(kind);
    cfg.steps = Some(6);
    Op {
        label: format!("{name}|{}", kind.label()),
        twin_key: name.to_string(),
        target: Target::Program(name.to_string()),
        cfg,
    }
}

#[test]
fn replay_reproduces_driver_run_and_accounts_every_span() {
    let mut cfg = RunConfig::new(CollectorKind::Svagc);
    cfg.steps = Some(6);
    let r = run(ops::program("Bisort").as_mut(), &cfg).expect("driver::run");
    let prof = Rc::new(RefCell::new(Profile::default()));
    let rp = replay::replay(ops::program("Bisort").as_mut(), &cfg, &prof).expect("replay");
    oracle::replay_matches(
        "Bisort",
        (r.heap_hash, &r.registry()),
        (rp.heap_hash, &rp.registry),
    )
    .expect("replay must match driver::run");
    let prof = prof.borrow();
    assert!(prof.self_ms(replay::span::HEAP_NEW) > 0.0);
    assert!(prof.self_ms(replay::span::STEP) > 0.0);
    assert_eq!(prof.self_ms(replay::span::COLLECT_BASELINES), 0.0);
    let named: f64 = replay::span::ALL.iter().map(|s| prof.self_ms(s)).sum();
    assert!((named - prof.total_ms()).abs() < 1e-9);
    assert!(rp.frames_peak > 0 && rp.frames_peak <= rp.frames_provisioned);
}

#[test]
fn fleet_replay_reproduces_run_multi() {
    let mut base = RunConfig::new(CollectorKind::Svagc);
    base.gc_threads = 4;
    base.steps = Some(4);
    let seeds = [7u64, 8];
    let fleet = run_multi(2, |i| Box::new(ops::fleet_tenant(seeds[i])), &base).expect("fleet");
    let prof = Rc::new(RefCell::new(Profile::default()));
    let replayed = replay::replay_fleet(2, |i| Box::new(ops::fleet_tenant(seeds[i])), &base, &prof);
    for (i, (r, rp)) in fleet.per_jvm.iter().zip(&replayed).enumerate() {
        let rp = rp.as_ref().expect("tenant replay");
        oracle::replay_matches(
            &format!("tenant {i}"),
            (r.heap_hash, &r.registry()),
            (rp.heap_hash, &rp.registry),
        )
        .expect("fleet replay must match run_multi");
    }
}

#[test]
fn replay_refuses_configurations_it_does_not_make() {
    let cfg = RunConfig::new(CollectorKind::Svagc).with_faults(0.01, 1);
    let prof = Rc::new(RefCell::new(Profile::default()));
    let err = replay::replay(ops::program("PR").as_mut(), &cfg, &prof).unwrap_err();
    assert!(err.contains("plain configurations"), "{err}");
}

#[test]
fn tail_is_the_highest_rank_with_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=60).rev().map(f64::from).collect();
    let t = stats::tail(&xs).expect("60 samples");
    assert_eq!(t.samples, 60);
    assert_eq!(t.value, 50.0);
    assert!((t.percentile - 100.0 * 50.0 / 60.0).abs() < 1e-12);
    assert_eq!(
        xs.iter().filter(|&&x| x > t.value).count(),
        stats::TAIL_BEYOND
    );

    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    let t = stats::tail(&xs).expect("20 samples");
    assert_eq!((t.value, t.percentile, t.samples), (10.0, 50.0, 20));

    assert!(stats::tail(&xs[..10]).is_none());
    let t = stats::tail(&xs[..11]).expect("11 samples");
    assert_eq!(t.value, 1.0);
}

#[test]
fn medians_and_the_tail_above_them() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(stats::median(&[]), 0.0);
    for n in stats::MIN_SAMPLES..100 {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = stats::tail(&xs).expect("enough samples");
        assert!(t.value >= stats::median(&xs), "n={n}");
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = parse_json(&text).expect("BENCHMARK.json parses");
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = spec
            .get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(|v| v.as_str()).expect("string field");
                (s("name"), s("unit"))
            })
            .collect();
        assert_eq!(
            listed, table,
            "{key} in BENCHMARK.json must list the benchmark's metrics"
        );
        for (name, unit) in table {
            assert!(
                valid_name(name) && name.len() <= 64,
                "bad metric name {name}"
            );
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(
                unit.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
        }
    }
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WorkloadId::ALL.map(|w| w.name()));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let tally = Tally {
        attempted: 3,
        failed: 1,
        errors: vec!["x".into()],
    };
    let metrics = [Metric {
        name: "wall_s",
        value: 1.25,
        unit: "s",
    }];
    let v = parse_json(&result_json(&tally, &metrics)).expect("valid JSON");
    let keys: Vec<&str> = v
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct"),
        Some(&svagc_metrics::JsonValue::Bool(false))
    );
    assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(3));
    let wall = v
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("metric");
    assert_eq!(wall.get("value").and_then(|x| x.as_f64()), Some(1.25));
    assert_eq!(wall.get("unit").and_then(|x| x.as_str()), Some("s"));
}

#[test]
fn a_forced_failure_is_counted_not_fatal() {
    let good = small_op("PR", CollectorKind::Svagc);
    // The machine dies before the first SwapVA batch of the first
    // collection, which the full run reaches.
    let mut crashing = small_op("Sigverify", CollectorKind::Svagc);
    crashing.cfg.steps = None;
    crashing.cfg = crashing
        .cfg
        .with_crash_plans(vec![CrashPlan::first(CrashPoint::BeforeBatchApply)]);
    let mut tally = Tally::default();
    let pass = run_pass(&[crashing, good], ops::run_op, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!((tally.failed_frac() - 0.5).abs() < 1e-12);
    assert!(
        tally.errors[0].starts_with("Sigverify|SVAGC"),
        "{:?}",
        tally.errors
    );
    assert!(pass.outcomes[0].is_none() && pass.outcomes[1].is_some());
}

#[test]
fn twin_oracle_names_both_sides_of_a_mismatch() {
    let same = |label, h| oracle::Hashes {
        label,
        twin_key: "FFT|1.2x|lisp2",
        hashes: vec![h],
    };
    assert!(oracle::twin_mismatches(&[same("a", 1), same("b", 1)]).is_empty());
    let bad = oracle::twin_mismatches(&[same("FFT|SVAGC", 1), same("FFT|SVAGC(-SwapVA)", 2)]);
    let labels: Vec<&str> = bad.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["FFT|SVAGC", "FFT|SVAGC(-SwapVA)"]);
    assert!(
        bad[0].1.contains("FFT|SVAGC and FFT|SVAGC(-SwapVA)"),
        "{}",
        bad[0].1
    );

    let fleet = |label, hashes| oracle::Hashes {
        label,
        twin_key: "x8",
        hashes,
    };
    let bad = oracle::twin_mismatches(&[fleet("s", vec![1, 2, 3]), fleet("m", vec![1, 2, 4])]);
    assert_eq!(bad.len(), 2);
    assert!(bad[0].1.contains("JVM 2"), "{}", bad[0].1);
}

#[test]
fn twin_oracle_catches_a_real_pass_with_a_forged_twin() {
    // SVAGC and SVAGC(-SwapVA) agree; pairing SVAGC with ParallelGC (a
    // different heap layout) under one key must be caught.
    let mut tally = Tally::default();
    let ops = [
        small_op("PR", CollectorKind::Svagc),
        small_op("PR", CollectorKind::SvagcMemmove),
    ];
    run_pass(&ops, ops::run_op, &mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.errors);
    let ops = [
        small_op("PR", CollectorKind::Svagc),
        small_op("PR", CollectorKind::ParallelGc),
    ];
    run_pass(&ops, ops::run_op, &mut tally);
    assert_eq!(tally.failed, 2, "{:?}", tally.errors);
}

#[test]
fn replay_oracle_fails_on_hash_or_counter_mismatch() {
    let mut a = Registry::new();
    a.add("perf.syscalls", 3);
    let mut b = a.clone();
    assert!(oracle::replay_matches("cfg", (1, &a), (1, &b)).is_ok());
    let e = oracle::replay_matches("FFT|SVAGC#0", (1, &a), (2, &b)).unwrap_err();
    assert!(e.contains("FFT|SVAGC#0") && e.contains("heap hash"), "{e}");
    b.add("perf.syscalls", 1);
    let e = oracle::replay_matches("cfg", (1, &a), (1, &b)).unwrap_err();
    assert!(
        e.contains("perf.syscalls") && e.contains('4') && e.contains('3'),
        "{e}"
    );
}

#[test]
fn the_seed_reaches_only_the_fleet_caches() {
    let labels = |w, seed| {
        ops::ops(w, seed)
            .into_iter()
            .map(|o| o.label)
            .collect::<Vec<_>>()
    };
    for w in [WorkloadId::SuiteSweep, WorkloadId::CacheModel] {
        assert_eq!(labels(w, 3), labels(w, 4));
    }
    assert_eq!(ops::ops(WorkloadId::SuiteSweep, 1).len(), 60);
    assert_eq!(ops::ops(WorkloadId::CacheModel, 1).len(), 20);

    // Seed 0 gives the cache seeds of Figs. 2/14.
    for op in ops::ops(WorkloadId::MultiJvm, 0) {
        let Target::Fleet(seeds) = &op.target else {
            panic!("multi_jvm runs fleets")
        };
        assert_eq!(
            *seeds,
            (0..seeds.len() as u64).map(|i| 100 + i).collect::<Vec<_>>()
        );
    }
    let fleet_seeds = |seed| -> Vec<Vec<u64>> {
        let mut v: Vec<Vec<u64>> = ops::ops(WorkloadId::MultiJvm, seed)
            .into_iter()
            .filter_map(|o| match o.target {
                Target::Fleet(s) => Some(s),
                Target::Program(_) => None,
            })
            .collect();
        v.sort();
        v
    };
    // Every seed runs the figure's caches, rotated across tenant slots.
    assert_ne!(fleet_seeds(1), fleet_seeds(2));
    for mut seeds in fleet_seeds(5) {
        seeds.sort();
        assert_eq!(seeds, (100..100 + seeds.len() as u64).collect::<Vec<_>>());
    }
}
