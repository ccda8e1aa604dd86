//! Differential tests for the worker-pool execution path: an unbudgeted
//! run must produce bit-identical assignments and noise figures whether it
//! runs on one thread or many — intervals, intersections and power modes
//! are fanned out, but results are collected in input order, so the
//! ranking (and every tie-break) matches the sequential walk exactly.

use wavemin::prelude::*;
use wavemin_cells::units::Volts;

/// Asserts two outcomes are observationally identical (runtime aside).
fn assert_outcomes_identical(seq: &Outcome, par: &Outcome, label: &str) {
    assert_eq!(seq.assignment, par.assignment, "{label}: assignment");
    assert_eq!(seq.peak_after, par.peak_after, "{label}: peak");
    assert_eq!(seq.vdd_noise_after, par.vdd_noise_after, "{label}: vdd");
    assert_eq!(seq.gnd_noise_after, par.gnd_noise_after, "{label}: gnd");
    assert_eq!(seq.skew_after, par.skew_after, "{label}: skew");
    assert!(
        seq.estimated_cost == par.estimated_cost
            || (seq.estimated_cost.is_nan() && par.estimated_cost.is_nan()),
        "{label}: cost {} vs {}",
        seq.estimated_cost,
        par.estimated_cost
    );
    assert_eq!(seq.intervals_tried, par.intervals_tried, "{label}: tried");
    assert_eq!(
        seq.degenerate_zones, par.degenerate_zones,
        "{label}: degenerate zones"
    );
}

#[test]
fn clkwavemin_is_thread_count_independent() {
    for bench in [Benchmark::s15850(), Benchmark::s13207()] {
        let d = Design::from_benchmark(&bench, 7);
        let mut cfg = WaveMinConfig::default().with_sample_count(16);
        cfg.max_intervals = Some(6);
        let seq = ClkWaveMin::new(cfg.clone().with_threads(1))
            .run(&d)
            .expect("sequential run");
        let par = ClkWaveMin::new(cfg.with_threads(4))
            .run(&d)
            .expect("parallel run");
        assert_outcomes_identical(&seq, &par, &bench.name);
    }
}

#[test]
fn fast_variant_is_thread_count_independent() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 11);
    let cfg = WaveMinConfig::default().with_sample_count(16);
    let seq = ClkWaveMinFast::new(cfg.clone().with_threads(1))
        .run(&d)
        .expect("sequential run");
    let par = ClkWaveMinFast::new(cfg.with_threads(4))
        .run(&d)
        .expect("parallel run");
    assert_outcomes_identical(&seq, &par, "fast");
}

#[test]
fn multimode_is_thread_count_independent() {
    let d = Design::from_benchmark_multimode_levels(
        &Benchmark::s15850(),
        3,
        4,
        4,
        Volts::new(0.9),
        Volts::new(1.1),
    );
    let cfg = WaveMinConfig::default()
        .with_skew_bound(wavemin_cells::units::Picoseconds::new(22.0))
        .with_sample_count(8);
    let seq = ClkWaveMinM::new(cfg.clone().with_threads(1))
        .run(&d)
        .expect("sequential run");
    let par = ClkWaveMinM::new(cfg.with_threads(4))
        .run(&d)
        .expect("parallel run");
    assert_outcomes_identical(&seq, &par, "multimode");
}

#[test]
fn dynamic_polarity_is_thread_count_independent() {
    let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 5, 4, 2);
    let cfg = WaveMinConfig::default().with_sample_count(8);
    let seq = DynamicPolarity::new(cfg.clone().with_threads(1))
        .run(&d)
        .expect("sequential run");
    let par = DynamicPolarity::new(cfg.with_threads(4))
        .run(&d)
        .expect("parallel run");
    assert_eq!(seq.xor_sinks, par.xor_sinks, "xor sinks");
    assert_eq!(seq.dynamic_peak_ma, par.dynamic_peak_ma, "dynamic peak");
    assert_eq!(seq.static_peak_ma, par.static_peak_ma, "static peak");
}

#[test]
fn metrics_aggregate_identically_across_thread_counts() {
    // The metrics registry sums per-zone records with commutative relaxed
    // atomics, so an unbudgeted run's RunReport — wall-clock fields
    // stripped by `normalized()` — must be identical whether the zone
    // solves fan out over one worker or four.
    for bench in [Benchmark::s15850(), Benchmark::s13207()] {
        let d = Design::from_benchmark(&bench, 7);
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(16)
            .with_metrics(true);
        cfg.max_intervals = Some(6);
        let seq = ClkWaveMin::new(cfg.clone().with_threads(1))
            .run(&d)
            .expect("sequential run");
        let par = ClkWaveMin::new(cfg.with_threads(4))
            .run(&d)
            .expect("parallel run");
        let seq_report = seq.report.as_ref().expect("sequential report");
        let par_report = par.report.as_ref().expect("parallel report");
        seq_report
            .validate()
            .expect("sequential report consistency");
        par_report.validate().expect("parallel report consistency");
        assert_eq!(
            seq_report.normalized(),
            par_report.normalized(),
            "{}: normalized reports must not depend on the worker count",
            bench.name
        );
        assert_eq!(seq_report.threads, 1, "{}", bench.name);
        assert_eq!(par_report.threads, 4, "{}", bench.name);
    }
}

#[test]
fn zone_memo_splits_every_window_zone_slot_independently_of_threads() {
    // Windows that pose a zone the same subproblem share one solve. Every
    // (window, zone) slot is a solve, a reuse or a repeat, and which one
    // does not depend on the worker count.
    let d = Design::from_benchmark(&Benchmark::s13207(), 3);
    let cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_metrics(true)
        .with_fault_plan(None);
    let runs: Vec<Outcome> = [1, 4]
        .into_iter()
        .map(|threads| {
            ClkWaveMin::new(cfg.clone().with_threads(threads))
                .run(&d)
                .expect("run")
        })
        .collect();
    let counters: Vec<(u64, u64, u64)> = runs
        .iter()
        .map(|out| {
            let report = out.report.as_ref().expect("report");
            let c = &report.counters;
            assert!(c.zones_repeated > 0, "windows must repeat zone subproblems");
            assert_eq!(
                c.zone_solves + c.zones_repeated + c.zones_reused,
                (out.intervals_tried * report.zones.len()) as u64,
                "every (window, zone) slot is counted exactly once"
            );
            (c.zone_solves, c.zones_repeated, c.zones_reused)
        })
        .collect();
    assert_eq!(counters[0], counters[1], "counters at 1 and 4 threads");
    assert_outcomes_identical(&runs[0], &runs[1], "s13207 memo");
    assert_eq!(
        runs[0].estimated_cost.to_bits(),
        runs[1].estimated_cost.to_bits(),
        "cost bits"
    );
}

#[test]
fn report_counters_match_per_zone_sums() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_metrics(true)
        .with_threads(4);
    let out = ClkWaveMin::new(cfg).run(&d).expect("run");
    let report = out.report.as_ref().expect("report");
    let zone_labels: u64 = report.zones.iter().map(|z| z.labels_created).sum();
    assert_eq!(
        report.counters.labels_created, zone_labels,
        "global label count must equal the per-zone sum"
    );
    let zone_solves: u64 = report.zones.iter().map(|z| z.solves).sum();
    assert_eq!(report.counters.zone_solves, zone_solves);
    assert!(
        report.counters.labels_created > 0,
        "an instrumented MOSP run must create labels"
    );
    // Unmetered runs attach no report at all.
    let plain = ClkWaveMin::new(WaveMinConfig::default().with_sample_count(16))
        .run(&d)
        .expect("plain run");
    assert!(plain.report.is_none(), "metrics default to off");
}

#[test]
fn shared_budget_is_drained_across_parallel_solves() {
    // A budgeted parallel run is allowed to differ from a sequential one
    // (the shared work cap drains in worker charge order), but it must
    // still end with a complete, skew-feasible assignment.
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let cfg = WaveMinConfig::default().with_time_budget_ms(50);
    let out = ClkWaveMin::new(cfg.clone().with_threads(4))
        .run(&d)
        .expect("budgeted parallel run");
    assert_eq!(out.assignment.len(), d.leaves().len());
    assert!(out.skew_after.value() <= cfg.skew_bound.value() * 1.05 + 1e-9);
}
