//! Differential and end-to-end tests for traced runs (the `--trace-out`
//! path): attaching a journal must not perturb the optimizer — identical
//! outcomes and normalized reports at any worker count — and the exported
//! Chrome trace plus peak attribution must meet the acceptance criteria
//! (valid JSON, zone/layer spans, per-track monotonic timestamps, and an
//! attribution that sums to the reported peak within 1e-9).

use serde::Value;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wavemin::prelude::*;
use wavemin::trace::{TraceEventKind, TraceJournal};

/// Asserts two outcomes are observationally identical (runtime aside).
fn assert_outcomes_identical(plain: &Outcome, traced: &Outcome, label: &str) {
    assert_eq!(plain.assignment, traced.assignment, "{label}: assignment");
    assert_eq!(plain.peak_after, traced.peak_after, "{label}: peak");
    assert_eq!(
        plain.vdd_noise_after, traced.vdd_noise_after,
        "{label}: vdd"
    );
    assert_eq!(
        plain.gnd_noise_after, traced.gnd_noise_after,
        "{label}: gnd"
    );
    assert_eq!(plain.skew_after, traced.skew_after, "{label}: skew");
    assert!(
        plain.estimated_cost == traced.estimated_cost
            || (plain.estimated_cost.is_nan() && traced.estimated_cost.is_nan()),
        "{label}: cost {} vs {}",
        plain.estimated_cost,
        traced.estimated_cost
    );
    assert_eq!(
        plain.intervals_tried, traced.intervals_tried,
        "{label}: tried"
    );
    assert_eq!(
        plain.degenerate_zones, traced.degenerate_zones,
        "{label}: degenerate zones"
    );
}

#[test]
fn traced_runs_are_identical_to_untraced_runs() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    for threads in [1usize, 4] {
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(16)
            .with_metrics(true)
            .with_threads(threads);
        cfg.max_intervals = Some(6);
        let algo = ClkWaveMin::new(cfg);
        let plain = algo.run(&d).expect("untraced run");
        let ticks = Arc::new(AtomicU64::new(0));
        // The journal alone, then all three sinks live at once: journal,
        // a 1 ms progress ticker and the metrics registry.
        for with_progress in [false, true] {
            let mut obs = Observer::from_config(algo.config());
            obs.trace = TraceJournal::enabled();
            if with_progress {
                let sink_ticks = Arc::clone(&ticks);
                obs.progress = ProgressTracker::enabled(Duration::from_millis(1), move |_p| {
                    sink_ticks.fetch_add(1, Ordering::Relaxed);
                });
            }
            let traced = algo.run_observed(&d, &obs).expect("traced run");
            let label = format!("threads={threads} progress={with_progress}");
            assert_outcomes_identical(&plain, &traced, &label);
            assert_eq!(
                plain.report.as_ref().expect("untraced report").normalized(),
                traced.report.as_ref().expect("traced report").normalized(),
                "{label}: normalized reports must not depend on tracing"
            );
            let merged = obs.trace.merged().expect("enabled journal");
            let zone_spans = merged
                .events
                .iter()
                .filter(|(_, e)| matches!(e.kind, TraceEventKind::ZoneSolve { .. }))
                .count();
            assert!(zone_spans > 0, "{label}: zone spans recorded");
            assert_eq!(
                obs.trace.dropped_events(),
                0,
                "{label}: no overflow expected"
            );
        }
        assert!(
            ticks.load(Ordering::Relaxed) > 0,
            "threads={threads}: the progress sink must have ticked"
        );
    }
}

#[test]
fn s15850_trace_export_and_attribution_meet_acceptance() {
    let d = Design::from_benchmark(&Benchmark::s15850(), 7);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(16)
        .with_metrics(true)
        .with_threads(4);
    cfg.max_intervals = Some(6);
    let mut obs = Observer::from_config(&cfg);
    obs.trace = TraceJournal::enabled();
    let out = ClkWaveMin::new(cfg)
        .run_observed(&d, &obs)
        .expect("traced run");

    // The attribution decomposes the reported worst-mode peak exactly.
    let report = out.report.as_ref().expect("report");
    report.validate().expect("report self-consistency");
    let attr = report.attribution.as_ref().expect("attribution");
    assert!(!attr.contributions.is_empty(), "contributors present");
    let sum: f64 = attr.contributions.iter().map(|c| c.amps_ma).sum();
    assert!(
        (sum - attr.peak_ma).abs() <= 1e-9,
        "contribution sum {sum} must match peak {} to 1e-9",
        attr.peak_ma
    );

    // The exported Chrome trace parses, carries zone and layer spans, and
    // is timestamp-monotonic within every (pid, tid) track.
    let json = obs.trace.chrome_trace().expect("chrome trace");
    let root = serde_json::from_str(&json).expect("valid trace JSON");
    let Value::Map(entries) = &root else {
        panic!("object root");
    };
    let field = |fields: &[(String, Value)], key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let Some(Value::Seq(events)) = field(entries, "traceEvents") else {
        panic!("traceEvents array");
    };
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut names: HashSet<String> = HashSet::new();
    let mut metadata = 0usize;
    for ev in &events {
        let Value::Map(fields) = ev else {
            panic!("event object");
        };
        let Some(Value::Str(ph)) = field(fields, "ph") else {
            panic!("ph field");
        };
        if ph == "M" {
            metadata += 1;
            continue;
        }
        if let Some(Value::Str(name)) = field(fields, "name") {
            names.insert(name);
        }
        let (Some(Value::UInt(pid)), Some(Value::UInt(tid))) =
            (field(fields, "pid"), field(fields, "tid"))
        else {
            panic!("pid/tid fields");
        };
        let Some(Value::Float(ts)) = field(fields, "ts") else {
            panic!("ts field");
        };
        if let Some(prev) = last_ts.insert((pid, tid), ts) {
            assert!(prev <= ts, "ts monotonic within track {tid}");
        }
    }
    assert!(metadata >= 1, "thread_name metadata present");
    assert!(names.contains("zone_solve"), "zone spans exported");
    assert!(names.contains("layer"), "graph-layer spans exported");
    assert!(!last_ts.is_empty(), "at least one worker track");
}
