//! Streaming ≡ materialized differential: the streaming zone pipeline
//! (lazy characterization + compact archive + spill/recompute) must be
//! observationally identical to the historical materialize-everything
//! path — same assignment, same cost bits, same normalized RunReport —
//! across designs, thread counts, and under fault injection.

use wavemin::prelude::*;

/// Runs ClkWaveMin twice — materialized and streaming — on identical
/// configs and asserts the outcomes are bit-for-bit interchangeable.
fn assert_streaming_equivalent(base: &WaveMinConfig, design: &Design, label: &str) {
    let materialized = ClkWaveMin::new(base.clone())
        .run(design)
        .expect("materialized run");
    let streaming = ClkWaveMin::new(base.clone().with_streaming(true))
        .run(design)
        .expect("streaming run");
    assert_eq!(
        materialized.assignment, streaming.assignment,
        "{label}: assignment"
    );
    assert_eq!(
        materialized.estimated_cost.to_bits(),
        streaming.estimated_cost.to_bits(),
        "{label}: cost bits"
    );
    assert_eq!(
        materialized.peak_after, streaming.peak_after,
        "{label}: peak"
    );
    assert_eq!(
        materialized.skew_after, streaming.skew_after,
        "{label}: skew"
    );
    assert_eq!(
        materialized.intervals_tried, streaming.intervals_tried,
        "{label}: intervals"
    );
    assert_eq!(
        materialized.degenerate_zones, streaming.degenerate_zones,
        "{label}: degenerate zones"
    );
    assert_eq!(
        materialized.faulted_zones, streaming.faulted_zones,
        "{label}: faulted zones"
    );
    match (&materialized.report, &streaming.report) {
        (Some(m), Some(s)) => {
            m.validate().expect("materialized report consistency");
            s.validate().expect("streaming report consistency");
            assert_eq!(
                m.normalized(),
                s.normalized(),
                "{label}: normalized reports must not depend on the residency policy"
            );
        }
        (None, None) => {}
        _ => panic!("{label}: one run produced a report and the other did not"),
    }
}

#[test]
fn streaming_matches_materialized_across_threads() {
    for (bench, seed) in [
        (Benchmark::s15850(), 7),
        (Benchmark::s13207(), 7),
        (Benchmark::s15850(), 11),
    ] {
        let design = Design::from_benchmark(&bench, seed);
        for threads in [1, 4] {
            let mut cfg = WaveMinConfig::default()
                .with_sample_count(16)
                .with_threads(threads)
                .with_metrics(true);
            cfg.max_intervals = Some(6);
            assert_streaming_equivalent(
                &cfg,
                &design,
                &format!("{} seed {seed} x{threads}", bench.name),
            );
        }
    }
}

#[test]
fn streaming_matches_materialized_under_fault_injection() {
    let design = Design::from_benchmark(&Benchmark::s15850(), 3);
    for (seed, rate) in [(1, 1.0), (5, 0.25)] {
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(12)
            .with_metrics(true)
            .with_fault_plan(Some(FaultPlan { seed, rate }));
        cfg.max_intervals = Some(4);
        assert_streaming_equivalent(&cfg, &design, &format!("faults {seed}:{rate}"));
    }
}

#[test]
fn streaming_matches_materialized_on_synthetic_scale_fixture() {
    // A larger multi-zone tree than the benchmark circuits, exercising
    // the archive across hundreds of zones.
    let design = Design::from_benchmark(&Benchmark::scale("stream_diff", 300), 5);
    let mut cfg = WaveMinConfig::default()
        .with_sample_count(8)
        .with_metrics(true);
    cfg.max_intervals = Some(3);
    assert_streaming_equivalent(&cfg, &design, "scale300");
}
