//! Sharded optimization: independent subtree solves merged at the root.
//!
//! [`optimize_sharded`] splits the clock tree into subtree shards of
//! bounded sink count ([`wavemin_clocktree::shard::shard_by_sinks`]),
//! runs the full ClkWaveMin flow on each shard *independently*, remaps
//! every shard's assignment back to the original node ids, and
//! validates the merged assignment with exact timing on the full tree.
//!
//! Each shard keeps the original trunk chain from the clock root down
//! to its subtree (siblings stubbed with their real cells and wire
//! loads), so arrivals inside a shard are bit-exact against the full
//! tree and every shard optimizes against *absolute* arrival windows.
//! What sharding gives up is the global interval coordination: each
//! shard picks its own feasible window, so the *cross-shard* skew is
//! only checked — not enforced — during the per-shard solves. The
//! merged assignment is re-validated against the exact global skew
//! bound; when it violates the bound the driver falls back to the
//! identity assignment and records a final
//! [`DegradationStep::IdentityFallback`], mirroring the interval
//! framework's own validation ladder. Every shard's own degradation
//! steps and faulted zones are carried into the merged outcome in shard
//! order (zone ids in them are shard-local), so a sharded run reports
//! what it relaxed like an unsharded one;
//! [`ShardedOutcome::faulted_zones`] names each fault unambiguously as a
//! (shard, zone) pair. A shard's own identity fallback becomes a
//! [`DegradationStep::ShardIdentityFallback`] when other shards' cells
//! were kept, since then only that subtree was left unchanged. In
//! practice equalized trees anchor every shard on near-identical arrival
//! sets and the merge passes.

use crate::algo::{count_kind, finish_outcome, ClkWaveMin, Degradation, DegradationStep, Outcome};
use crate::assignment::Assignment;
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use wavemin_cells::units::Picoseconds;
use wavemin_cells::CellKind;
use wavemin_clocktree::shard::{shard_by_sinks, SubtreeShard};
use wavemin_clocktree::timing::TimingAdjust;

/// The merged result of a sharded run, plus per-shard accounting.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The merged, globally re-validated outcome.
    pub outcome: Outcome,
    /// Number of subtree shards solved.
    pub shard_count: usize,
    /// Sinks per shard, in shard order.
    pub shard_sinks: Vec<usize>,
    /// Every contained zone fault as `(shard, shard-local zone)`, in shard
    /// order. Two shards can fault on the same local zone id, so this,
    /// not the merged outcome's bare zone ids, identifies each fault.
    pub faulted_zones: Vec<(usize, usize)>,
}

/// Optimizes a design shard-by-shard: at most `max_sinks_per_shard`
/// sinks are solved per ClkWaveMin invocation, so peak memory scales
/// with the shard size rather than the design size.
///
/// # Errors
///
/// Any error a plain [`ClkWaveMin::run`] can produce (the first failing
/// shard aborts the run), or [`WaveMinError::Timing`] from the final
/// exact validation.
pub fn optimize_sharded(
    design: &Design,
    config: &WaveMinConfig,
    max_sinks_per_shard: usize,
) -> Result<ShardedOutcome, WaveMinError> {
    config.validate()?;
    let shards = shard_by_sinks(&design.tree, max_sinks_per_shard);
    let shard_count = shards.len();
    let mut shard_sinks = Vec::with_capacity(shard_count);
    let mut merged = Assignment::new();
    let mut estimated_cost = 0.0_f64;
    let mut intervals_tried = 0;
    let mut runtime = std::time::Duration::ZERO;
    let mut degenerate_zones = 0;
    let mut faulted_zones = Vec::new();
    let mut shard_records = Vec::new();
    let solver = ClkWaveMin::new(config.clone());
    for (index, shard) in shards.iter().enumerate() {
        shard_sinks.push(shard.tree.leaves().len());
        let sub = shard_design(design, shard);
        let out = solver.run(&sub)?;
        intervals_tried += out.intervals_tried;
        runtime += out.runtime;
        degenerate_zones += out.degenerate_zones;
        faulted_zones.extend(out.faulted_zones.into_iter().map(|zone| (index, zone)));
        if let Some(d) = out.degradation {
            shard_records.push((index, d));
        }
        // A shard that fell back to identity reports a NaN cost; the
        // merged cost only aggregates real zone objectives.
        if out.estimated_cost.is_finite() {
            estimated_cost = estimated_cost.max(out.estimated_cost);
        }
        for (&node, cell) in &out.assignment.cells {
            merged.set(shard.origin(node), cell.clone());
        }
        for (mode, codes) in out.assignment.delay_codes.iter().enumerate() {
            for (&node, &code) in codes {
                merged.set_delay_code(mode, shard.origin(node), code);
            }
        }
    }

    let mut degradation = merge_shard_records(shard_records, !merged.is_empty());

    // Exact global validation on the full tree — the authoritative
    // cross-shard skew check.
    let mut candidate = design.clone();
    merged.apply_to(&mut candidate);
    let skew = candidate.max_skew()?;
    let mut outcome = if skew.value() > config.skew_bound.value() + 1e-9 {
        merge_degradation(
            &mut degradation,
            Degradation {
                steps: vec![DegradationStep::IdentityFallback {
                    candidates: 1,
                    best_skew: skew,
                }],
                exhausted_solves: 0,
                total_solves: 0,
            },
        );
        finish_outcome(
            design,
            design,
            Assignment::new(),
            f64::NAN,
            intervals_tried,
            runtime,
        )?
    } else {
        finish_outcome(
            design,
            &candidate,
            merged,
            estimated_cost,
            intervals_tried,
            runtime,
        )?
    };
    outcome.degenerate_zones = degenerate_zones;
    outcome.degradation = degradation;
    outcome.faulted_zones = faulted_zones.iter().map(|&(_, zone)| zone).collect();
    Ok(ShardedOutcome {
        outcome,
        shard_count,
        shard_sinks,
        faulted_zones,
    })
}

/// Concatenates the shards' records (shard index, record) in shard
/// order. While any shard's cells are kept (`partial`), a shard's
/// identity fallback left only its own subtree unchanged, so it becomes a
/// [`DegradationStep::ShardIdentityFallback`].
fn merge_shard_records(records: Vec<(usize, Degradation)>, partial: bool) -> Option<Degradation> {
    let mut merged = None;
    for (index, mut d) in records {
        if partial {
            for step in &mut d.steps {
                if let DegradationStep::IdentityFallback {
                    candidates,
                    best_skew,
                } = *step
                {
                    *step = DegradationStep::ShardIdentityFallback {
                        shard: index,
                        candidates,
                        best_skew,
                    };
                }
            }
        }
        merge_degradation(&mut merged, d);
    }
    merged
}

/// Appends `d`'s steps and solve counts to the run's record.
fn merge_degradation(into: &mut Option<Degradation>, d: Degradation) {
    match into {
        None => *into = Some(d),
        Some(acc) => {
            acc.steps.extend(d.steps);
            acc.exhausted_solves += d.exhausted_solves;
            acc.total_solves += d.total_solves;
        }
    }
}

/// Wraps one shard's tree with the parent design's models. Per-mode
/// timing adjustments are remapped onto the shard's node ids so trunk
/// stubs carry any ADB codes already installed on the full design.
fn shard_design(design: &Design, shard: &SubtreeShard) -> Design {
    let mode_adjust = design
        .mode_adjust
        .iter()
        .map(|adj| remap_adjust(adj, &shard.node_map))
        .collect();
    Design {
        tree: shard.tree.clone(),
        lib: design.lib.clone(),
        chr: design.chr,
        wire: design.wire,
        power: design.power.clone(),
        mode_adjust,
    }
}

fn remap_adjust(adj: &TimingAdjust, node_map: &[wavemin_clocktree::NodeId]) -> TimingAdjust {
    let pick_mult = |v: &Vec<f64>| -> Vec<f64> {
        node_map
            .iter()
            .map(|o| v.get(o.0).copied().unwrap_or(1.0))
            .collect()
    };
    TimingAdjust {
        cell_delay_mult: pick_mult(&adj.cell_delay_mult),
        extra_delay: node_map
            .iter()
            .map(|o| {
                adj.extra_delay
                    .get(o.0)
                    .copied()
                    .unwrap_or(Picoseconds::ZERO)
            })
            .collect(),
        wire_r_mult: pick_mult(&adj.wire_r_mult),
        wire_c_mult: pick_mult(&adj.wire_c_mult),
    }
}

/// Shard-count accounting exposed for reports: ADB/ADI cells present
/// after applying `outcome` to `design`.
#[must_use]
pub fn merged_adb_adi(design: &Design, outcome: &Outcome) -> (usize, usize) {
    let mut after = design.clone();
    outcome.assignment.apply_to(&mut after);
    (
        count_kind(&after, CellKind::Adb),
        count_kind(&after, CellKind::Adi),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavemin_clocktree::Benchmark;

    fn scale_design() -> Design {
        Design::from_benchmark(&Benchmark::scale("shardrun_fixture", 220), 5)
    }

    #[test]
    fn one_big_shard_matches_plain_run_bit_for_bit() {
        let design = scale_design();
        // The default config picks up the environment's fault plan and
        // thread count. The one-thread fault plan keeps the order of its
        // fault steps fixed, so its whole record must match too.
        let faulted = WaveMinConfig::default()
            .with_threads(1)
            .with_fault_plan(Some(crate::fault::FaultPlan { seed: 3, rate: 0.1 }));
        for (config, whole_record) in [(WaveMinConfig::default(), false), (faulted, true)] {
            let plain = ClkWaveMin::new(config.clone()).run(&design).expect("plain");
            let sharded = optimize_sharded(&design, &config, usize::MAX).expect("sharded");
            assert_eq!(sharded.shard_count, 1);
            assert_eq!(
                identity_fallbacks(&sharded.outcome),
                identity_fallbacks(&plain),
                "the merge must not fall back"
            );
            assert_eq!(sharded.outcome.faulted_zones, plain.faulted_zones);
            if whole_record {
                assert!(!plain.faulted_zones.is_empty(), "faults must fire");
                assert_eq!(sharded.outcome.degradation, plain.degradation);
                let pairs: Vec<(usize, usize)> =
                    plain.faulted_zones.iter().map(|&zone| (0, zone)).collect();
                assert_eq!(sharded.faulted_zones, pairs);
            }
            assert_eq!(sharded.outcome.assignment, plain.assignment);
            assert_eq!(
                sharded.outcome.estimated_cost.to_bits(),
                plain.estimated_cost.to_bits()
            );
            assert_eq!(
                sharded.outcome.skew_after.value().to_bits(),
                plain.skew_after.value().to_bits()
            );
        }

        // With every zone faulting in several shards, the shards reuse
        // local zone ids; the (shard, zone) list must still name each
        // fault once.
        let all_fault = WaveMinConfig::default()
            .with_fault_plan(Some(crate::fault::FaultPlan { seed: 3, rate: 1.0 }));
        let sharded = optimize_sharded(&design, &all_fault, 48).expect("sharded");
        assert!(sharded.shard_count > 1, "expected a real split");
        let faults = &sharded.faulted_zones;
        assert_eq!(faults.len(), sharded.outcome.faulted_zones.len());
        assert!(
            faults.iter().any(|&(shard, _)| shard > 0),
            "several shards must fault: {faults:?}"
        );
        assert!(
            faults.windows(2).all(|w| w[0] < w[1]),
            "(shard, zone) faults must be distinct and in shard order: {faults:?}"
        );
        let mut bare = sharded.outcome.faulted_zones.clone();
        bare.sort_unstable();
        bare.dedup();
        assert!(
            bare.len() < faults.len(),
            "the fixture must reuse a local zone id across shards"
        );
    }

    fn identity_fallbacks(outcome: &Outcome) -> usize {
        outcome.degradation.as_ref().map_or(0, |d| {
            d.steps
                .iter()
                .filter(|s| matches!(s, DegradationStep::IdentityFallback { .. }))
                .count()
        })
    }

    #[test]
    fn many_shards_cover_all_sinks_and_validate_globally() {
        let design = scale_design();
        let config = WaveMinConfig::default();
        let sharded = optimize_sharded(&design, &config, 48).expect("sharded");
        assert!(sharded.shard_count > 1, "expected a real split");
        assert_eq!(
            sharded.shard_sinks.iter().sum::<usize>(),
            design.leaves().len(),
            "shards must cover every sink exactly once"
        );
        let merge_fallback = matches!(
            sharded
                .outcome
                .degradation
                .as_ref()
                .and_then(|d| d.steps.last()),
            Some(DegradationStep::IdentityFallback { candidates: 1, .. })
        );
        if merge_fallback {
            assert!(sharded.outcome.assignment.is_empty());
        } else {
            // The merged assignment passed the exact global bound.
            assert!(
                sharded.outcome.skew_after.value() <= config.skew_bound.value() + 1e-9,
                "skew {} vs bound {}",
                sharded.outcome.skew_after,
                config.skew_bound
            );
            assert!(!sharded.outcome.assignment.is_empty());
        }
    }

    #[test]
    fn merge_fallback_is_reported_as_a_degradation_step() {
        // A full-width window at a 5 ps bound lets each shard pick its own
        // window; the merged assignment then breaks the global bound.
        let design = scale_design();
        let kappa = Picoseconds::new(5.0);
        let mut config = WaveMinConfig::default().with_skew_bound(kappa);
        config.window_margin = 1.0;
        let sharded = optimize_sharded(&design, &config, 48).expect("sharded");
        assert!(sharded.shard_count > 1, "expected a real split");
        assert!(sharded.outcome.assignment.is_empty());
        let degradation = sharded
            .outcome
            .degradation
            .expect("fallback must be reported");
        // Faults from the environment's fault plan may precede it.
        let steps: Vec<_> = degradation
            .steps
            .iter()
            .filter(|s| !matches!(s, DegradationStep::ZoneFaultContained { .. }))
            .collect();
        match steps.as_slice() {
            [DegradationStep::IdentityFallback {
                candidates: 1,
                best_skew,
            }] => assert!(best_skew.value() > kappa.value(), "best skew {best_skew}"),
            other => panic!("expected one merge identity-fallback step, got {other:?}"),
        }
    }

    #[test]
    fn shard_fallbacks_are_partial_while_other_cells_are_kept() {
        let fallback = DegradationStep::IdentityFallback {
            candidates: 2,
            best_skew: Picoseconds::new(20.8),
        };
        let fault = DegradationStep::ZoneFaultContained { zone: 3 };
        let records = || {
            vec![
                (
                    1,
                    Degradation {
                        steps: vec![fault.clone(), fallback.clone()],
                        exhausted_solves: 1,
                        total_solves: 5,
                    },
                ),
                (
                    3,
                    Degradation {
                        steps: vec![fallback.clone()],
                        exhausted_solves: 0,
                        total_solves: 4,
                    },
                ),
            ]
        };
        // Every shard fell back: the merged result is the identity.
        let whole = merge_shard_records(records(), false).expect("record");
        assert_eq!(
            whole.steps,
            vec![fault.clone(), fallback.clone(), fallback.clone()]
        );
        assert_eq!((whole.exhausted_solves, whole.total_solves), (1, 9));
        // Other shards' cells were kept: each fallback names its shard.
        let partial = merge_shard_records(records(), true).expect("record");
        let shard = |shard| DegradationStep::ShardIdentityFallback {
            shard,
            candidates: 2,
            best_skew: Picoseconds::new(20.8),
        };
        assert_eq!(partial.steps, vec![fault.clone(), shard(1), shard(3)]);
        assert_eq!((partial.exhausted_solves, partial.total_solves), (1, 9));
        assert!(merge_shard_records(Vec::new(), true).is_none());
    }
}
