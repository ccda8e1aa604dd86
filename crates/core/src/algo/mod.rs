//! The optimization algorithms: ClkWaveMin, ClkWaveMin-f and the
//! comparison baselines.
//!
//! All interval-based algorithms share one skeleton (Fig. 8), and one
//! engine (`solve_prepared`) runs it for every one of them:
//!
//! 1. preprocess the design into a [`NoiseTable`] per power mode;
//! 2. generate the candidate windows (global, so the skew bound holds
//!    across the whole sink set): the feasible time intervals, or with
//!    several modes the feasible interval intersections;
//! 3. partition the sinks into zones;
//! 4. for every window, solve each zone's subproblem with the
//!    algorithm-specific inner solver, chaining zones through the
//!    accumulated background; the window's cost is the worst zone cost;
//! 5. keep the best window's assignment, validate the exact skew and
//!    report before/after noise.
//!
//! Single-mode WaveMin is the one-mode case of ClkWaveMin-M: the per-mode
//! noise vectors are concatenated into one MOSP weight (Fig. 12), which
//! for one mode is just that mode's vector.

pub(crate) mod clkwavemin;
mod dynamic;
mod exhaustive;
mod fast;
mod nieh;
mod nonleaf;
mod peakmin;
mod samanta;
pub(crate) mod streaming;
mod yield_aware;

pub use clkwavemin::ClkWaveMin;
pub use dynamic::{DynamicOutcome, DynamicPolarity};
pub use exhaustive::ExhaustiveSearch;
pub use fast::ClkWaveMinFast;
pub use nieh::NiehOppositePhase;
pub use nonleaf::NonLeafPolarity;
pub use peakmin::ClkPeakMin;
pub use samanta::SamantaBalanced;
pub use yield_aware::{normal_quantile, YieldAwareWaveMin, YieldOutcome};

use crate::assignment::Assignment;
use crate::checkpoint::{CachedZone, StoreAcquire, ZoneCache, ZoneKeyChain, ZoneStore};
use crate::config::{BackgroundMode, WaveMinConfig};
use crate::design::Design;
use crate::error::WaveMinError;
use crate::eval::NoiseEvaluator;
use crate::intervals::IntervalSet;
use crate::multimode::FeasibleIntersection;
use crate::noise_table::{BackgroundAccumulator, NoiseTable};
use crate::observe::{MetricsRegistry, Observer, PeakAttribution, ReportContext, RunReport, Stage};
use crate::sampling::SamplePlan;
use crate::trace::TraceEventKind;
use clkwavemin::MospLadder;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;
use wavemin_cells::characterize::ClockEdge;
use wavemin_cells::units::{MilliAmps, Millivolts, Picoseconds};
use wavemin_cells::CellKind;
use wavemin_clocktree::ZoneGrid;
use wavemin_mosp::Exhaustion;

/// One relaxation the optimizer applied while descending the degradation
/// ladder (exact → ε-approximate → tightly capped → greedy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DegradationStep {
    /// Exact Pareto enumeration was abandoned for Warburton's
    /// ε-approximation.
    ExactToApproximate {
        /// The ε the approximation continued with.
        epsilon: f64,
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// The Warburton approximation parameter was escalated.
    EpsilonRaised {
        /// ε before the escalation.
        from: f64,
        /// ε after the escalation.
        to: f64,
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// The per-vertex Pareto label cap was tightened.
    LabelCapTightened {
        /// Cap before tightening.
        from: usize,
        /// Cap after tightening.
        to: usize,
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// Remaining zone solves fell back to the greedy single-label
    /// completion (still a valid assignment, no optimality claim).
    GreedyFallback {
        /// Which resource ran out.
        reason: Exhaustion,
    },
    /// A zone worker faulted (panic or injected fault) and its result was
    /// salvaged by a greedy retry — the assignment is valid but carries
    /// no optimality claim for that zone.
    ZoneFaultContained {
        /// The zone whose solve faulted.
        zone: usize,
    },
    /// Every ranked candidate failed exact skew re-validation, so the
    /// design was returned unchanged (the identity assignment).
    IdentityFallback {
        /// How many ranked candidates were validated and rejected.
        candidates: usize,
        /// The smallest exact skew among them.
        best_skew: Picoseconds,
    },
    /// One shard of a sharded run ([`crate::shardrun`]) fell back to the
    /// identity assignment while other shards' assignments were kept, so
    /// only that shard's subtree was returned unchanged.
    ShardIdentityFallback {
        /// The shard, in shard order.
        shard: usize,
        /// How many of the shard's ranked candidates were rejected.
        candidates: usize,
        /// The smallest exact skew among them.
        best_skew: Picoseconds,
    },
}

impl std::fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ExactToApproximate { epsilon, reason } => {
                write!(f, "exact -> eps-approximate (eps = {epsilon}): {reason}")
            }
            Self::EpsilonRaised { from, to, reason } => {
                write!(f, "eps raised {from} -> {to}: {reason}")
            }
            Self::LabelCapTightened { from, to, reason } => {
                write!(f, "label cap tightened {from} -> {to}: {reason}")
            }
            Self::GreedyFallback { reason } => {
                write!(f, "greedy fallback: {reason}")
            }
            Self::ZoneFaultContained { zone } => {
                write!(f, "zone {zone} fault contained (salvaged on greedy rung)")
            }
            Self::IdentityFallback {
                candidates,
                best_skew,
            } => write!(
                f,
                "identity fallback: all {candidates} ranked candidate(s) failed exact skew \
                 validation (best {best_skew:.2})"
            ),
            Self::ShardIdentityFallback {
                shard,
                candidates,
                best_skew,
            } => write!(
                f,
                "shard {shard} identity fallback: all {candidates} ranked candidate(s) failed \
                 exact skew validation (best {best_skew:.2}); its subtree was left unchanged"
            ),
        }
    }
}

/// A machine-readable account of everything the optimizer relaxed to fit
/// its resource budget. Absent from an [`Outcome`] when the run completed
/// at full fidelity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// The relaxations, in the order they were applied.
    pub steps: Vec<DegradationStep>,
    /// Zone solves whose Pareto frontier was truncated mid-solve.
    pub exhausted_solves: usize,
    /// Total zone solves attempted during the run.
    pub total_solves: usize,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "degraded ({}/{} zone solves exhausted)",
            self.exhausted_solves, self.total_solves
        )?;
        for step in &self.steps {
            write!(f, "; {step}")?;
        }
        Ok(())
    }
}

/// The result of running an optimization algorithm on a design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// The chosen sink → cell mapping (plus delay codes).
    pub assignment: Assignment,
    /// Worst-mode peak current before optimization.
    pub peak_before: MilliAmps,
    /// Worst-mode peak current after optimization.
    pub peak_after: MilliAmps,
    /// Worst-mode VDD noise before optimization.
    pub vdd_noise_before: Millivolts,
    /// Worst-mode VDD noise after optimization.
    pub vdd_noise_after: Millivolts,
    /// Worst-mode ground noise before optimization.
    pub gnd_noise_before: Millivolts,
    /// Worst-mode ground noise after optimization.
    pub gnd_noise_after: Millivolts,
    /// Worst-mode clock skew before optimization.
    pub skew_before: Picoseconds,
    /// Worst-mode clock skew after optimization (exact re-analysis).
    pub skew_after: Picoseconds,
    /// The solver's internal min–max objective value for the chosen
    /// interval (sampled µA, not directly comparable across |S|).
    pub estimated_cost: f64,
    /// Number of feasible intervals examined.
    pub intervals_tried: usize,
    /// ADBs present in the optimized design (multi-mode flows).
    pub adb_count: usize,
    /// ADIs present in the optimized design (multi-mode flows).
    pub adi_count: usize,
    /// Wall-clock optimization time (excludes evaluation).
    pub runtime: Duration,
    /// What was relaxed to fit the resource budget (`None` = the run
    /// completed at full fidelity).
    pub degradation: Option<Degradation>,
    /// Zones whose sampling plan fell back to a single dummy time because
    /// the hot window was degenerate (see
    /// [`crate::sampling::SamplePlan::is_degenerate`]). Their sampled
    /// objectives are identically zero, so a nonzero count means parts of
    /// the reported `estimated_cost` are vacuous rather than optimal.
    pub degenerate_zones: usize,
    /// The run's structured metrics report (`None` unless the config set
    /// [`crate::config::WaveMinConfig::collect_metrics`] or
    /// [`crate::config::WaveMinConfig::trace_spans`]).
    #[serde(default)]
    pub report: Option<RunReport>,
    /// Zones whose solve faulted (panicked or hit an injected fault) and
    /// were salvaged by a greedy retry, sorted ascending. Empty for a
    /// clean run; non-empty means the assignment is valid but those zones
    /// carry no optimality claim. A sharded run lists each shard's
    /// zones (shard-local ids, like its `ZoneFaultContained` steps) in
    /// shard order; `ShardedOutcome::faulted_zones` pairs each with its
    /// shard.
    #[serde(default)]
    pub faulted_zones: Vec<usize>,
}

impl Outcome {
    /// Relative peak-current improvement in percent (positive = better).
    #[must_use]
    pub fn peak_improvement_pct(&self) -> f64 {
        improvement_pct(self.peak_before.value(), self.peak_after.value())
    }

    /// Relative VDD-noise improvement in percent.
    #[must_use]
    pub fn vdd_improvement_pct(&self) -> f64 {
        improvement_pct(self.vdd_noise_before.value(), self.vdd_noise_after.value())
    }

    /// Relative ground-noise improvement in percent.
    #[must_use]
    pub fn gnd_improvement_pct(&self) -> f64 {
        improvement_pct(self.gnd_noise_before.value(), self.gnd_noise_after.value())
    }
}

pub(crate) fn improvement_pct(before: f64, after: f64) -> f64 {
    if before.abs() < 1e-12 {
        0.0
    } else {
        (before - after) / before * 100.0
    }
}

/// A zone's lightweight description: everything the partition derives
/// for one zone *except* the sampled option vectors. Specs stay resident
/// for the whole run (a few hundred bytes each) while the heavy vectors
/// live behind [`streaming::ZoneStorage`]'s residency policy.
#[derive(Debug)]
pub(crate) struct ZoneSpec {
    /// The zone's id in the run's partition (the metrics registry keys its
    /// per-zone rows by this).
    pub id: usize,
    /// Indices into `table.sinks` for this zone's sinks.
    pub sinks: Vec<usize>,
    /// The zone's sampling plan.
    pub plan: SamplePlan,
    /// Non-leaf background sampled on the plan.
    pub background: Vec<f64>,
}

impl ZoneSpec {
    /// Partitions a design into zone specs (no vectors sampled yet).
    pub(crate) fn build_specs(
        design: &Design,
        config: &WaveMinConfig,
        table: &NoiseTable,
    ) -> Vec<ZoneSpec> {
        let grid = ZoneGrid::partition(&design.tree, config.zone_pitch);
        let k = config.samples_per_slot();
        // O(1) node -> sink lookup; the linear `sink_index` scan per zone
        // sink made zoning quadratic past ~100k sinks.
        let sink_of: std::collections::HashMap<wavemin_clocktree::NodeId, usize> = table
            .sinks
            .iter()
            .enumerate()
            .map(|(i, s)| (s.node, i))
            .collect();
        // Spatial buckets of non-leaf nodes at the zone pitch: a zone's
        // local-background query (its rect plus a half-pitch margin) only
        // touches the neighboring buckets instead of every non-leaf node.
        let pitch = grid.pitch().value();
        let mut nonleaf_buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
            std::collections::HashMap::new();
        if matches!(config.background, BackgroundMode::LocalZone) {
            for (i, (nid, _)) in table.nonleaf_nodes.iter().enumerate() {
                let loc = design.tree.node(*nid).location;
                let key = (
                    (loc.x.value() / pitch).floor() as i64,
                    (loc.y.value() / pitch).floor() as i64,
                );
                nonleaf_buckets.entry(key).or_default().push(i);
            }
        }
        grid.zones()
            .iter()
            .enumerate()
            .map(|(id, zone)| {
                let sinks: Vec<usize> = zone
                    .sinks
                    .iter()
                    .filter_map(|&n| sink_of.get(&n).copied())
                    .collect();
                let plan = SamplePlan::for_sinks(table, &sinks, k);
                let background = match config.background {
                    BackgroundMode::LocalZone => {
                        // Noise is local: only non-leaf elements near the
                        // zone (one half-pitch margin) compete with its
                        // leaves.
                        let margin = config.zone_pitch.value() * 0.5;
                        let rect = zone.rect(grid.pitch());
                        let rect = wavemin_clocktree::geom::Rect::new(
                            wavemin_clocktree::Point::new(
                                rect.min.x.value() - margin,
                                rect.min.y.value() - margin,
                            ),
                            wavemin_clocktree::Point::new(
                                rect.max.x.value() + margin,
                                rect.max.y.value() + margin,
                            ),
                        );
                        let bx0 = (rect.min.x.value() / pitch).floor() as i64;
                        let bx1 = (rect.max.x.value() / pitch).floor() as i64;
                        let by0 = (rect.min.y.value() / pitch).floor() as i64;
                        let by1 = (rect.max.y.value() / pitch).floor() as i64;
                        let mut local: Vec<usize> = Vec::new();
                        for bx in bx0..=bx1 {
                            for by in by0..=by1 {
                                if let Some(ids) = nonleaf_buckets.get(&(bx, by)) {
                                    local.extend(ids.iter().copied().filter(|&i| {
                                        let nid = table.nonleaf_nodes[i].0;
                                        rect.contains(design.tree.node(nid).location)
                                    }));
                                }
                            }
                        }
                        // Summing in node order keeps the result
                        // bit-identical to the full `nonleaf_within` scan.
                        local.sort_unstable();
                        plan.vector_of(&crate::noise_table::EventWaveforms::sum(
                            local.iter().map(|&i| &table.nonleaf_nodes[i].1),
                        ))
                    }
                    BackgroundMode::Global => plan.vector_of(&table.nonleaf),
                    BackgroundMode::None => vec![0.0; plan.dims()],
                };
                ZoneSpec {
                    id,
                    sinks,
                    plan,
                    background,
                }
            })
            .collect()
    }

    /// Samples this zone's option vectors into a full [`ZoneProblem`].
    /// Deterministic: materializing the same spec twice produces
    /// bit-identical vectors, which is what lets the streaming archive
    /// recompute evicted zones without changing results.
    pub(crate) fn materialize(&self, table: &NoiseTable) -> ZoneProblem {
        let vectors = self
            .sinks
            .iter()
            .map(|&si| {
                table.sinks[si]
                    .options
                    .iter()
                    .map(|o| self.plan.vector_of(&o.waves))
                    .collect()
            })
            .collect();
        ZoneProblem {
            id: self.id,
            sinks: self.sinks.clone(),
            plan: self.plan.clone(),
            background: self.background.clone(),
            vectors,
        }
    }

    /// Bytes this zone's materialized `vectors` occupy while hot
    /// (`Σ options × plan dims × 8`); the streaming feasibility check
    /// sizes the minimal working set from the largest zone's figure.
    pub(crate) fn hot_bytes(&self, table: &NoiseTable) -> usize {
        let options: usize = self
            .sinks
            .iter()
            .map(|&si| table.sinks[si].options.len())
            .sum();
        options * self.plan.dims() * std::mem::size_of::<f64>()
    }

    /// A content hash of everything this zone's solve can depend on
    /// *except* its predecessors' solutions (those enter through the
    /// [`crate::checkpoint::ZoneKeyChain`]): the characterized sink
    /// entries with all candidate waveforms, the sampling plan, and the
    /// sampled background. Node identities are deliberately excluded —
    /// choices are (option index, code) pairs, so two designs whose
    /// characterized zones match bit-for-bit can splice each other's
    /// solutions even if their node numbering differs. This is what makes
    /// an ECO re-solve incremental: untouched zones hash identically and
    /// hit the shared cache.
    pub(crate) fn content_hash(&self, table: &NoiseTable) -> u64 {
        use crate::checkpoint::{fnv1a, step};
        let mut h = fnv1a(b"wavemin-zone-content-v1");
        h = step(h, self.sinks.len() as u64);
        for &si in &self.sinks {
            let e = &table.sinks[si];
            h = step(h, e.input_arrival.value().to_bits());
            h = step(h, matches!(e.input_edge, ClockEdge::Fall) as u64);
            h = step(h, e.load.value().to_bits());
            h = step(h, e.options.len() as u64);
            for o in &e.options {
                h = step(h, fnv1a(o.cell.as_bytes()));
                h = step(h, o.kind as u64);
                h = step(h, o.delay.value().to_bits());
                h = step(h, o.arrival.value().to_bits());
                h = step(h, o.adjust_range.value().to_bits());
                h = step(h, u64::from(o.adjust_steps));
                for (rail, event) in crate::noise_table::EventWaveforms::SLOTS {
                    for (t, i) in o.waves.get(rail, event).breakpoints() {
                        h = step(h, t.value().to_bits());
                        h = step(h, i.value().to_bits());
                    }
                    h = step(h, 0x77); // slot separator
                }
            }
        }
        h = step(h, self.plan.times().len() as u64);
        for &t in self.plan.times() {
            h = step(h, t.value().to_bits());
        }
        h = step(h, u64::from(self.plan.is_degenerate()));
        h = step(h, self.background.len() as u64);
        for &b in &self.background {
            h = step(h, b.to_bits());
        }
        h
    }
}

/// A zone's precomputed sampled noise data, shared by all inner solvers.
#[derive(Debug, Clone)]
pub(crate) struct ZoneProblem {
    /// The zone's id in the run's partition (the metrics registry keys its
    /// per-zone rows by this).
    pub id: usize,
    /// Indices into `table.sinks` for this zone's sinks.
    pub sinks: Vec<usize>,
    /// The zone's sampling plan.
    pub plan: SamplePlan,
    /// Non-leaf background sampled on the plan.
    pub background: Vec<f64>,
    /// `vectors[local sink][option]` — sampled noise vectors (unshifted).
    pub vectors: Vec<Vec<Vec<f64>>>,
}

impl ZoneProblem {
    /// Appends the sampled vector of one option to `out`, delay-shifted
    /// when a nonzero adjustable code applies.
    fn extend_option_vector(
        &self,
        table: &NoiseTable,
        local: usize,
        option: usize,
        code: Picoseconds,
        out: &mut Vec<f64>,
    ) {
        if code == Picoseconds::ZERO {
            out.extend_from_slice(&self.vectors[local][option]);
        } else {
            let o = &table.sinks[self.sinks[local]].options[option];
            out.extend_from_slice(&self.plan.vector_of(&o.waves.shifted(code)));
        }
    }
}

/// What an inner solver sees of one zone inside one window: the zone's
/// hot problem in every power mode, the window, and the noise of the
/// zones already assigned in this window (the paper optimizes zones "one
/// by one"). A single-mode run is the one-mode case.
pub(crate) struct ZoneInput<'a> {
    /// The characterized noise table of every mode.
    pub tables: &'a [NoiseTable],
    /// The zone in every mode: the same sinks, each mode with its own
    /// plan, background and vectors.
    pub zones: &'a [Arc<ZoneProblem>],
    /// The window being solved.
    pub window: &'a FeasibleIntersection,
    /// Per mode, the waveforms of the zones assigned earlier in this
    /// window.
    pub accumulated: &'a [BackgroundAccumulator],
}

impl ZoneInput<'_> {
    /// The zone's id in the run's partition.
    pub(crate) fn id(&self) -> usize {
        self.zones[0].id
    }

    /// The number of power modes.
    pub(crate) fn modes(&self) -> usize {
        self.zones.len()
    }

    /// Indices into each table's `sinks` for this zone's sinks.
    pub(crate) fn sinks(&self) -> &[usize] {
        &self.zones[0].sinks
    }

    /// The window's allowed options of every local sink, borrowed
    /// straight from the window (no per-sink clones on the hot path).
    pub(crate) fn allowed(&self) -> Vec<&[usize]> {
        self.sinks()
            .iter()
            .map(|&si| self.window.allowed[si].as_slice())
            .collect()
    }

    /// The noise every assignment of this zone competes with, all modes
    /// concatenated: the static non-leaf background plus the zones
    /// assigned earlier in the window.
    pub(crate) fn background(&self) -> Vec<f64> {
        let mut modes = self
            .zones
            .iter()
            .zip(self.accumulated)
            .map(|(zone, accumulated)| {
                let mut background = zone.background.clone();
                zone.plan
                    .accumulate_background_into(&mut background, accumulated);
                background
            });
        let mut out = modes.next().unwrap_or_default();
        for background in modes {
            out.extend_from_slice(&background);
        }
        out
    }

    /// Appends option `opt` of local sink `local`: its delay code in every
    /// mode to `codes`, and its sampled vector in every mode (shifted by
    /// that code), concatenated, to `vector`. Returns `false` and leaves
    /// both buffers as they were when some mode's window fits no code.
    pub(crate) fn push_option(
        &self,
        local: usize,
        opt: usize,
        codes: &mut Vec<Picoseconds>,
        vector: &mut Vec<f64>,
    ) -> bool {
        let (codes_len, vector_len) = (codes.len(), vector.len());
        for (m, zone) in self.zones.iter().enumerate() {
            let (lo, hi) = self.window.windows[m];
            let table = &self.tables[m];
            let Some(code) = table.sinks[zone.sinks[local]].options[opt].delay_code_for(lo, hi)
            else {
                codes.truncate(codes_len);
                vector.truncate(vector_len);
                return false;
            };
            codes.push(code);
            zone.extend_option_vector(table, local, opt, code, vector);
        }
        true
    }
}

/// One zone's solution plus its min–max objective value including the
/// background.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ZoneSolution {
    /// `(option, delay code)` per local sink and mode, sink-major: entry
    /// `local * modes + m` is sink `local` in mode `m`. The option is the
    /// same in every mode; only the code differs. A single-mode solution
    /// is one pair per sink, the layout the checkpoint store records.
    pub choices: Vec<(usize, Picoseconds)>,
    pub cost: f64,
}

impl From<CachedZone> for ZoneSolution {
    /// A stored solution, spliced bit-for-bit.
    fn from(hit: CachedZone) -> Self {
        Self {
            choices: hit.choices_ps(),
            cost: hit.cost(),
        }
    }
}

/// Everything zone `zi`'s solve reads of `window`, hashed: for every local
/// sink, the window's allowed options in order and, for each option in
/// every mode, the delay code [`crate::noise_table::SinkOption::delay_code_for`]
/// gives it there (or that it fits no code). The inner solvers see the
/// window through nothing else ([`ZoneInput::allowed`] and
/// [`ZoneInput::push_option`]), so two windows with equal signatures pose
/// the zone the same subproblem after the same predecessors. Computed from
/// the zone specs and the tables alone, so the zone's vectors stay cold.
pub(crate) fn window_signature(
    prep: &PreparedRun,
    zi: usize,
    window: &FeasibleIntersection,
) -> u64 {
    use crate::checkpoint::step;
    let sinks = &prep.zones[0].spec(zi).sinks;
    let mut h = step(0x7769_6e64_6f77_7367, sinks.len() as u64);
    for (local, &si) in sinks.iter().enumerate() {
        let allowed = &window.allowed[si];
        h = step(h, allowed.len() as u64);
        for &opt in allowed {
            h = step(h, opt as u64);
            for (m, (storage, table)) in prep.zones.iter().zip(&prep.tables).enumerate() {
                let (lo, hi) = window.windows[m];
                let option = &table.sinks[storage.spec(zi).sinks[local]].options[opt];
                h = match option.delay_code_for(lo, hi) {
                    Some(code) => step(step(h, 1), code.value().to_bits()),
                    None => step(h, 0),
                };
            }
        }
    }
    h
}

/// An inner solver assigns one zone's sinks inside one window. Solvers
/// must be `Sync`: independent windows are solved concurrently on a
/// worker pool, all through one shared solver instance.
pub(crate) trait ZoneSolver: Sync {
    fn solve_zone(&self, zone: &ZoneInput<'_>) -> Result<ZoneSolution, WaveMinError>;

    /// The containment layer's one retry after [`Self::solve_zone`]
    /// faulted: solve the same zone on the cheapest rung available,
    /// injection-free. The default just retries the normal solve.
    fn salvage_zone(&self, zone: &ZoneInput<'_>) -> Result<ZoneSolution, WaveMinError> {
        self.solve_zone(zone)
    }

    /// The degradation ladder behind this solver, if it has one: it
    /// records contained zone faults, and its record and rung land in the
    /// finished outcome and report.
    fn ladder(&self) -> Option<&MospLadder> {
        None
    }
}

/// Everything the engine derives from a design before any zone is
/// solved: the characterized noise tables, the candidate windows, the
/// zone partition with solve order, and each zone's content hash.
/// Holding one of these resident is what makes a serve-mode session
/// cheap to re-solve — repeated jobs skip straight to the solve phase.
pub(crate) struct PreparedRun {
    /// The characterized noise table of every power mode.
    pub tables: Vec<NoiseTable>,
    /// The candidate windows. A single-mode run's windows are its
    /// feasible intervals, each the one-mode case of an intersection.
    pub windows: Vec<FeasibleIntersection>,
    /// Every zone behind the run's residency policy (materialized up
    /// front, or streamed through a budget-bounded compact archive), one
    /// storage per mode over the same partition.
    pub zones: Vec<streaming::ZoneStorage>,
    /// Zone indices largest-first (the solve order inside each window).
    pub zone_order: Vec<usize>,
    /// `zone_hashes[zone]` — content hash over every mode, for cache
    /// keying.
    pub zone_hashes: Vec<u64>,
    /// Zones (counted per mode) whose sampling plan fell back to a dummy
    /// time.
    pub degenerate_zones: usize,
    /// What [`solve_prepared`] does when every ranked window fails exact
    /// skew validation: `true` returns the identity assignment with a
    /// [`DegradationStep::IdentityFallback`]; `false` returns
    /// [`WaveMinError::NoFeasibleInterval`] so the caller can retry with a
    /// tighter window (ClkWaveMin-M's margin loop).
    pub identity_fallback: bool,
}

impl PreparedRun {
    /// Partitions every mode's sinks into zones and orders them for the
    /// solve. The windows start empty; the caller supplies them.
    /// `streaming` puts the (single) mode behind the budget-bounded
    /// archive instead of materializing it.
    pub(crate) fn partition(
        design: &Design,
        config: &WaveMinConfig,
        tables: Vec<NoiseTable>,
        streaming: bool,
        registry: &MetricsRegistry,
    ) -> Result<Self, WaveMinError> {
        let zones: Vec<streaming::ZoneStorage> =
            crate::parallel::map_ordered(&tables, config.effective_threads(), |_, table| {
                let specs = ZoneSpec::build_specs(design, config, table);
                if streaming {
                    let limit = streaming_limit_bytes(config, &specs, table)?;
                    Ok(streaming::ZoneStorage::streaming(specs, limit))
                } else {
                    Ok(streaming::ZoneStorage::materialized(specs, table))
                }
            })
            .into_iter()
            .collect::<Result<_, WaveMinError>>()?;
        let zone_count = zones.first().map_or(0, streaming::ZoneStorage::len);
        registry.ensure_zones(zone_count);
        // Zones are processed largest-first so the dominant zones shape
        // the accumulated background the smaller ones then avoid.
        let mut zone_order: Vec<usize> = (0..zone_count).collect();
        zone_order.sort_by_key(|&z| std::cmp::Reverse(zones[0].spec(z).sinks.len()));
        let degenerate_zones = zones
            .iter()
            .map(|storage| {
                (0..zone_count)
                    .filter(|&z| storage.spec(z).plan.is_degenerate())
                    .count()
            })
            .sum();
        let zone_hashes = (0..zone_count)
            .map(|z| {
                let mut modes = zones.iter().zip(&tables);
                let first = modes
                    .next()
                    .map_or(0, |(storage, table)| storage.spec(z).content_hash(table));
                modes.fold(first, |h, (storage, table)| {
                    crate::checkpoint::step(h, storage.spec(z).content_hash(table))
                })
            })
            .collect();
        Ok(Self {
            tables,
            windows: Vec::new(),
            zones,
            zone_order,
            zone_hashes,
            degenerate_zones,
            identity_fallback: true,
        })
    }
}

/// Characterizes a single-mode design into a [`PreparedRun`]: noise
/// table, feasible intervals as one-mode windows, zone partition, and
/// per-zone content hashes. This is the session-resident half of the
/// split entry point; [`solve_prepared`] is the repeatable half.
pub(crate) fn characterize_design(
    design: &Design,
    config: &WaveMinConfig,
    obs: &Observer,
) -> Result<PreparedRun, WaveMinError> {
    let table = {
        let _stage = obs.stage(Stage::Characterization);
        NoiseTable::build(design, config, 0)?
    };
    // Optimize against a slightly tightened window: Observation 4 ignores
    // sibling-load feedback during assignment, so headroom is reserved and
    // the exact bound is checked afterwards.
    let zoning = obs.stage(Stage::Zoning);
    let kappa_eff = config.skew_bound * config.window_margin;
    let intervals = IntervalSet::generate(&table, kappa_eff, config.max_intervals);
    if intervals.is_empty() {
        return Err(WaveMinError::NoFeasibleInterval);
    }
    let mut prep = PreparedRun::partition(
        design,
        config,
        vec![table],
        config.streaming_enabled(),
        &obs.registry,
    )?;
    prep.windows = intervals
        .into_intervals()
        .into_iter()
        .map(FeasibleIntersection::from)
        .collect();
    drop(zoning);
    obs.registry.sample_rss();
    Ok(prep)
}

/// Translates `--memory-budget-mb` into the compact archive's byte
/// budget, or rejects an infeasible budget with a typed error.
///
/// The budget covers the *whole process*: the archive may only use what
/// remains after the current resident set (characterized table, tree,
/// intervals) plus the transient working set of one acquire — the hot
/// widened zone and its compact copy, bounded by twice the largest
/// zone's hot bytes. A budget below that minimal working set cannot run
/// at any archive size, so it fails up front with
/// [`WaveMinError::MemoryBudget`] instead of thrashing or aborting.
fn streaming_limit_bytes(
    config: &WaveMinConfig,
    specs: &[ZoneSpec],
    table: &NoiseTable,
) -> Result<usize, WaveMinError> {
    const MB: usize = 1 << 20;
    let Some(budget_mb) = config.memory_budget_mb else {
        return Ok(usize::MAX); // streaming without a cap: archive all
    };
    let budget = budget_mb.saturating_mul(MB);
    let baseline = crate::observe::current_rss_bytes().unwrap_or(0) as usize;
    let max_hot = specs.iter().map(|s| s.hot_bytes(table)).max().unwrap_or(0);
    // Slack for resident memory the archive ledger cannot see: zone
    // widen/solve churn leaves freed chunks retained by the allocator,
    // and the interval loop holds accumulated backgrounds and per-
    // interval results. Reserved up front so the end-of-solve RSS stays
    // under the budget rather than just the archive's own bytes.
    let slack = 16 * MB + budget / 8;
    let required = baseline.saturating_add(2 * max_hot).saturating_add(slack);
    if budget < required.saturating_add(MB) {
        return Err(WaveMinError::MemoryBudget {
            budget_mb,
            required_mb: required / MB + 2,
        });
    }
    Ok(budget - required)
}

/// The one-shot single-mode flow of ClkWaveMin, ClkWaveMin-f and
/// ClkPeakMin: characterize, attach the checkpoint journal the config
/// asks for, run the engine, and finish the report.
pub(crate) fn optimize_single_mode<S: ZoneSolver>(
    design: &Design,
    config: &WaveMinConfig,
    solver: &S,
    obs: &Observer,
) -> Result<Outcome, WaveMinError> {
    config.validate()?;
    design.validate()?;
    let prep = characterize_design(design, config, obs)?;
    // Keys chain through every predecessor zone's content and solution,
    // so a journal hit is reusable bit-for-bit (see `crate::checkpoint`).
    let checkpoint = match &config.checkpoint_path {
        Some(path) => {
            let fingerprint = crate::checkpoint::design_fingerprint(design, config)?;
            let journal =
                crate::checkpoint::CheckpointJournal::open(path, fingerprint, config.resume)?;
            Some((journal, crate::checkpoint::config_fingerprint(config)?))
        }
        None => None,
    };
    let store = checkpoint
        .as_ref()
        .map(|(j, seed)| (j as &dyn ZoneStore, *seed));
    let mut out = solve_prepared(design, config, &prep, solver, obs, store)?;
    finish_run(Some(design), config, obs, solver, &mut out)?;
    Ok(out)
}

/// The engine: solves every window of a [`PreparedRun`] on the worker
/// pool, ranks them by cost, re-validates exact skew down the ranking,
/// and assembles the [`Outcome`]. Every interval-based flow runs through
/// here — ClkWaveMin, sessions, ClkWaveMin-f, ClkPeakMin and, with one
/// window per mode, ClkWaveMin-M.
///
/// Windows that pose a zone the same subproblem share its key (see
/// [`window_signature`]), and a run-local memo solves each key once per
/// run; the later windows splice it and count it as `zones_repeated`.
/// With a [`ZoneStore`] attached (checkpoint journal or the serve-mode
/// [`crate::checkpoint::ZoneCache`]) and its chain seed (which must
/// capture the solver config, see
/// [`crate::checkpoint::config_fingerprint`]), the memo's misses first
/// consult the store: zones whose key hits there are spliced bit-for-bit
/// and counted as `zones_reused`.
///
/// Each ranked candidate's exact re-validated skew lands in the observer's
/// event journal as a `candidate` instant (a diagnosis aid for
/// window-margin tuning).
pub(crate) fn solve_prepared<S: ZoneSolver>(
    design: &Design,
    config: &WaveMinConfig,
    prep: &PreparedRun,
    solver: &S,
    obs: &Observer,
    store: Option<(&dyn ZoneStore, u64)>,
) -> Result<Outcome, WaveMinError> {
    let start = std::time::Instant::now();
    let (solved, faulted_zones) = solve_windows(config, prep, solver, obs, store);
    let mut ranked: Vec<(f64, Assignment)> = Vec::new();
    let mut fault: Option<WaveMinError> = None;
    for result in solved {
        match result {
            Ok(Some(pair)) => ranked.push(pair),
            Ok(None) => {}
            // An uncontainable zone fault drops its window from the
            // ranking; only if *every* window is lost does it become the
            // run's error.
            Err(e @ WaveMinError::ZoneFault { .. }) => {
                if fault.is_none() {
                    fault = Some(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    if ranked.is_empty() {
        return Err(fault.unwrap_or(WaveMinError::NoFeasibleInterval));
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let intervals_tried = prep.windows.len();
    let runtime = start.elapsed();

    // Validate with exact timing (Observation 4 ignores sibling-load
    // feedback, so re-check against the true bound); fall back to the
    // next-best window, then to the identity assignment.
    let mut validation = obs.stage(Stage::Validation);
    let mut best_skew: Option<Picoseconds> = None;
    let mut chosen: Option<Outcome> = None;
    for (rank, (cost, assignment)) in ranked.iter().enumerate() {
        let mut candidate = design.clone();
        assignment.apply_to(&mut candidate);
        let skew = candidate.max_skew()?;
        let accepted = skew.value() <= config.skew_bound.value() + 1e-9;
        validation.instant(TraceEventKind::Candidate {
            rank,
            cost: *cost,
            skew_ps: skew.value(),
            accepted,
        });
        if accepted {
            chosen = Some(finish_outcome(
                design,
                &candidate,
                assignment.clone(),
                *cost,
                intervals_tried,
                runtime,
            )?);
            break;
        }
        best_skew = Some(best_skew.map_or(skew, |b| b.min(skew)));
    }
    let mut out = match (chosen, best_skew) {
        (Some(out), _) => out,
        (None, Some(best_skew)) if prep.identity_fallback => {
            // Keep the tree as-is, and say so.
            let mut out = finish_outcome(
                design,
                design,
                Assignment::new(),
                f64::NAN,
                intervals_tried,
                runtime,
            )?;
            out.degradation = Some(Degradation {
                steps: vec![DegradationStep::IdentityFallback {
                    candidates: ranked.len(),
                    best_skew,
                }],
                exhausted_solves: 0,
                total_solves: 0,
            });
            out
        }
        (None, _) => return Err(WaveMinError::NoFeasibleInterval),
    };
    out.degenerate_zones = prep.degenerate_zones;
    out.faulted_zones = faulted_zones;
    drop(validation);
    obs.registry.sample_rss();
    Ok(out)
}

/// One window's result: its cost and assignment, or `None` when some zone
/// had no feasible option in it.
pub(crate) type WindowResult = Result<Option<(f64, Assignment)>, WaveMinError>;

/// Solves every window of `prep`, chaining zones through the accumulated
/// background inside each one. Windows are independent, so they fan out
/// over the worker pool and come back in input order (bit-identical to a
/// sequential run). Each distinct zone key is solved once: the run-local
/// memo's in-flight reservations make a window that reaches a key another
/// window is solving wait and splice the result, so the counters do not
/// depend on the worker count either. Also returns the zones that faulted
/// and were salvaged, sorted.
pub(crate) fn solve_windows<S: ZoneSolver>(
    config: &WaveMinConfig,
    prep: &PreparedRun,
    solver: &S,
    obs: &Observer,
    store: Option<(&dyn ZoneStore, u64)>,
) -> (Vec<WindowResult>, Vec<usize>) {
    let modes = prep.tables.len();
    let registry = &obs.registry;
    registry.sample_rss();
    // Progress ticker for the whole solve (observation only — it never
    // feeds back into solver state, keeping enabled ≡ disabled runs
    // bit-identical). Each tick also folds an RSS sample into the peak
    // gauge so transient spikes between phase checkpoints are seen.
    let _progress_guard = obs.progress.begin(
        (prep.windows.len() * prep.zone_order.len()) as u64,
        registry,
    );

    // Zones that faulted and were salvaged, across all windows.
    let faulted = std::sync::Mutex::new(std::collections::BTreeSet::new());
    // Every distinct zone subproblem of this run, solved once. At most one
    // entry per (window, zone) slot; dropped when the solve returns.
    let memo = ZoneCache::new(usize::MAX);
    // The memo lives for one run of one config, so without a store to
    // share keys with, any fixed seed will do.
    let seed = store.map_or(0, |(_, seed)| seed);

    // Solve one zone with fault containment: a panic (or an injected
    // fault surfacing as `ZoneFault`) is noted, then retried once through
    // the solver's salvage path. A second failure makes the whole window
    // a fault — handled at ranking like an infeasible one as long as some
    // window survives.
    let contained_solve = |zi: usize, zone: &ZoneInput<'_>| -> Result<ZoneSolution, WaveMinError> {
        let attempt = |salvage: bool| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if salvage {
                    solver.salvage_zone(zone)
                } else {
                    solver.solve_zone(zone)
                }
            }))
        };
        let payload = match attempt(false) {
            Ok(Ok(sol)) => return Ok(sol),
            Ok(Err(WaveMinError::ZoneFault { payload, .. })) => payload,
            Ok(Err(e)) => return Err(e),
            Err(p) => crate::parallel::panic_payload(p.as_ref()),
        };
        if let Some(ladder) = solver.ladder() {
            ladder.note_zone_fault(zi);
        }
        registry.record_zone_fault();
        if let Ok(mut g) = faulted.lock() {
            g.insert(zi);
        }
        match attempt(true) {
            Ok(Ok(sol)) => {
                if let Some(ladder) = solver.ladder() {
                    ladder.note_zone_salvaged(zi);
                }
                registry.record_zone_salvage();
                Ok(sol)
            }
            Ok(Err(e)) => Err(WaveMinError::ZoneFault {
                zone: zi,
                payload: format!("{payload}; salvage failed: {e}"),
            }),
            Err(p) => Err(WaveMinError::ZoneFault {
                zone: zi,
                payload: format!(
                    "{payload}; salvage panicked: {}",
                    crate::parallel::panic_payload(p.as_ref())
                ),
            }),
        }
    };

    // The first window of the run to reach `key`: splice it from the store
    // if that vouches for it, otherwise solve it here and record it there.
    // `None` when the zone has no feasible option in the window.
    let solve_first = |zi: usize,
                       key: u64,
                       window: &FeasibleIntersection,
                       accumulated: &[BackgroundAccumulator]|
     -> Result<Option<ZoneSolution>, WaveMinError> {
        // The store's reservation, if any, marks the key in flight for
        // concurrent jobs; a successful record resolves it to a hit.
        let _reservation = match store.map(|(s, _)| s.acquire(key)) {
            Some(StoreAcquire::Hit(hit)) => {
                registry.record_zone_reused();
                return Ok(Some(ZoneSolution::from(hit)));
            }
            Some(StoreAcquire::Solve(reservation)) => reservation,
            None => None,
        };
        // The hot zone (and the solver's Pareto tables) lives only for
        // this solve.
        let hot: Vec<Arc<ZoneProblem>> = prep
            .zones
            .iter()
            .zip(&prep.tables)
            .map(|(storage, table)| storage.acquire(zi, table, registry))
            .collect();
        let input = ZoneInput {
            tables: &prep.tables,
            zones: &hot,
            window,
            accumulated,
        };
        let sol = match contained_solve(zi, &input) {
            Ok(sol) => sol,
            Err(WaveMinError::NoFeasibleInterval) => return Ok(None),
            Err(e) => return Err(e),
        };
        if let Some((s, _)) = store {
            s.record(key, sol.cost.to_bits(), &sol.choices)?;
        }
        Ok(Some(sol))
    };

    let solve_window = |window: &FeasibleIntersection| -> WindowResult {
        let _span = (modes > 1).then(|| registry.span(Stage::Intersection));
        let mut cost = 0.0_f64;
        let mut assignment = Assignment::new();
        let mut accumulated = vec![BackgroundAccumulator::zero(); modes];
        let mut chain = ZoneKeyChain::new(seed);
        for &zi in &prep.zone_order {
            let key = chain.key_for(prep.zone_hashes[zi], window_signature(prep, zi, window));
            // Splicing a stored solution needs only the zone's spec: the
            // vectors stay cold.
            let sol = match memo.acquire(key) {
                StoreAcquire::Hit(hit) => {
                    registry.record_zone_repeated();
                    ZoneSolution::from(hit)
                }
                StoreAcquire::Solve(_first) => {
                    // Windows reaching the key meanwhile wait on this
                    // reservation, which every exit path releases.
                    let Some(sol) = solve_first(zi, key, window, &accumulated)? else {
                        return Ok(None);
                    };
                    memo.record(key, sol.cost.to_bits(), &sol.choices)?;
                    sol
                }
            };
            chain.absorb(prep.zone_hashes[zi], sol.cost.to_bits(), &sol.choices);
            obs.progress.zone_done();
            cost = cost.max(sol.cost);
            for (local, choices) in sol.choices.chunks(modes).enumerate() {
                let opt = choices[0].0;
                let entry = &prep.tables[0].sinks[prep.zones[0].spec(zi).sinks[local]];
                let cell = &entry.options[opt];
                assignment.set(entry.node, cell.cell.clone());
                for (m, &(_, code)) in choices.iter().enumerate() {
                    let si = prep.zones[m].spec(zi).sinks[local];
                    let waves = &prep.tables[m].sinks[si].options[opt].waves;
                    if code > Picoseconds::ZERO {
                        accumulated[m].push(&waves.shifted(code));
                    } else {
                        accumulated[m].push(waves);
                    }
                    // Adjustable cells always record their code (a zero
                    // overwrites any stale code from ADB insertion).
                    if cell.is_adjustable() {
                        assignment.set_delay_code(m, entry.node, code);
                    }
                }
            }
        }
        registry.sample_rss();
        Ok(Some((cost, assignment)))
    };
    let solved =
        crate::parallel::map_ordered(&prep.windows, config.effective_threads(), |_, window| {
            solve_window(window)
        });
    registry.sample_solve_rss();
    let faulted_zones = match faulted.into_inner() {
        Ok(g) => g.into_iter().collect(),
        Err(poisoned) => poisoned.into_inner().into_iter().collect(),
    };
    (solved, faulted_zones)
}

/// Finishes a driver's outcome — the one place every flow does it. The
/// solver ladder's degradation record (if any) goes in front of the
/// engine's own steps, the ladder's fault-contained zones join the
/// engine's, and with metrics on the run report is stamped, including the
/// peak attribution when `design` (the design the outcome's assignment
/// applies to) is given.
pub(crate) fn finish_run<S: ZoneSolver>(
    design: Option<&Design>,
    config: &WaveMinConfig,
    obs: &Observer,
    solver: &S,
    out: &mut Outcome,
) -> Result<(), WaveMinError> {
    let ladder = solver.ladder();
    let engine_steps = out.degradation.take().map_or_else(Vec::new, |d| d.steps);
    out.degradation = match ladder {
        Some(ladder) => ladder.degradation(engine_steps),
        None => (!engine_steps.is_empty()).then_some(Degradation {
            steps: engine_steps,
            exhausted_solves: 0,
            total_solves: 0,
        }),
    };
    if let Some(ladder) = ladder {
        out.faulted_zones.extend(ladder.faulted_zones());
        out.faulted_zones.sort_unstable();
        out.faulted_zones.dedup();
    }
    out.report = obs.registry.report(&ReportContext {
        threads: config.effective_threads(),
        degenerate_zones: out.degenerate_zones,
        ladder_rung: ladder.map_or(0, MospLadder::current_rung),
        budget_units: ladder.map_or(0, MospLadder::work_done),
    });
    if let (Some(design), true) = (design, out.report.is_some()) {
        let attribution = worst_mode_attribution(design, out)?;
        if let Some(report) = out.report.as_mut() {
            report.attribution = attribution;
        }
    }
    Ok(())
}

/// The peak attribution of the outcome's assignment: every mode is
/// decomposed and the one with the largest attributed peak wins (matching
/// the worst-mode `peak_after` the outcome reports).
fn worst_mode_attribution(
    design: &Design,
    out: &Outcome,
) -> Result<Option<PeakAttribution>, WaveMinError> {
    let mut optimized = design.clone();
    out.assignment.apply_to(&mut optimized);
    let eval = NoiseEvaluator::new(&optimized);
    let mut best: Option<PeakAttribution> = None;
    for mode in 0..optimized.mode_count() {
        let attr = eval.attribution(mode)?;
        if best.as_ref().is_none_or(|b| attr.peak_ma > b.peak_ma) {
            best = Some(attr);
        }
    }
    Ok(best)
}

/// Evaluates before/after and assembles the [`Outcome`].
pub(crate) fn finish_outcome(
    before: &Design,
    after: &Design,
    assignment: Assignment,
    estimated_cost: f64,
    intervals_tried: usize,
    runtime: Duration,
) -> Result<Outcome, WaveMinError> {
    let eval_before = NoiseEvaluator::new(before);
    let eval_after = NoiseEvaluator::new(after);
    let mut out = Outcome {
        assignment,
        peak_before: MilliAmps::ZERO,
        peak_after: MilliAmps::ZERO,
        vdd_noise_before: Millivolts::ZERO,
        vdd_noise_after: Millivolts::ZERO,
        gnd_noise_before: Millivolts::ZERO,
        gnd_noise_after: Millivolts::ZERO,
        skew_before: Picoseconds::ZERO,
        skew_after: Picoseconds::ZERO,
        estimated_cost,
        intervals_tried,
        adb_count: count_kind(after, CellKind::Adb),
        adi_count: count_kind(after, CellKind::Adi),
        runtime,
        degradation: None,
        degenerate_zones: 0,
        report: None,
        faulted_zones: Vec::new(),
    };
    for mode in 0..before.mode_count() {
        let rb = eval_before.evaluate(mode)?;
        out.peak_before = out.peak_before.max(rb.peak);
        out.vdd_noise_before = out.vdd_noise_before.max(rb.vdd_noise);
        out.gnd_noise_before = out.gnd_noise_before.max(rb.gnd_noise);
        out.skew_before = out.skew_before.max(rb.skew);
    }
    for mode in 0..after.mode_count() {
        let ra = eval_after.evaluate(mode)?;
        out.peak_after = out.peak_after.max(ra.peak);
        out.vdd_noise_after = out.vdd_noise_after.max(ra.vdd_noise);
        out.gnd_noise_after = out.gnd_noise_after.max(ra.gnd_noise);
        out.skew_after = out.skew_after.max(ra.skew);
    }
    Ok(out)
}

/// Counts the tree's cells of one kind.
pub(crate) fn count_kind(design: &Design, kind: CellKind) -> usize {
    design
        .tree
        .iter()
        .filter(|(_, n)| design.lib.get(&n.cell).is_some_and(|c| c.kind() == kind))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_signature_reads_only_what_the_zone_sees() {
        use crate::prelude::Benchmark;
        // Adjustable leaves: each sink may use ADB_X8 or ADI_X8, and their
        // delay codes follow the window's bounds.
        let mut design = Design::from_benchmark(&Benchmark::s15850(), 7);
        for leaf in design.leaves() {
            design.tree.set_cell(leaf, "ADB_X8");
        }
        let config = WaveMinConfig::default().with_sample_count(8);
        let prep = characterize_design(&design, &config, &Observer::default()).expect("prepare");
        let chain = ZoneKeyChain::new(1);
        let key = |zi: usize, w: &FeasibleIntersection| {
            chain.key_for(prep.zone_hashes[zi], window_signature(&prep, zi, w))
        };
        let mut zones =
            (0..prep.zone_hashes.len()).filter(|&z| !prep.zones[0].spec(z).sinks.is_empty());
        let (a, b) = (zones.next().expect("zone a"), zones.next().expect("zone b"));
        let window = &prep.windows[0];

        // Narrowing a sink of zone b leaves zone a's subproblem as it was.
        let outside = prep.zones[0].spec(b).sinks[0];
        let mut narrowed = window.clone();
        narrowed.allowed[outside].truncate(1);
        assert_ne!(
            narrowed.allowed, window.allowed,
            "fixture must narrow a sink"
        );
        assert_eq!(
            key(a, window),
            key(a, &narrowed),
            "options outside the zone"
        );
        assert_ne!(key(b, window), key(b, &narrowed), "options inside the zone");

        // Two windows of equal width, the second one adjustment step
        // later: zone a's first adjustable option needs a different code.
        let si = prep.zones[0].spec(a).sinks[0];
        let option = &prep.tables[0].sinks[si].options[window.allowed[si][0]];
        assert!(option.is_adjustable(), "fixture must use an ADB/ADI option");
        let step = option.adjust_range.value() / f64::from(option.adjust_steps);
        let width = window.windows[0].1.value() - window.windows[0].0.value();
        let at = |lo: f64| {
            let mut w = window.clone();
            w.windows[0] = (Picoseconds::new(lo), Picoseconds::new(lo + width));
            w
        };
        let (early, late) = (
            at(option.arrival.value()),
            at(option.arrival.value() + step),
        );
        let code = |w: &FeasibleIntersection| option.delay_code_for(w.windows[0].0, w.windows[0].1);
        assert_ne!(
            code(&early),
            code(&late),
            "fixture must move the delay code"
        );
        assert_ne!(key(a, &early), key(a, &late), "a moved delay code");
    }

    #[test]
    fn improvement_percentage() {
        assert!((improvement_pct(100.0, 80.0) - 20.0).abs() < 1e-12);
        assert!((improvement_pct(100.0, 120.0) + 20.0).abs() < 1e-12);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn outcome_improvements_are_consistent() {
        let o = Outcome {
            assignment: Assignment::new(),
            peak_before: MilliAmps::new(10.0),
            peak_after: MilliAmps::new(8.0),
            vdd_noise_before: Millivolts::new(5.0),
            vdd_noise_after: Millivolts::new(4.0),
            gnd_noise_before: Millivolts::new(5.0),
            gnd_noise_after: Millivolts::new(6.0),
            skew_before: Picoseconds::ZERO,
            skew_after: Picoseconds::ZERO,
            estimated_cost: 0.0,
            intervals_tried: 0,
            adb_count: 0,
            adi_count: 0,
            runtime: Duration::ZERO,
            degradation: None,
            degenerate_zones: 0,
            report: None,
            faulted_zones: Vec::new(),
        };
        assert!((o.peak_improvement_pct() - 20.0).abs() < 1e-9);
        assert!((o.vdd_improvement_pct() - 20.0).abs() < 1e-9);
        assert!(o.gnd_improvement_pct() < 0.0);
    }
}
