//! The traced run: calls each layer's public entry point on a workload's
//! inputs from outside the program. The same pass over the designs runs
//! twice, first with spans off (the untraced reference) and then with a
//! span (name, parent, design, start, end) around every call and the
//! counts each layer exposes. Spans stay in memory and are written out
//! when the run ends.

use crate::check::worst_peak_ma;
use crate::workload::{clk_path, power_path, Workload, THREADS};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use wavemin::multimode::{insert_adbs, IntersectionSet};
use wavemin::prelude::*;
use wavemin_cells::units::Volts;
use wavemin_clocktree::{io as tree_io, power_io};

/// Beam width `ClkWaveMinM` intersects per-mode interval sets with.
const MULTIMODE_BEAM: usize = 24;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    design: String,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans and counts; when disabled it only runs the calls.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, design: &str) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            design: design.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let design = self.spans[parent].design.clone();
        let id = self.open(name, Some(parent), &design);
        let out = f();
        self.close(id);
        out
    }

    fn add(&mut self, count: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(count).or_insert(0.0) += value;
        }
    }

    fn duration_s(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }
}

fn read_design(dir: &Path, name: &str, multimode: bool) -> Result<Design, String> {
    let read = |path: String| std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"));
    let tree = tree_io::read_tree(&read(clk_path(dir, name))?).map_err(|e| e.to_string())?;
    let power = if multimode {
        power_io::read_power(&read(power_path(dir, name))?).map_err(|e| e.to_string())?
    } else {
        PowerDesign::uniform(Volts::new(1.1))
    };
    Ok(Design::new(tree, CellLibrary::nangate45(), power))
}

fn record_outcome(t: &mut Tracer, outcome: &Outcome) {
    t.add("algo.intervals_tried", outcome.intervals_tried as f64);
    t.add("multimode.adb_count", outcome.adb_count as f64);
    t.add("multimode.adi_count", outcome.adi_count as f64);
    if let Some(report) = &outcome.report {
        let c = &report.counters;
        for (name, value) in [
            ("algo.zone_solves", c.zone_solves),
            ("mosp.labels_created", c.labels_created),
            ("mosp.labels_pruned", c.labels_pruned),
            ("mosp.dominance_checks", c.dominance_checks),
            ("mosp.dominance_skipped", c.dominance_skipped),
            ("mosp.pareto_paths", c.pareto_paths),
            ("mosp.arena_arcs", c.arena_arcs),
            ("mosp.arena_unique_weights", c.arena_unique_weights),
        ] {
            t.add(name, value as f64);
        }
    }
}

/// The workload's solver call on one design at `threads` worker threads.
/// Single-mode designs solve through a session when `session` is given.
fn solve(
    workload: Workload,
    design: &Design,
    session: Option<&CharacterizedDesign>,
    threads: usize,
) -> Result<Outcome, WaveMinError> {
    let config = workload.config(threads);
    match (workload, session) {
        (Workload::MultimodePaper, _) => ClkWaveMinM::new(config).run(design),
        (_, Some(session)) => session.solve(&SolveOptions {
            threads: Some(threads),
            collect_metrics: true,
            ..SolveOptions::default()
        }),
        (_, None) => ClkWaveMin::new(config).run(design),
    }
}

/// The span names of the solver calls.
const SOLVE_SPANS: [&str; 2] = ["algo.solve", "multimode.run"];

/// One design the pass has solved: its input, its session (single-mode
/// designs other than the streaming scale tree) and the worst-mode peaks
/// before and after that the solver reported, mA.
struct Solved {
    name: String,
    input: Design,
    session: Option<CharacterizedDesign>,
    peaks_ma: (f64, f64),
}

/// The program path of `workload` on the design `name` in `dir`, under a
/// root span `design`: read the tree, characterize and solve, time the
/// result exactly, evaluate its peak and write it to `out_dir`.
fn solve_design(
    t: &mut Tracer,
    workload: Workload,
    name: &str,
    dir: &Path,
    out_dir: &Path,
) -> Result<Solved, String> {
    let err = |e: WaveMinError| e.to_string();
    let config = workload.config(THREADS);
    let d = t.open("design", None, name);
    let input = t.span("clocktree.read_tree", d, || {
        read_design(dir, name, workload.is_multimode())
    })?;
    let (session, outcome) = match workload {
        Workload::PaperOneshot | Workload::ServeEco => {
            let s = t
                .span("session.new", d, || {
                    CharacterizedDesign::new(input.clone(), config.clone())
                })
                .map_err(err)?;
            let outcome = t.span("algo.solve", d, || {
                solve(workload, &input, Some(&s), THREADS)
            });
            (Some(s), outcome)
        }
        Workload::ScaleStream => (
            None,
            t.span("algo.solve", d, || solve(workload, &input, None, THREADS)),
        ),
        Workload::MultimodePaper => (
            None,
            t.span("multimode.run", d, || {
                solve(workload, &input, None, THREADS)
            }),
        ),
    };
    let outcome = outcome.map_err(err)?;
    record_outcome(t, &outcome);
    let mut out = input.clone();
    outcome.assignment.apply_to(&mut out);
    t.span("clocktree.max_skew", d, || out.max_skew())
        .map_err(err)?;
    t.span("eval.evaluate", d, || worst_peak_ma(&out))
        .map_err(err)?;
    let path = clk_path(out_dir, name);
    t.span("clocktree.write_tree", d, || {
        std::fs::write(&path, tree_io::write_tree(&out.tree))
    })
    .map_err(|e| format!("{path}: {e}"))?;
    t.close(d);
    Ok(Solved {
        name: name.to_owned(),
        input,
        session,
        peaks_ma: (outcome.peak_before.value(), outcome.peak_after.value()),
    })
}

/// Layer calls the program makes inside a solver, timed on their own
/// after the pass and outside its wall: characterization per mode,
/// interval generation and, for multi-mode designs, [`multimode_steps`].
fn probe(t: &mut Tracer, workload: Workload, solved: &[Solved]) -> Result<(), String> {
    let err = |e: WaveMinError| e.to_string();
    let config = workload.config(THREADS);
    let kappa = config.skew_bound;
    let root = t.open("probe", None, "");
    for Solved { name, input, .. } in solved {
        let d = t.open("design", Some(root), name);
        let tables = t
            .span("noise_table.build", d, || {
                (0..input.mode_count())
                    .map(|m| NoiseTable::build(input, &config, m))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(err)?;
        let options: usize = tables
            .iter()
            .flat_map(|tb| tb.sinks.iter().map(|s| s.options.len()))
            .sum();
        t.add("noise_table.sink_options", options as f64);
        let intervals: usize = t.span("intervals.generate", d, || {
            tables
                .iter()
                .map(|tb| IntervalSet::generate(tb, kappa, config.max_intervals).len())
                .sum()
        });
        t.add("intervals.count", intervals as f64);
        if workload.is_multimode() {
            multimode_steps(t, d, input, &tables, &config)?;
        }
        t.close(d);
    }
    t.close(root);
    Ok(())
}

/// The interval intersection and ADB insertion `ClkWaveMinM` starts
/// with, on `input` and its per-mode noise `tables`.
fn multimode_steps(
    t: &mut Tracer,
    d: usize,
    input: &Design,
    tables: &[NoiseTable],
    config: &WaveMinConfig,
) -> Result<(), String> {
    let tight = WaveMinConfig {
        skew_bound: config.skew_bound * config.window_margin,
        ..config.clone()
    };
    // No feasible intersection before ADB insertion is a valid result: the
    // flow then embeds ADBs and intersects again.
    let intersections = match t.span("multimode.intersect", d, || {
        IntersectionSet::generate(input, &tight, tables, MULTIMODE_BEAM)
    }) {
        Ok(set) => set.len(),
        Err(WaveMinError::NoFeasibleInterval) => 0,
        Err(e) => return Err(e.to_string()),
    };
    t.add("multimode.intersections", intersections as f64);
    t.span("multimode.insert_adbs", d, || {
        let mut embedded = input.clone();
        // Infeasible repairs are a valid result here; only the time matters.
        let _ = insert_adbs(&mut embedded, tight.skew_bound);
    });
    Ok(())
}

/// The multi-mode layer on the `multimode_paper` designs of `seed` (the
/// first tree of each circuit), after the pass and outside its wall, so
/// that a workload whose pass is single-mode still measures it. Only the
/// multi-mode counts are kept: the engine's MOSP counters would mix into
/// the pass's.
fn multimode_probe(t: &mut Tracer, seed: u64) -> Result<(), String> {
    let err = |e: WaveMinError| e.to_string();
    let workload = Workload::MultimodePaper;
    let config = workload.config(THREADS);
    let root = t.open("multimode_probe", None, "");
    for instance in workload.instances(seed).iter().filter(|i| i.variant == 0) {
        let input = workload.design(&instance.bench, instance.seed);
        let d = t.open("design", Some(root), &instance.name);
        let tables = (0..input.mode_count())
            .map(|m| NoiseTable::build(&input, &config, m))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        multimode_steps(t, d, &input, &tables, &config)?;
        let outcome = t
            .span("multimode.run", d, || {
                solve(workload, &input, None, THREADS)
            })
            .map_err(err)?;
        t.add("multimode.adb_count", outcome.adb_count as f64);
        t.add("multimode.adi_count", outcome.adi_count as f64);
        t.close(d);
    }
    t.close(root);
    Ok(())
}

/// The traced run of `workload` over the inputs in `dir` (generated for
/// `seed`), writing each optimized tree to `out_dir`. The pass takes the
/// first tree of each circuit (one batch tree set, one design per
/// `serve_eco` client) and runs each design untraced and traced back to
/// back, the order alternating from design to design so that neither
/// always meets the colder caches. Then come the layer probes (on
/// `paper_oneshot` the multi-mode one too) and every design solved once
/// more at one thread for the 2-thread speedup; only the pass counts
/// toward the walls. The solver's reported peaks of each design come
/// back for the output check.
pub fn run(workload: Workload, seed: u64, dir: &Path, out_dir: &Path) -> Result<Value, String> {
    let mut untraced = Tracer::new(false);
    let mut t = Tracer::new(true);
    let mut untraced_wall_s = 0.0;
    let mut solved = Vec::new();
    // Instance names do not depend on the seed; the files in `dir` do.
    let names = workload.instances(0).into_iter().filter(|i| i.variant == 0);
    for (i, instance) in names.enumerate() {
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            if traced_turn {
                solved.push(solve_design(
                    &mut t,
                    workload,
                    &instance.name,
                    dir,
                    out_dir,
                )?);
            } else {
                let start = Instant::now();
                let kept = solve_design(&mut untraced, workload, &instance.name, dir, out_dir)?;
                untraced_wall_s += start.elapsed().as_secs_f64();
                drop(kept);
            }
        }
    }
    let wall_s: f64 = (0..t.spans.len())
        .filter(|&id| t.spans[id].parent.is_none())
        .map(|id| t.duration_s(id))
        .sum();
    let solve_2t_s: f64 = (0..t.spans.len())
        .filter(|&id| SOLVE_SPANS.contains(&t.spans[id].name))
        .map(|id| t.duration_s(id))
        .sum();
    probe(&mut t, workload, &solved)?;
    if workload == Workload::PaperOneshot {
        multimode_probe(&mut t, seed)?;
    }

    let start = Instant::now();
    for s in &solved {
        solve(workload, &s.input, s.session.as_ref(), 1).map_err(|e| e.to_string())?;
    }
    let solve_1t_s = start.elapsed().as_secs_f64();

    let spans = t
        .spans
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("name".to_owned(), Value::Str(s.name.to_owned())),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("design".to_owned(), Value::Str(s.design.clone())),
                ("start_ns".to_owned(), Value::UInt(s.start_ns)),
                ("end_ns".to_owned(), Value::UInt(s.end_ns)),
            ])
        })
        .collect();
    let peaks = solved
        .iter()
        .map(|s| {
            let (before, after) = s.peaks_ma;
            (
                s.name.clone(),
                Value::Seq(vec![Value::Float(before), Value::Float(after)]),
            )
        })
        .collect();
    let counts = t
        .counts
        .iter()
        .map(|(k, v)| ((*k).to_owned(), Value::Float(*v)))
        .collect();
    Ok(Value::Map(vec![
        ("solve_1t_s".to_owned(), Value::Float(solve_1t_s)),
        ("solve_2t_s".to_owned(), Value::Float(solve_2t_s)),
        ("untraced_wall_s".to_owned(), Value::Float(untraced_wall_s)),
        ("wall_s".to_owned(), Value::Float(wall_s)),
        ("peaks_ma".to_owned(), Value::Map(peaks)),
        ("spans".to_owned(), Value::Seq(spans)),
        ("counts".to_owned(), Value::Map(counts)),
    ]))
}
