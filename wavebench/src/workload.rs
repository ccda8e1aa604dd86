//! The four benchmark workloads: which designs each runs, how the program
//! is invoked on them, and how their seeded inputs are written to disk.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::path::Path;
use wavemin::prelude::*;
use wavemin_cells::units::Picoseconds;
use wavemin_clocktree::{io as tree_io, power_io};

/// Skew bound of every workload, the paper's default κ. The manifest
/// carries it to run.py.
pub const KAPPA_PS: f64 = 20.0;
/// Worker threads of every one-shot `optimize` (and of the traced pass).
pub const THREADS: usize = 2;
/// `--memory-budget-mb` of the streaming scale run.
const SCALE_BUDGET_MB: usize = 2048;
/// `wavemin serve` flags of the `serve_eco` daemon.
const DAEMON_FLAGS: &[&str] = &["--workers", "2", "--threads", "1"];
/// Client rounds per second of `--seconds` on each `serve_eco` circuit,
/// about what one client makes on a 2-core host. A client runs a fixed
/// number of rounds, not until a deadline: then every run of a seed sends
/// the same jobs, and the zone cache (which only grows within a run)
/// ends the same size whatever the program's or the host's speed.
const SERVE_ROUNDS_PER_S: &[(&str, f64)] = &[("s38417", 3.8), ("ispd09f34", 9.0)];
/// Voltage islands and power modes of the multi-mode designs.
const MULTIMODE_DOMAINS: usize = 3;
const MULTIMODE_MODES: usize = 4;
/// Sinks of the scale workload's single tree.
const SCALE_SINKS: usize = 50_000;
/// Length of each session's seeded ECO edit list: long enough that a
/// client never repeats an edit within one run, so the zone cache sees
/// fresh edits throughout instead of warming up on a short cycle.
const ECO_EDITS: usize = 4096;

/// One design of a run: a seeded tree of one circuit.
pub struct Instance {
    pub name: String,
    pub bench: Benchmark,
    /// Synthesis seed, derived from the run's seed.
    pub seed: u64,
    /// Which of the circuit's trees this is, `0..variants`.
    pub variant: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperOneshot,
    MultimodePaper,
    ScaleStream,
    ServeEco,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_oneshot" => Some(Self::PaperOneshot),
            "multimode_paper" => Some(Self::MultimodePaper),
            "scale_stream" => Some(Self::ScaleStream),
            "serve_eco" => Some(Self::ServeEco),
            _ => None,
        }
    }

    fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            Self::PaperOneshot => Benchmark::all(),
            // s35932 alone takes 6–12 s and 0.6–2.2 GB per multi-mode tree,
            // more than the other six circuits together; with it a run could
            // not hold the three trees per circuit its figures need.
            Self::MultimodePaper => Benchmark::all()
                .into_iter()
                .filter(|b| b.name != "s35932")
                .collect(),
            Self::ScaleStream => vec![Benchmark::scale("scale50k", SCALE_SINKS)],
            Self::ServeEco => vec![Benchmark::s38417(), Benchmark::ispd09f34()],
        }
    }

    /// Seeded trees per circuit in one run. A batch run's passes cycle
    /// over the tree sets in whole cycles, so every run of a seed measures
    /// the same designs however fast the program is, and its figures take
    /// each circuit's median over the trees (a multi-mode tree's cost is
    /// heavy-tailed: a few trees cost several times the others). A
    /// `serve_eco` client holds one session per tree.
    fn variants(self) -> u64 {
        match self {
            Self::ScaleStream => 1,
            Self::PaperOneshot => 4,
            Self::MultimodePaper => 3,
            Self::ServeEco => 12,
        }
    }

    /// Every design instance of a run, circuit by circuit.
    pub fn instances(self, seed: u64) -> Vec<Instance> {
        let variants = self.variants();
        let mut out = Vec::new();
        for bench in self.benchmarks() {
            for variant in 0..variants {
                let (name, seed) = if variants == 1 {
                    (bench.name.clone(), seed)
                } else {
                    let sub =
                        seed.wrapping_mul(variants).wrapping_add(variant) ^ bench.leaf_count as u64;
                    (format!("{}.{variant}", bench.name), sub)
                };
                out.push(Instance {
                    name,
                    bench: bench.clone(),
                    seed,
                    variant,
                });
            }
        }
        out
    }

    pub fn is_multimode(self) -> bool {
        self == Self::MultimodePaper
    }

    pub fn design(self, bench: &Benchmark, seed: u64) -> Design {
        if self.is_multimode() {
            Design::from_benchmark_multimode(bench, seed, MULTIMODE_DOMAINS, MULTIMODE_MODES)
        } else {
            Design::from_benchmark(bench, seed)
        }
    }

    /// `wavemin optimize` flags beyond `-i`, `--power` and `-o`: the
    /// command-line form of [`Self::config`] at [`THREADS`].
    fn optimize_flags(self) -> Vec<String> {
        let config = self.config(THREADS);
        let mut flags = Vec::new();
        if self.is_multimode() {
            flags.extend(["--algorithm", "multimode"].map(String::from));
        }
        if config.streaming {
            flags.push("--streaming".to_owned());
        }
        if let Some(mb) = config.memory_budget_mb {
            flags.extend(["--memory-budget-mb".to_owned(), mb.to_string()]);
        }
        flags.extend([
            "--threads".to_owned(),
            THREADS.to_string(),
            "--kappa".to_owned(),
            config.skew_bound.value().to_string(),
        ]);
        flags
    }

    /// The in-process configuration of the workload's program runs (for
    /// `serve_eco`, of a daemon session), with metrics collected.
    pub fn config(self, threads: usize) -> WaveMinConfig {
        let mut config = WaveMinConfig {
            skew_bound: Picoseconds::new(KAPPA_PS),
            threads: Some(threads),
            collect_metrics: true,
            ..WaveMinConfig::default()
        };
        if self == Self::ScaleStream {
            config.streaming = true;
            config.memory_budget_mb = Some(SCALE_BUDGET_MB);
        }
        config
    }
}

pub fn clk_path(dir: &Path, name: &str) -> String {
    dir.join(format!("{name}.clk")).display().to_string()
}

pub fn power_path(dir: &Path, name: &str) -> String {
    dir.join(format!("{name}.pw")).display().to_string()
}

fn sdf_path(dir: &Path, name: &str) -> String {
    dir.join(format!("{name}.sdf")).display().to_string()
}

fn strs<S: AsRef<str>>(items: &[S]) -> Value {
    Value::Seq(
        items
            .iter()
            .map(|s| Value::Str(s.as_ref().to_owned()))
            .collect(),
    )
}

fn entry(key: &str, value: Value) -> (String, Value) {
    (key.to_owned(), value)
}

/// Synthesizes every design of `workload` for `seed` and writes its input
/// files into `dir`: the tree, the power file of a multi-mode design and
/// the SDF of a `serve_eco` session. Returns each instance with its SDF.
fn write_inputs(
    workload: Workload,
    seed: u64,
    dir: &Path,
) -> Result<Vec<(Instance, Option<String>)>, String> {
    let write = |path: &str, text: &str| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    };
    let mut out = Vec::new();
    for instance in workload.instances(seed) {
        let design = workload.design(&instance.bench, instance.seed);
        let name = &instance.name;
        write(&clk_path(dir, name), &tree_io::write_tree(&design.tree))?;
        if workload.is_multimode() {
            write(
                &power_path(dir, name),
                &power_io::write_power(&design.power),
            )?;
        }
        let sdf = if workload == Workload::ServeEco {
            let text = export_sdf(&design).map_err(|e| format!("{name}: {e}"))?;
            write(&sdf_path(dir, name), &text)?;
            Some(text)
        } else {
            None
        };
        out.push((instance, sdf));
    }
    Ok(out)
}

/// Writes every input of `workload` for `seed` into `dir`, over and over
/// until it has done so `repeats` times and for `min_seconds` in all, and
/// returns the manifest the benchmark runner reads: κ, the program's
/// flags, each design's files (for `serve_eco`, its seeded ECO edit list
/// too) and the CPU seconds each repeat of the synthesis and file writes
/// took.
pub fn generate(
    workload: Workload,
    seed: u64,
    dir: &Path,
    repeats: usize,
    min_seconds: f64,
) -> Result<Value, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut setup_s = Vec::new();
    let mut total_s = 0.0;
    let mut written = Vec::new();
    while setup_s.len() < repeats.max(1) || total_s < min_seconds {
        let start = process_cpu_s();
        written = write_inputs(workload, seed, dir)?;
        let elapsed = process_cpu_s() - start;
        total_s += elapsed;
        setup_s.push(Value::Float(elapsed));
    }
    let mut designs = Vec::new();
    for (instance, sdf) in written {
        let name = &instance.name;
        let mut fields = vec![
            entry("name", Value::Str(name.clone())),
            entry("circuit", Value::Str(instance.bench.name.clone())),
            entry("variant", Value::UInt(instance.variant)),
            entry("clk", Value::Str(clk_path(dir, name))),
        ];
        if workload.is_multimode() {
            fields.push(entry("power", Value::Str(power_path(dir, name))));
        }
        if let Some(text) = sdf {
            let (hint, edits) = eco_plan(&text, instance.seed)?;
            fields.push(entry("sdf", Value::Str(sdf_path(dir, name))));
            fields.push(entry("eco_hint", Value::UInt(hint as u64)));
            fields.push(entry("edits", Value::Seq(edits)));
        }
        designs.push(Value::Map(fields));
    }
    Ok(Value::Map(vec![
        entry("kappa_ps", Value::Float(KAPPA_PS)),
        entry("optimize_flags", strs(&workload.optimize_flags())),
        entry("daemon_flags", strs(DAEMON_FLAGS)),
        entry(
            "serve_rounds_per_s",
            Value::Map(
                SERVE_ROUNDS_PER_S
                    .iter()
                    .map(|&(circuit, rate)| entry(circuit, Value::Float(rate)))
                    .collect(),
            ),
        ),
        entry("setup_s", Value::Seq(setup_s)),
        entry("designs", Value::Seq(designs)),
    ]))
}

/// CPU seconds (user + system) this process has used so far. CPU time
/// leaves out the time a shared host runs other guests on this one's
/// cores, which wall clock counts.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// The daemon's ECO probe sink for the SDF `text` (computed the way the
/// daemon computes it on `load`) and a seeded list of one-leaf trims on
/// the leaves of the probe sink's zone. Node ids are those of the imported
/// design, the numbering the daemon applies `edits` in.
fn eco_plan(text: &str, seed: u64) -> Result<(usize, Vec<Value>), String> {
    let imported = import_sdf(text, CellLibrary::nangate45()).map_err(|e| e.to_string())?;
    let design = imported.design;
    let config = Workload::ServeEco.config(1);
    let session =
        CharacterizedDesign::new(design.clone(), config.clone()).map_err(|e| e.to_string())?;
    let hint = session
        .eco_probe_sink()
        .ok_or("design has no ECO probe sink")?;
    let zone = ZoneGrid::partition(&design.tree, config.zone_pitch)
        .zones()
        .iter()
        .find(|z| z.sinks.contains(&hint))
        .map(|z| z.sinks.clone())
        .ok_or("the probe sink lies in no zone")?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let edits = (0..ECO_EDITS)
        .map(|_| {
            let node = zone[rng.gen_range(0..zone.len())];
            Value::Map(vec![
                entry("node", Value::UInt(node.0 as u64)),
                entry("delay_trim_ps", Value::Float(rng.gen_range(0.5..3.0))),
            ])
        })
        .collect();
    Ok((hint.0, edits))
}
