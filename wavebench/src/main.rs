//! `wavebench-tool`: the in-process half of the benchmark in `run.py`.
//!
//! ```text
//! wavebench-tool gen <workload> <seed> <dir> [repeats [min_seconds]]
//!                                                write seeded inputs, print the manifest
//! wavebench-tool check                           check outputs listed on stdin
//! wavebench-tool trace <workload> <seed> <dir> <out>
//!                                                traced per-layer pass, print spans + counts
//! wavebench-tool ref-solve <sdf> <node> <trim_ps>
//!                                                fresh in-process solve of a daemon session
//! ```
//!
//! Every command prints one JSON document on stdout and exits non-zero
//! with a message on stderr when it cannot do its job.

mod check;
mod trace;
mod workload;

use check::{check_output, Reported};
use serde::Value;
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use wavemin::prelude::*;
use wavemin_cells::units::{Picoseconds, Volts};
use wavemin_clocktree::{io as tree_io, power_io};
use workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(v) => match serde_json::to_string(&v) {
            Ok(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wavebench-tool: cannot serialize output: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("wavebench-tool: {e}");
            ExitCode::FAILURE
        }
    }
}

fn workload_arg(name: Option<&String>) -> Result<Workload, String> {
    let name = name.ok_or("missing workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn run(args: &[String]) -> Result<Value, String> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let workload = workload_arg(args.get(1))?;
            let seed = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("gen needs a numeric seed")?;
            let dir = args.get(3).ok_or("gen needs an output directory")?;
            let repeats = match args.get(4) {
                Some(n) => n.parse().map_err(|_| format!("bad repeat count {n:?}"))?,
                None => 1,
            };
            let min_seconds = match args.get(5) {
                Some(s) => s.parse().map_err(|_| format!("bad duration {s:?}"))?,
                None => 0.0,
            };
            workload::generate(workload, seed, Path::new(dir), repeats, min_seconds)
        }
        Some("check") => {
            let mut stdin = String::new();
            std::io::stdin()
                .read_to_string(&mut stdin)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            stdin
                .lines()
                .map(check_line)
                .collect::<Result<_, _>>()
                .map(Value::Seq)
        }
        Some("trace") => {
            let workload = workload_arg(args.get(1))?;
            let seed = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("trace needs the numeric seed of its inputs")?;
            let dir = args.get(3).ok_or("trace needs the input directory")?;
            let out = args.get(4).ok_or("trace needs an output directory")?;
            trace::run(workload, seed, Path::new(dir), Path::new(out))
        }
        Some("ref-solve") => {
            let (Some(sdf), Some(node), Some(trim)) = (args.get(1), args.get(2), args.get(3))
            else {
                return Err("ref-solve needs an SDF path, a node id and a trim".to_owned());
            };
            let node = node.parse().map_err(|_| format!("bad node id {node:?}"))?;
            let trim = trim.parse().map_err(|_| format!("bad trim {trim:?}"))?;
            ref_solve(sdf, node, trim)
        }
        _ => Err("usage: wavebench-tool gen|check|trace|ref-solve ...".to_owned()),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Checks one output described by a tab-separated line:
/// `name input output power|- peak_before_ma peak_after_ma kappa_ps`.
fn check_line(line: &str) -> Result<Value, String> {
    let f: Vec<&str> = line.split('\t').collect();
    let [name, input, output, power, before, after, kappa] = f[..] else {
        return Err(format!(
            "check expects 7 tab-separated fields, got {line:?}"
        ));
    };
    let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
    let tree = tree_io::read_tree(&read(input)?).map_err(|e| format!("{input}: {e}"))?;
    let power = if power == "-" {
        PowerDesign::uniform(Volts::new(1.1))
    } else {
        power_io::read_power(&read(power)?).map_err(|e| format!("{power}: {e}"))?
    };
    let design = Design::new(tree, CellLibrary::nangate45(), power);
    let output_text = std::fs::read_to_string(output).unwrap_or_default();
    let reported = Reported {
        peak_before_ma: num(before)?,
        peak_after_ma: num(after)?,
    };
    let v = check_output(&design, &output_text, num(kappa)?, reported);
    Ok(Value::Map(vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        (
            "failures".to_owned(),
            Value::Seq(v.failures.into_iter().map(Value::Str).collect()),
        ),
        ("skew_ps".to_owned(), Value::Float(v.skew_ps)),
        ("peak_before_ma".to_owned(), Value::Float(v.peak_before_ma)),
        ("peak_after_ma".to_owned(), Value::Float(v.peak_after_ma)),
        (
            "sinks_changed".to_owned(),
            Value::UInt(v.sinks_changed as u64),
        ),
    ]))
}

/// Solves, with no cache, the design a `serve_eco` daemon session holds
/// after loading `sdf` with the trim `trim_ps` on `node`.
fn ref_solve(sdf: &str, node: usize, trim_ps: f64) -> Result<Value, String> {
    let imported = import_sdf(&read(sdf)?, CellLibrary::nangate45()).map_err(|e| e.to_string())?;
    let mut design = imported.design;
    if node >= design.tree.len() {
        return Err(format!("edit node {node} out of range"));
    }
    design.tree.node_mut(NodeId(node)).delay_trim += Picoseconds::new(trim_ps);
    let session = CharacterizedDesign::new(design, Workload::ServeEco.config(workload::THREADS))
        .map_err(|e| e.to_string())?;
    let out = session
        .solve(&SolveOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(Value::Map(vec![(
        "peak_after_bits".to_owned(),
        Value::Str(format!("{:016x}", out.peak_after.value().to_bits())),
    )]))
}
