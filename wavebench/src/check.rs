//! The correctness check applied to every optimized tree the program
//! writes: the file parses, keeps the input's topology, meets the skew
//! bound in every mode under exact timing, and its re-evaluated peak
//! current matches the one the program reported.

use wavemin::prelude::*;
use wavemin_clocktree::io as tree_io;

/// The program prints peaks with three decimals, so a re-evaluated peak
/// must land within half a unit of the last printed digit.
const PRINTED_PEAK_TOLERANCE_MA: f64 = 0.0005 + 1e-9;

/// Peaks the program reported for one design, in mA.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub peak_before_ma: f64,
    pub peak_after_ma: f64,
}

/// What the check found for one output.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// One line per failed condition; empty when the output is correct.
    pub failures: Vec<String>,
    /// Worst-mode exact skew of the output, ps.
    pub skew_ps: f64,
    /// Worst-mode re-evaluated peaks of input and output, mA.
    pub peak_before_ma: f64,
    pub peak_after_ma: f64,
    /// Sinks whose cell differs between input and output.
    pub sinks_changed: usize,
}

/// Worst peak current over all power modes, mA.
pub fn worst_peak_ma(design: &Design) -> Result<f64, WaveMinError> {
    let evaluator = NoiseEvaluator::new(design);
    let mut worst = 0.0_f64;
    for mode in 0..design.mode_count() {
        worst = worst.max(evaluator.evaluate(mode)?.peak.value());
    }
    Ok(worst)
}

/// Checks `output_text`, the program's optimized tree for `input`.
pub fn check_output(
    input: &Design,
    output_text: &str,
    kappa_ps: f64,
    reported: Reported,
) -> Verdict {
    let mut v = Verdict::default();
    let tree = match tree_io::read_tree(output_text) {
        Ok(t) => t,
        Err(e) => {
            v.failures.push(format!("output tree does not parse: {e}"));
            return v;
        }
    };
    if tree.len() != input.tree.len() || tree.leaves() != input.tree.leaves() {
        v.failures
            .push("output tree has a different topology than the input".to_owned());
        return v;
    }
    v.sinks_changed = tree
        .leaves()
        .iter()
        .filter(|&&id| tree.node(id).cell != input.tree.node(id).cell)
        .count();
    let output = Design::new(tree, input.lib.clone(), input.power.clone());
    match output.max_skew() {
        Ok(skew) => {
            v.skew_ps = skew.value();
            if v.skew_ps > kappa_ps {
                v.failures.push(format!(
                    "worst-mode skew {:.4} ps exceeds the bound {kappa_ps} ps",
                    v.skew_ps
                ));
            }
        }
        Err(e) => v.failures.push(format!("output timing failed: {e}")),
    }
    match (worst_peak_ma(input), worst_peak_ma(&output)) {
        (Ok(before), Ok(after)) => {
            v.peak_before_ma = before;
            v.peak_after_ma = after;
            for (what, measured, claimed) in [
                ("before", before, reported.peak_before_ma),
                ("after", after, reported.peak_after_ma),
            ] {
                if (measured - claimed).abs() > PRINTED_PEAK_TOLERANCE_MA {
                    v.failures.push(format!(
                        "re-evaluated peak {what} {measured:.6} mA differs from the reported {claimed:.3} mA"
                    ));
                }
            }
            if after > before {
                v.failures.push(format!(
                    "peak after {after:.6} mA exceeds peak before {before:.6} mA"
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => v.failures.push(format!("evaluation failed: {e}")),
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavemin_cells::units::Picoseconds;

    fn optimized(kappa_ps: f64) -> (Design, String, Reported) {
        let input = Design::from_benchmark(&Benchmark::s15850(), 3);
        let config = WaveMinConfig {
            skew_bound: Picoseconds::new(kappa_ps),
            threads: Some(1),
            ..WaveMinConfig::default()
        };
        let outcome = ClkWaveMin::new(config)
            .run(&input)
            .expect("s15850 optimizes");
        let mut out = input.clone();
        outcome.assignment.apply_to(&mut out);
        let reported = Reported {
            peak_before_ma: outcome.peak_before.value(),
            peak_after_ma: outcome.peak_after.value(),
        };
        (input, tree_io::write_tree(&out.tree), reported)
    }

    #[test]
    fn accepts_the_programs_own_output() {
        let (input, text, reported) = optimized(20.0);
        let v = check_output(&input, &text, 20.0, reported);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert!(v.sinks_changed > 0);
    }

    #[test]
    fn catches_a_sink_cell_swap_that_breaks_skew() {
        let (input, text, _) = optimized(20.0);
        let mut tree = tree_io::read_tree(&text).expect("output parses");
        // Swap one sink to the cell that moves its arrival the most.
        let sink = tree.leaves()[0];
        let worst = ["BUF_X1", "INV_X1", "BUF_X32", "INV_X32"]
            .into_iter()
            .max_by(|a, b| {
                let skew = |cell: &str| {
                    let mut t = tree.clone();
                    t.set_cell(sink, cell.to_owned());
                    Design::new(t, input.lib.clone(), input.power.clone())
                        .max_skew()
                        .expect("timing")
                        .value()
                };
                skew(a).total_cmp(&skew(b))
            })
            .expect("candidate cells");
        tree.set_cell(sink, worst.to_owned());
        let tampered = tree_io::write_tree(&tree);
        let tampered_design = Design::new(tree, input.lib.clone(), input.power.clone());
        assert!(tampered_design.max_skew().expect("timing").value() > 20.0);
        // Report the tampered tree's own peaks so only the skew can fail.
        let reported = Reported {
            peak_before_ma: worst_peak_ma(&input).expect("eval"),
            peak_after_ma: worst_peak_ma(&tampered_design).expect("eval"),
        };
        let v = check_output(&input, &tampered, 20.0, reported);
        assert!(
            v.failures.iter().any(|f| f.contains("exceeds the bound")),
            "{:?}",
            v.failures
        );
    }

    #[test]
    fn catches_a_misreported_peak_and_an_unparsable_file() {
        let (input, text, mut reported) = optimized(20.0);
        reported.peak_after_ma -= 0.01;
        let v = check_output(&input, &text, 20.0, reported);
        assert!(v
            .failures
            .iter()
            .any(|f| f.contains("re-evaluated peak after")));
        let v = check_output(&input, "node 0 - nonsense", 20.0, reported);
        assert!(v.failures[0].contains("does not parse"));
    }
}
