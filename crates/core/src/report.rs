//! Plain-text table formatting shared by the benchmark binaries.

use crate::algo::{Degradation, DegradationStep};

/// Renders an aligned plain-text table: a header row, a separator, then
/// the data rows. Columns are right-aligned except the first.
///
/// # Example
///
/// ```
/// use wavemin::report::render_table;
///
/// let s = render_table(
///     &["ckt", "peak (mA)"],
///     &[vec!["s15850".into(), "3.01".into()]],
/// );
/// assert!(s.contains("s15850"));
/// assert!(s.lines().count() >= 3);
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    fn push_row(out: &mut String, widths: &[usize], cells: &[String]) {
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map_or("", String::as_str);
            if i == 0 {
                out.push_str(&format!("{cell:<w$}"));
            } else {
                out.push_str(&format!("  {cell:>w$}"));
            }
        }
        out.push('\n');
    }
    let mut out = String::new();
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    push_row(&mut out, &widths, &header_cells);
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        push_row(&mut out, &widths, row);
    }
    out
}

/// Formats a float with the given number of decimals.
#[must_use]
pub fn fmt(value: f64, decimals: usize) -> String {
    if value.is_nan() {
        "-".to_owned()
    } else {
        format!("{value:.decimals$}")
    }
}

/// Formats a signed percentage (one decimal).
#[must_use]
pub fn pct(value: f64) -> String {
    if value.is_nan() {
        "-".to_owned()
    } else {
        format!("{value:+.2}")
    }
}

/// Renders a run's degradation record as a short human-readable block
/// (one line per relaxation step, plus an exhausted/total solve count),
/// or "no degradation" when the run finished at full fidelity.
#[must_use]
pub fn degradation_summary(degradation: Option<&Degradation>) -> String {
    match degradation {
        None => "no degradation: all zone solves ran at full fidelity".to_owned(),
        Some(d) => {
            let faults = d
                .steps
                .iter()
                .filter(|s| matches!(s, DegradationStep::ZoneFaultContained { .. }))
                .count();
            let fallback = d
                .steps
                .iter()
                .any(|s| matches!(s, DegradationStep::IdentityFallback { .. }));
            // A fault- or fallback-only record has nothing budget-related
            // to report; don't open with a confusing "0/N solves
            // exhausted" line.
            let mut out = if d.exhausted_solves > 0 || (faults == 0 && !fallback) {
                format!(
                    "degraded: {}/{} zone solves exhausted their budget\n",
                    d.exhausted_solves, d.total_solves
                )
            } else if faults > 0 {
                "degraded: stayed within budget, but zone workers faulted\n".to_owned()
            } else {
                "degraded: stayed within budget, but the design was returned unchanged\n".to_owned()
            };
            if faults > 0 {
                out.push_str(&format!(
                    "  {faults} zone worker fault(s) contained and salvaged\n"
                ));
            }
            // Contained faults are aggregated above (a chaos run can have
            // hundreds); only the fidelity-relaxation steps are itemized.
            for step in &d.steps {
                if matches!(step, DegradationStep::ZoneFaultContained { .. }) {
                    continue;
                }
                out.push_str(&format!("  - {step}\n"));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::DegradationStep;
    use wavemin_mosp::Exhaustion;

    #[test]
    fn table_aligns_columns() {
        let s = render_table(
            &["name", "x"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "22.5".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric column.
        assert!(lines[2].ends_with("1.0"));
        assert!(lines[3].ends_with("22.5"));
    }

    #[test]
    fn fmt_and_pct() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(f64::NAN, 2), "-");
        assert_eq!(pct(12.345), "+12.35");
        assert_eq!(pct(-3.0), "-3.00");
        assert_eq!(pct(f64::NAN), "-");
    }

    #[test]
    fn short_rows_are_padded() {
        let s = render_table(&["a", "b", "c"], &[vec!["x".into()]]);
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn degradation_summary_renders_steps() {
        assert!(degradation_summary(None).contains("no degradation"));
        let d = Degradation {
            steps: vec![DegradationStep::ExactToApproximate {
                epsilon: 0.01,
                reason: Exhaustion::DeadlineExpired,
            }],
            exhausted_solves: 1,
            total_solves: 4,
        };
        let s = degradation_summary(Some(&d));
        assert!(s.contains("1/4"), "{s}");
        assert!(s.contains("0.01"), "{s}");
    }

    #[test]
    fn degradation_summary_counts_contained_faults() {
        let d = Degradation {
            steps: vec![
                DegradationStep::ZoneFaultContained { zone: 2 },
                DegradationStep::ZoneFaultContained { zone: 7 },
            ],
            exhausted_solves: 0,
            total_solves: 9,
        };
        let s = degradation_summary(Some(&d));
        assert!(s.contains("2 zone worker fault(s)"), "{s}");
        assert!(
            !s.contains("zone 7"),
            "contained faults are aggregated, not itemized: {s}"
        );
    }

    #[test]
    fn degradation_summary_names_the_identity_fallback() {
        let d = Degradation {
            steps: vec![DegradationStep::IdentityFallback {
                candidates: 3,
                best_skew: wavemin_cells::units::Picoseconds::new(26.9),
            }],
            exhausted_solves: 0,
            total_solves: 12,
        };
        let s = degradation_summary(Some(&d));
        assert!(s.contains("returned unchanged"), "{s}");
        assert!(!s.contains("0/12"), "{s}");
        assert!(
            s.contains("identity fallback: all 3 ranked candidate(s)"),
            "{s}"
        );
    }
}
