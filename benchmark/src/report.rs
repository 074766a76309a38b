//! The result line the driver reads, the same line read back when the
//! command runs all workloads itself, and the tables people read.

use crate::metrics::{self, Metric, Values};
use crate::run::Outcome;
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The one-line JSON object a run ends with: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, and in `metrics` exactly the
/// registry's end-to-end metrics (untraced) or per-layer metrics (traced).
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let registry: &'static [Metric] = if traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed
    );
    for (i, (metric, value)) in outcome.values.in_order(registry)?.into_iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", metric.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest text that reads back as the same f64:
        // every digit measured, none invented.
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// A result line read back.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
}

/// Reads a line [`result_line`] wrote. Not a JSON parser: it relies on the
/// writer's own shape.
pub fn parse_result_line(line: &str) -> Result<Parsed, String> {
    let bad = || format!("not a result line: {line}");
    let after = |key: &str| {
        line.split_once(&format!("\"{key}\": "))
            .map(|(_, rest)| rest)
    };
    let scalar = |key: &str| {
        after(key)
            .and_then(|rest| rest.split([',', '}']).next())
            .map(str::trim)
            .ok_or_else(bad)
    };
    let correct = scalar("correct")?.parse().map_err(|_| bad())?;
    let attempted = scalar("attempted")?.parse().map_err(|_| bad())?;
    let failed = scalar("failed")?.parse().map_err(|_| bad())?;
    let body = after("metrics")
        .and_then(|rest| rest.strip_prefix('{'))
        .ok_or_else(bad)?;
    let mut values = Vec::new();
    for entry in body.split("\"}") {
        let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.rsplit('"').next().ok_or_else(bad)?;
        let value = rest.split(',').next().ok_or_else(bad)?.trim();
        values.push((name.to_owned(), value.parse().map_err(|_| bad())?));
    }
    Ok(Parsed {
        correct,
        attempted,
        failed,
        values,
    })
}

fn fmt_value(value: f64) -> String {
    let magnitude = value.abs();
    if magnitude >= 100_000.0 {
        format!("{value:.0}")
    } else if magnitude >= 100.0 {
        format!("{value:.1}")
    } else if magnitude >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.5}")
    }
}

/// `name value unit` per metric of one run, for people; percentiles carry
/// their sample count, and a warning when fewer than ten samples lie beyond.
pub fn table(values: &Values, registry: &'static [Metric]) -> String {
    let mut out = String::new();
    for metric in registry {
        let Some(value) = values.get(metric.name) else {
            continue;
        };
        let evidence = values.evidence(metric.name).map_or(String::new(), |p| {
            let thin = if p.supported() {
                ""
            } else {
                ": too few for this percentile, read with care"
            };
            format!("  [{} samples, {} beyond{thin}]", p.samples, p.beyond)
        });
        let _ = writeln!(
            out,
            "  {:<40} {:>14} {:<6} ({} is better){evidence}",
            metric.name,
            fmt_value(value),
            metric.unit,
            metric.better.as_str()
        );
    }
    out
}

/// Per workload and metric, the values of every repetition.
pub type Samples = BTreeMap<(usize, String), Vec<f64>>;

/// The calibration table of `--repeat`: median, quartiles and relative
/// spread per workload and metric, the spread next to the metric's bound.
pub fn calibration(samples: &Samples, workloads: &[&str]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<40} {:>4} {:>13} {:>13} {:>13} {:>8} {:>6}",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, name), v) in samples {
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let spread = relative_spread(v).map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0));
        let bound = metrics::find(name)
            .and_then(|m| m.bound)
            .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
        let _ = writeln!(
            out,
            "{:<16} {:<40} {:>4} {:>13} {:>13} {:>13} {:>8} {:>6}",
            workloads[*workload],
            name,
            v.len(),
            fmt_value(median(v)),
            fmt_value(q1),
            fmt_value(q3),
            spread,
            bound
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Tally;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let mut values = Values::default();
        for (i, metric) in metrics::END_TO_END.iter().enumerate() {
            values.set(metric.name, 1.0 / (i as f64 + 3.0));
        }
        let outcome = Outcome {
            values,
            tally: Tally {
                attempted: 1234,
                failed: 0,
                notes: vec![],
            },
            inputs: 0,
            trace_file: None,
            self_ns: vec![],
            phase_seconds: vec![],
        };
        let line = result_line(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}"), "{line}");
        assert!(!line.contains('\n'));
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1234, 0));
        assert_eq!(parsed.values.len(), metrics::END_TO_END.len());
        for ((name, value), metric) in parsed.values.iter().zip(&metrics::END_TO_END) {
            assert_eq!(name, metric.name);
            assert_eq!(
                Some(*value),
                outcome.values.get(metric.name),
                "{name} lost digits"
            );
        }
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_gap() {
        let outcome = Outcome {
            values: Values::default(),
            tally: Tally::default(),
            inputs: 0,
            trace_file: None,
            self_ns: vec![],
            phase_seconds: vec![],
        };
        assert!(result_line(&outcome, true)
            .unwrap_err()
            .contains("rpq.parse_us"));
        assert!(parse_result_line("hello").is_err());
    }
}
