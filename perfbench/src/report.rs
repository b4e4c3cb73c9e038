//! Metrics by name and unit, and the result line the run ends with.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// As measured, all digits.
    pub value: f64,
    /// `s`, `MiB`, `count`, `1/s`, …
    pub unit: &'static str,
    /// How the figure was obtained, for the human-readable table.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, note: String::new() }
    }

    /// Attaches a note (sample count, base of a ratio, …).
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// `true` for a metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The run's outcome: every attempted operation and the failed ones.
pub struct Outcome {
    /// Solves, CLI runs and set-up probes attempted.
    pub attempted: u64,
    /// Attempts that panicked, errored or returned wrong distances.
    pub failed: u64,
    /// The metrics of this pass.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Failed attempts over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ =
                writeln!(s, "  {:<30} {:>16} {:<6} {}", m.name, fmt_value(m.value), m.unit, m.note);
        }
        let _ = writeln!(
            s,
            "  {:<30} {:>16} {:<6} {} failed of {} attempted",
            "error_rate",
            fmt_value(self.error_rate()),
            "ratio",
            self.failed,
            self.attempted
        );
        s
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// a non-finite value (never expected) becomes `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{traced, untraced, workloads::WORKLOADS};

    #[test]
    fn names_follow_the_character_rule() {
        for ok in ["solve_s", "solve_s.tail", "mesh2d-native", "minplus.gemm_ops", "3d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "a:b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn units_follow_the_character_rule() {
        for ok in ["s", "MiB", "1/s", "count", "%", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "B²", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_workload_and_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for (name, unit) in untraced::METRICS.iter().chain(traced::METRICS.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
    }

    #[test]
    fn benchmark_json_declares_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (end_to_end, per_layer) =
            text.split_once("\"per_layer\"").expect("a per_layer section after end_to_end");
        for w in &WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name)), "{}", w.name);
        }
        let declared = |section: &str, spec: &[(&str, &str)]| {
            for (name, unit) in spec {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
                assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
            assert_eq!(section.matches("\"better\"").count(), spec.len(), "extra metrics");
        };
        declared(end_to_end, &untraced::METRICS);
        declared(per_layer, &traced::METRICS);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let o = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("solve_s", 0.25, "s"), Metric::new("x", 3.0, "count")],
        };
        assert_eq!(
            o.result_line(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"solve_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!((o.error_rate() - 1.0 / 3.0).abs() < 1e-15);
    }
}
