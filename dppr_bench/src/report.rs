//! What a run reports: metrics by name, correctness checks, and the
//! operation counts, printed once for people and once for the driver.

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::stats::median;
use std::collections::BTreeMap;

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Per-repetition values, reduced to one median per metric.
#[derive(Default)]
pub struct RepValues {
    values: BTreeMap<&'static str, Vec<(f64, usize)>>,
}

impl RepValues {
    /// Records one repetition's value of `name`, computed from `n` samples.
    pub fn push(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.entry(name).or_default().push((value, n));
    }
}

/// A finished run.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    /// `name → (value, samples)`.
    values: BTreeMap<&'static str, (f64, usize)>,
    /// `name → the per-repetition values` a median was taken over.
    per_rep: BTreeMap<&'static str, Vec<f64>>,
    /// `name → (first, third quartile)` of the pooled samples a value is
    /// an order statistic of.
    quartiles: BTreeMap<&'static str, (f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Why the host readings say the run may not be trustworthy; empty
    /// for a quiet run.
    pub noisy: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            values: BTreeMap::new(),
            per_rep: BTreeMap::new(),
            quartiles: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            noisy: Vec::new(),
        }
    }

    /// Sets a metric outright.
    ///
    /// # Panics
    /// When `name` is not in the catalogue: a metric nobody declared is a
    /// typo, not a feature.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            catalog::find(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, (value, n));
    }

    /// Notes the quartiles of the pooled samples behind `name`, so that a
    /// reader sees how far apart the samples of one run lie.
    pub fn note_quartiles(&mut self, name: &'static str, q1: f64, q3: f64) {
        self.quartiles.insert(name, (q1, q3));
    }

    /// Reduces per-repetition values to their medians; sample counts add.
    pub fn absorb(&mut self, reps: RepValues) {
        for (name, vals) in reps.values {
            let v: Vec<f64> = vals.iter().map(|&(v, _)| v).collect();
            self.set(name, median(&v), vals.iter().map(|&(_, n)| n).sum());
            self.per_rep.insert(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Records a check; a failed check is a failed operation.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Adds `attempted` operations of which `failed` failed.
    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `name value unit n=<samples>` per metric (and the per-repetition
    /// values behind a median), then the checks and the operation counts.
    pub fn human(&self) -> String {
        let mut out = format!("workload {} seed {}\n", self.workload, self.seed);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(&(v, n)) = self.values.get(m.name) {
                out.push_str(&format!("{} {} {} n={n}", m.name, fmt_value(v), m.unit));
                if let Some(reps) = self.per_rep.get(m.name).filter(|r| r.len() > 1) {
                    let reps: Vec<String> = reps.iter().map(|&v| fmt_value(v)).collect();
                    out.push_str(&format!(" reps={}", reps.join(",")));
                }
                if let Some(&(q1, q3)) = self.quartiles.get(m.name) {
                    out.push_str(&format!(" q1={} q3={}", fmt_value(q1), fmt_value(q3)));
                }
                out.push('\n');
            }
        }
        for c in &self.checks {
            let verdict = if c.passed { "ok" } else { "FAILED" };
            out.push_str(&format!("check {} {verdict} {}\n", c.name, c.detail));
        }
        out.push_str(&format!(
            "noisy {} {}\n",
            !self.noisy.is_empty(),
            self.noisy.join("; ")
        ));
        out.push_str(&format!("ops_attempted {}\n", self.attempted));
        out.push_str(&format!("ops_failed {}\n", self.failed));
        out.push_str(&format!("correct {}\n", self.correct()));
        out
    }

    /// The driver's result line. Untraced it holds every end-to-end
    /// metric and refuses to print if one is missing; traced it holds
    /// every per-layer metric, with 0 for a layer that is not on this
    /// workload's path.
    pub fn json_line(&self, traced: bool) -> Result<String, String> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(defs.len());
        for m in defs {
            let value = match self.values.get(m.name) {
                Some(&(v, _)) if v.is_finite() => v,
                Some(&(v, _)) => return Err(format!("metric {} is {v}", m.name)),
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", m.name)),
            };
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(value),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// All the digits of a measurement, as valid JSON (no exponent-only
/// forms like `1e-5` that some parsers reject are produced by `{}` for
/// f64 — Rust prints plain decimals).
fn fmt_value(v: f64) -> String {
    format!("{v}")
}

/// Pulls one metric's value back out of a result line.
#[cfg(test)]
pub fn metric_from_json(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Pulls a top-level scalar (`correct`, `attempted`, `failed`) out of a
/// result line.
pub fn field_from_json<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> Report {
        let mut r = Report::new("push_seq", 1);
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + i as f64, 3);
        }
        r
    }

    #[test]
    fn untraced_line_has_exactly_the_end_to_end_metrics() {
        let mut r = full_report();
        r.count_ops(10, 0);
        let line = r.json_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        for m in END_TO_END {
            assert!(metric_from_json(&line, m.name).is_some(), "{}", m.name);
        }
        assert_eq!(metric_from_json(&line, "setup_s"), Some(1.5));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(field_from_json(&line, "correct"), Some("true"));
        assert_eq!(field_from_json(&line, "failed"), Some("0"));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_not_a_zero() {
        let r = Report::new("push_seq", 1);
        assert!(r.json_line(false).is_err());
    }

    #[test]
    fn traced_line_has_every_per_layer_metric() {
        let mut r = Report::new("push_seq", 1);
        r.set("core.push_ms", 12.25, 40);
        let line = r.json_line(true).unwrap();
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        assert_eq!(metric_from_json(&line, "core.push_ms"), Some(12.25));
        assert_eq!(metric_from_json(&line, "wal.append_us"), Some(0.0));
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut r = full_report();
        r.check("linf_vs_exact", true, String::new());
        assert!(r.correct());
        r.check("max_invariant_violation", false, "1e-3".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r
            .human()
            .contains("check max_invariant_violation FAILED 1e-3"));
        assert!(r
            .human()
            .ends_with("ops_attempted 2\nops_failed 1\ncorrect false\n"));
    }

    #[test]
    fn repetitions_reduce_to_their_median() {
        let mut reps = RepValues::default();
        for v in [10.0, 30.0, 20.0] {
            reps.push("slide_p50_ms", v, 100);
        }
        let mut r = Report::new("push_seq", 1);
        r.absorb(reps);
        assert_eq!(r.get("slide_p50_ms"), Some(20.0));
        assert!(r
            .human()
            .contains("slide_p50_ms 20 ms n=300 reps=10,30,20\n"));
    }
}
