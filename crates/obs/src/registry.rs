//! Prometheus text exposition (format 0.0.4): [`PromText`] is the one
//! renderer, and its caller decides what a family is.
//!
//! The caller writes a family's `# HELP` / `# TYPE` header once with
//! [`PromText::family`] and then one line (or one histogram block) per
//! series, so several labeled series share one header because the caller
//! emitted one. Nothing is kept between scrapes: values are read from
//! wherever they live at the moment the caller renders them.

use crate::hist::HistSnapshot;
use std::fmt::Write as _;

/// How histogram bucket bounds are rendered: raw integers (iteration
/// counts) or nanoseconds exposed as seconds per Prometheus convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    Raw,
    Nanos,
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline get backslash-escapes.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Incremental Prometheus-text writer.
#[derive(Default)]
pub struct PromText {
    text: String,
}

impl PromText {
    pub fn new() -> Self {
        Self::default()
    }

    /// The text accumulated so far.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Emit the `# HELP` / `# TYPE` header for a family.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.text, "# HELP {name} {help}");
        let _ = writeln!(self.text, "# TYPE {name} {kind}");
    }

    /// `{k="v",…}` for `labels` with every value escaped, or nothing for
    /// no labels.
    fn labels_str(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
        out
    }

    /// A series line with any label pairs, e.g.
    /// `slo_breach_total{slo="latency_p99"} 3`.
    pub fn series_u64(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        let _ = writeln!(self.text, "{name}{} {v}", Self::labels_str(labels));
    }

    /// [`PromText::series_u64`] for real-valued series; a non-finite value
    /// prints as `NaN`.
    pub fn series_f64(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let v = if v.is_finite() { v } else { f64::NAN };
        let _ = writeln!(self.text, "{name}{} {v}", Self::labels_str(labels));
    }

    /// One-line helpers for ad-hoc families (header + single series).
    pub fn counter_u64(&mut self, name: &str, help: &str, v: u64) {
        self.family(name, help, "counter");
        self.series_u64(name, &[], v);
    }

    pub fn gauge_u64(&mut self, name: &str, help: &str, v: u64) {
        self.family(name, help, "gauge");
        self.series_u64(name, &[], v);
    }

    /// Render a histogram snapshot: cumulative `_bucket{le=...}` lines
    /// (only up to the last non-empty bucket, then `+Inf`), `_sum`,
    /// `_count`. `Unit::Nanos` scales bounds and sum to seconds. Every
    /// series carries `labels`; on bucket lines they are merged ahead of
    /// the `le` bound.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistSnapshot,
        unit: Unit,
    ) {
        // `{shard="2",` on bucket lines, `{shard="2"}` on sum/count.
        let plain = Self::labels_str(labels);
        let bucket_prefix = match plain.strip_suffix('}') {
            Some(inner) => format!("{inner},"),
            None => "{".to_owned(),
        };
        for (bound, cum) in snap.cumulative_nonempty() {
            // The overflow bucket (no finite bound) is covered by the
            // closing `+Inf` line below.
            let le = match (bound, unit) {
                (Some(b), Unit::Nanos) => format!("{}", b as f64 / 1e9),
                (Some(b), Unit::Raw) => format!("{b}"),
                (None, _) => continue,
            };
            let _ = writeln!(self.text, "{name}_bucket{bucket_prefix}le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(self.text, "{name}_bucket{bucket_prefix}le=\"+Inf\"}} {}", snap.count);
        match unit {
            Unit::Nanos => {
                let _ = writeln!(self.text, "{name}_sum{plain} {}", snap.sum as f64 / 1e9);
            }
            Unit::Raw => {
                let _ = writeln!(self.text, "{name}_sum{plain} {}", snap.sum);
            }
        }
        let _ = writeln!(self.text, "{name}_count{plain} {}", snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn render_groups_families_and_escapes_labels() {
        let mut t = PromText::new();
        t.counter_u64("t_total", "a counter", 3);
        t.family("t_conns", "per-shard", "gauge");
        t.series_u64("t_conns", &[("shard", "0")], 7);
        t.series_u64("t_conns", &[("shard", "a\"b\\c\nd")], 2);
        let text = t.as_str();
        assert!(text.contains("# HELP t_total a counter\n# TYPE t_total counter\nt_total 3\n"));
        assert_eq!(text.matches("# TYPE t_conns gauge").count(), 1);
        assert!(text.contains("t_conns{shard=\"0\"} 7\n"));
        assert!(text.contains("t_conns{shard=\"a\\\"b\\\\c\\nd\"} 2\n"));
    }

    #[test]
    fn histogram_rendering_is_cumulative_and_ends_with_inf() {
        let h = Histogram::new();
        h.record(0);
        h.record(1_000_000_000); // 1s
        let mut t = PromText::new();
        t.histogram("t_lat_seconds", &[], &h.snapshot(), Unit::Nanos);
        let text = t.as_str();
        assert!(text.contains("t_lat_seconds_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("t_lat_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(
            text.ends_with("t_lat_seconds_sum 1\nt_lat_seconds_count 2\n"),
            "sum is in seconds"
        );
        let mut raw = PromText::new();
        raw.histogram("t_iters", &[], &h.snapshot(), Unit::Raw);
        assert!(raw.as_str().contains("t_iters_sum 1000000000\n"));
    }

    #[test]
    fn multi_label_series_render_all_pairs() {
        let mut t = PromText::new();
        t.family("t_burn", "burn rates", "gauge");
        t.series_f64("t_burn", &[("slo", "latency_p99"), ("window", "fast")], 1.25);
        t.series_u64("t_burn_total", &[("slo", "a\"b")], 3);
        t.series_f64("t_plain", &[], 0.5);
        t.series_f64("t_inf", &[("slo", "x")], f64::INFINITY);
        let text = t.text;
        assert!(text.contains("t_burn{slo=\"latency_p99\",window=\"fast\"} 1.25\n"));
        assert!(text.contains("t_burn_total{slo=\"a\\\"b\"} 3\n"));
        assert!(text.contains("t_plain 0.5\n"));
        assert!(text.contains("t_inf{slo=\"x\"} NaN\n"), "non-finite prints NaN");
    }

    #[test]
    fn labeled_histograms_merge_label_with_le_and_share_one_header() {
        let (h0, h1) = (Histogram::new(), Histogram::new());
        h0.record(0);
        h1.record(1_000_000_000);
        let mut t = PromText::new();
        t.family("t_stage_seconds", "per-shard", "histogram");
        t.histogram("t_stage_seconds", &[("shard", "0")], &h0.snapshot(), Unit::Nanos);
        t.histogram("t_stage_seconds", &[("shard", "1")], &h1.snapshot(), Unit::Nanos);
        let text = t.as_str();
        assert_eq!(text.matches("# TYPE t_stage_seconds histogram").count(), 1);
        assert!(text.contains("t_stage_seconds_bucket{shard=\"0\",le=\"0\"} 1\n"));
        assert!(text.contains("t_stage_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("t_stage_seconds_bucket{shard=\"1\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("t_stage_seconds_sum{shard=\"0\"} 0\n"));
        assert!(text.contains("t_stage_seconds_sum{shard=\"1\"} 1\n"));
        assert!(text.contains("t_stage_seconds_count{shard=\"1\"} 1\n"));
    }
}
