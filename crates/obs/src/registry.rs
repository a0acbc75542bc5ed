//! Named-metric registry and Prometheus text exposition (format 0.0.4).
//!
//! Registration takes a lock; recording never does — counters and
//! gauges are plain atomics behind `Arc`, histograms are
//! [`crate::Histogram`]. Rendering walks the registry under the lock,
//! loading each metric relaxed, and groups series by family so `# HELP`
//! / `# TYPE` appear exactly once per family even when several labeled
//! series share a name.

use crate::hist::{HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Monotone counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Instantaneous value; may go down.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// How histogram bucket bounds are rendered: raw integers (iteration
/// counts) or nanoseconds exposed as seconds per Prometheus convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    Raw,
    Nanos,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>, Unit),
}

struct Entry {
    /// Family name, e.g. `dppr_http_request_seconds`.
    name: &'static str,
    help: &'static str,
    /// Optional single `key="value"` label pair.
    label: Option<(&'static str, String)>,
    metric: Metric,
}

/// The process-wide metric registry. Cloning the `Arc` handles returned
/// by the `register_*` methods is the only way to record; the registry
/// itself is only walked at scrape time.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        self.push(name, help, None, Metric::Counter(c.clone()));
        c
    }

    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::default());
        self.push(name, help, None, Metric::Gauge(g.clone()));
        g
    }

    /// A labeled gauge series, e.g. `dppr_shard_connections{shard="2"}`.
    pub fn gauge_with_label(
        &self,
        name: &'static str,
        help: &'static str,
        key: &'static str,
        value: impl Into<String>,
    ) -> Arc<Gauge> {
        let g = Arc::new(Gauge::default());
        self.push(name, help, Some((key, value.into())), Metric::Gauge(g.clone()));
        g
    }

    pub fn histogram(&self, name: &'static str, help: &'static str, unit: Unit) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, None, Metric::Histogram(h.clone(), unit));
        h
    }

    /// A labeled histogram series, e.g.
    /// `dppr_audit_topk_overlap_bucket{k="10",le="0.001"}`.
    /// The label is merged with the `le` bound on bucket lines and
    /// rendered plainly on `_sum` / `_count`.
    pub fn histogram_with_label(
        &self,
        name: &'static str,
        help: &'static str,
        unit: Unit,
        key: &'static str,
        value: impl Into<String>,
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, Some((key, value.into())), Metric::Histogram(h.clone(), unit));
        h
    }

    fn push(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, String)>,
        metric: Metric,
    ) {
        self.entries.lock().unwrap().push(Entry { name, help, label, metric });
    }

    /// Look up a registered histogram by family name (for report
    /// generators that want percentiles out of the live server).
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistSnapshot> {
        let entries = self.entries.lock().unwrap();
        entries.iter().find_map(|e| match (&e.metric, e.name == name) {
            (Metric::Histogram(h, _), true) => Some(h.snapshot()),
            _ => None,
        })
    }

    /// Number of distinct metric families registered so far.
    pub fn family_count(&self) -> usize {
        let entries = self.entries.lock().unwrap();
        let mut names: Vec<&'static str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Render every registered metric in Prometheus text format.
    /// `extra` lets the caller append families computed at scrape time
    /// (values that already live elsewhere, like `ServerStats` atomics)
    /// without double-registering them.
    ///
    /// The registry lock is held only while values are *snapshotted*;
    /// all text formatting happens on the owned snapshot afterwards, so
    /// a slow scrape never blocks registration (and the lock's critical
    /// section stays O(metrics), not O(output bytes)).
    pub fn render_prometheus(&self, extra: &mut PromText) -> String {
        struct Snap {
            name: &'static str,
            help: &'static str,
            label: Option<(&'static str, String)>,
            value: ValueSnap,
        }
        enum ValueSnap {
            Counter(u64),
            Gauge(i64),
            Histogram(HistSnapshot, Unit),
        }
        let snaps: Vec<Snap> = {
            let entries = self.entries.lock().unwrap();
            entries
                .iter()
                .map(|e| Snap {
                    name: e.name,
                    help: e.help,
                    label: e.label.clone(),
                    value: match &e.metric {
                        Metric::Counter(c) => ValueSnap::Counter(c.get()),
                        Metric::Gauge(g) => ValueSnap::Gauge(g.get()),
                        Metric::Histogram(h, unit) => ValueSnap::Histogram(h.snapshot(), *unit),
                    },
                })
                .collect()
        };
        // Lock released; group by family preserving first-registration
        // order, then format.
        let mut out = PromText::new();
        let mut order: Vec<&'static str> = Vec::new();
        let mut families: BTreeMap<&'static str, Vec<&Snap>> = BTreeMap::new();
        for s in snaps.iter() {
            if !families.contains_key(s.name) {
                order.push(s.name);
            }
            families.entry(s.name).or_default().push(s);
        }
        for name in order {
            let group = &families[name];
            let first = group[0];
            match &first.value {
                ValueSnap::Counter(_) => out.family(name, first.help, "counter"),
                ValueSnap::Gauge(_) => out.family(name, first.help, "gauge"),
                ValueSnap::Histogram(..) => out.family(name, first.help, "histogram"),
            }
            for s in group {
                match &s.value {
                    ValueSnap::Counter(v) => out.series_u64(name, s.label.as_ref(), *v),
                    ValueSnap::Gauge(v) => out.series_i64(name, s.label.as_ref(), *v),
                    ValueSnap::Histogram(snap, unit) => {
                        out.histogram_labeled(name, s.label.as_ref(), snap, *unit)
                    }
                }
            }
        }
        out.text.push_str(&extra.text);
        std::mem::take(&mut out.text)
    }
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

/// Incremental Prometheus-text writer, shared by the registry renderer
/// and by callers exposing ad-hoc families at scrape time.
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

    fn label_str(label: Option<&(&'static str, String)>) -> String {
        match label {
            Some((k, v)) => format!("{{{k}=\"{}\"}}", escape_label_value(v)),
            None => String::new(),
        }
    }

    pub fn series_u64(&mut self, name: &str, label: Option<&(&'static str, String)>, v: u64) {
        let _ = writeln!(self.text, "{name}{} {v}", Self::label_str(label));
    }

    pub fn series_i64(&mut self, name: &str, label: Option<&(&'static str, String)>, v: i64) {
        let _ = writeln!(self.text, "{name}{} {v}", Self::label_str(label));
    }

    pub fn series_f64(&mut self, name: &str, label: Option<&(&'static str, String)>, v: f64) {
        if v.is_finite() {
            let _ = writeln!(self.text, "{name}{} {v}", Self::label_str(label));
        } else {
            let _ = writeln!(self.text, "{name}{} NaN", Self::label_str(label));
        }
    }

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

    /// A series line with arbitrary label pairs, e.g.
    /// `slo_burn_rate{slo="latency_p99",window="fast"} 1.4`.
    pub fn series_f64_multi(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let rendered = if v.is_finite() { v } else { f64::NAN };
        let _ = writeln!(self.text, "{name}{} {rendered}", Self::labels_str(labels));
    }

    /// [`PromText::series_f64_multi`] for integer-valued series.
    pub fn series_u64_multi(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        let _ = writeln!(self.text, "{name}{} {v}", Self::labels_str(labels));
    }

    /// One-line helpers for ad-hoc families (header + single series).
    pub fn counter_u64(&mut self, name: &str, help: &str, v: u64) {
        self.family(name, help, "counter");
        self.series_u64(name, None, v);
    }

    pub fn gauge_u64(&mut self, name: &str, help: &str, v: u64) {
        self.family(name, help, "gauge");
        self.series_u64(name, None, v);
    }

    pub fn gauge_f64(&mut self, name: &str, help: &str, v: f64) {
        self.family(name, help, "gauge");
        self.series_f64(name, None, v);
    }

    /// Render a histogram snapshot: cumulative `_bucket{le=...}` lines
    /// (only up to the last non-empty bucket, then `+Inf`), `_sum`,
    /// `_count`. `Unit::Nanos` scales bounds and sum to seconds.
    pub fn histogram(&mut self, name: &str, snap: &HistSnapshot, unit: Unit) {
        self.histogram_labeled(name, None, snap, unit);
    }

    /// Like [`PromText::histogram`] but every series carries `label`;
    /// on bucket lines it is merged ahead of the `le` bound.
    pub fn histogram_labeled(
        &mut self,
        name: &str,
        label: Option<&(&'static str, String)>,
        snap: &HistSnapshot,
        unit: Unit,
    ) {
        // `{shard="2",` on bucket lines, `{shard="2"}` on sum/count.
        let (bucket_prefix, plain) = match label {
            Some((k, v)) => {
                let inner = format!("{k}=\"{}\"", escape_label_value(v));
                (format!("{{{inner},"), format!("{{{inner}}}"))
            }
            None => ("{".to_owned(), String::new()),
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

    #[test]
    fn render_groups_families_and_escapes_labels() {
        let r = Registry::new();
        let c = r.counter("t_total", "a counter");
        let g0 = r.gauge_with_label("t_conns", "per-shard", "shard", "0");
        let g1 = r.gauge_with_label("t_conns", "per-shard", "shard", "a\"b\\c\nd");
        c.add(3);
        g0.set(7);
        g1.set(-2);
        let text = r.render_prometheus(&mut PromText::new());
        assert!(text.contains("# HELP t_total a counter\n# TYPE t_total counter\nt_total 3\n"));
        // One header for the two-series family.
        assert_eq!(text.matches("# TYPE t_conns gauge").count(), 1);
        assert!(text.contains("t_conns{shard=\"0\"} 7\n"));
        assert!(text.contains("t_conns{shard=\"a\\\"b\\\\c\\nd\"} -2\n"));
    }

    #[test]
    fn histogram_rendering_is_cumulative_and_ends_with_inf() {
        let r = Registry::new();
        let h = r.histogram("t_lat_seconds", "latency", Unit::Nanos);
        h.record(0);
        h.record(1_000_000_000); // 1s
        let text = r.render_prometheus(&mut PromText::new());
        assert!(text.contains("t_lat_seconds_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("t_lat_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("t_lat_seconds_count 2\n"));
        // The sum is in seconds.
        assert!(text.contains("t_lat_seconds_sum 1\n"));
        assert!(r.histogram_snapshot("t_lat_seconds").is_some());
        assert!(r.histogram_snapshot("nope").is_none());
    }

    #[test]
    fn multi_label_series_render_all_pairs() {
        let mut t = PromText::new();
        t.family("t_burn", "burn rates", "gauge");
        t.series_f64_multi("t_burn", &[("slo", "latency_p99"), ("window", "fast")], 1.25);
        t.series_u64_multi("t_burn_total", &[("slo", "a\"b")], 3);
        t.series_f64_multi("t_plain", &[], 0.5);
        let text = t.text;
        assert!(text.contains("t_burn{slo=\"latency_p99\",window=\"fast\"} 1.25\n"));
        assert!(text.contains("t_burn_total{slo=\"a\\\"b\"} 3\n"));
        assert!(text.contains("t_plain 0.5\n"));
    }

    #[test]
    fn family_count_dedupes_labeled_series() {
        let r = Registry::new();
        assert_eq!(r.family_count(), 0);
        r.counter("t_a_total", "a");
        r.gauge_with_label("t_b", "b", "shard", "0");
        r.gauge_with_label("t_b", "b", "shard", "1");
        r.histogram("t_c_seconds", "c", Unit::Nanos);
        assert_eq!(r.family_count(), 3);
    }

    #[test]
    fn labeled_histograms_merge_label_with_le_and_share_one_header() {
        let r = Registry::new();
        let h0 = r.histogram_with_label("t_stage_seconds", "per-shard", Unit::Nanos, "shard", "0");
        let h1 = r.histogram_with_label("t_stage_seconds", "per-shard", Unit::Nanos, "shard", "1");
        h0.record(0);
        h1.record(1_000_000_000);
        let text = r.render_prometheus(&mut PromText::new());
        assert_eq!(text.matches("# TYPE t_stage_seconds histogram").count(), 1);
        assert!(text.contains("t_stage_seconds_bucket{shard=\"0\",le=\"0\"} 1\n"));
        assert!(text.contains("t_stage_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("t_stage_seconds_bucket{shard=\"1\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("t_stage_seconds_sum{shard=\"0\"} 0\n"));
        assert!(text.contains("t_stage_seconds_sum{shard=\"1\"} 1\n"));
        assert!(text.contains("t_stage_seconds_count{shard=\"1\"} 1\n"));
    }
}
