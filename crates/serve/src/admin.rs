//! Telemetry and instance-control handlers: `/healthz`, `/metrics`,
//! `/stats`, `/series`, `/trace`, `/shutdown`. The scalars, histograms
//! and per-shard gauges of `/metrics` and `/stats` are loops over the
//! tables in `metrics.rs`; what is written out here is only what no table
//! describes (the SLO blocks and the engine counters).

use crate::audit::SloEngine;
use crate::http::{Request, Response};
use crate::json::{error_body, JsonBuf};
use crate::metrics::{json_section, View, HISTOGRAMS, INSTANCE, SHARD_GAUGES};
use crate::query::RouterImpl;
use crate::server::Ctx;
use dppr_obs::PromText;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// `Content-Type` of the Prometheus text exposition format.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Per-SLO burn-rate detail (empty array with no targets).
fn slos_json(j: &mut JsonBuf, slo: &SloEngine) {
    j.key("slos").begin_arr();
    for (spec, st) in slo.specs.iter().zip(&slo.status) {
        j.begin_obj();
        j.key("name").str(spec.name);
        j.key("target").num(spec.target);
        j.key("burn_fast").num(st.burn_fast.load());
        j.key("burn_slow").num(st.burn_slow.load());
        j.key("breaching").bool(st.breaching.load(Relaxed));
        j.key("breaches_total").uint(st.breaches.load(Relaxed));
        j.end_obj();
    }
    j.end_arr();
}

pub(crate) fn healthz(_req: &Request, r: &RouterImpl) -> Result<Response, String> {
    let ctx = &*r.ctx;
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("ok").bool(true);
    j.key("epoch").uint(ctx.domain.epoch());
    j.key("degraded")
        .bool(ctx.stats.degraded.load(Relaxed) || ctx.slo.any_breaching());
    // Why the instance is degraded (null while healthy): a WAL failure
    // (read-only serving) wins over an SLO burn.
    j.key("degraded_reason");
    let wal_reason = ctx.stats.degraded_reason.lock().unwrap().clone();
    match wal_reason.or_else(|| ctx.slo.breach_reason()) {
        Some(reason) => j.str(&reason),
        None => j.null(),
    };
    slos_json(&mut j, &ctx.slo);
    // Null until the WAL has flushed once.
    j.key("last_fsync_age_seconds");
    match ctx.last_fsync_ns.load(Relaxed) {
        0 => j.null(),
        marker => {
            let age = (ctx.start.elapsed().as_nanos() as u64).saturating_sub(marker - 1);
            j.num(age as f64 / 1e9)
        }
    };
    j.key("lagging").bool(ctx.lagging());
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

/// The full Prometheus exposition: every histogram, the per-event-shard
/// gauges, the table scalars (read at scrape time from where they already
/// live, so nothing is double-counted), the engine counters, then the SLO
/// series.
pub(crate) fn metrics_text(ctx: &Ctx) -> PromText {
    let view = View::gather(ctx);
    let mut out = PromText::new();
    // Rows of one histogram family are adjacent and share its header.
    let mut last = "";
    for &(family, help, unit, label, _, hist) in HISTOGRAMS {
        if family != last {
            last = family;
            out.family(family, help, "histogram");
        }
        out.histogram(family, label, &hist(&ctx.metrics).snapshot(), unit);
    }
    for (family, help, _, gauge) in SHARD_GAUGES {
        out.family(family, help, "gauge");
        for (shard, g) in ctx.shard_gauges.iter().enumerate() {
            let shard = shard.to_string();
            out.series_u64(family, Some(("shard", &shard)), gauge(g).load(Relaxed));
        }
    }
    for row in INSTANCE {
        if let Some((family, help, kind)) = row.prom {
            out.family(family, help, kind);
            (row.read)(ctx, &view).prom(&mut out, family);
        }
    }
    // The paper's operation quantities, by `CounterSnapshot::fields` name.
    for (name, v) in view.engine.fields() {
        out.counter_u64(
            &format!("dppr_engine_{name}_total"),
            "Cumulative engine push-work counter",
            v,
        );
    }
    // One {slo,window} burn series per target and window, one {slo}
    // series per target for the breach state and count.
    if !ctx.slo.specs.is_empty() {
        let slos = || ctx.slo.specs.iter().zip(&ctx.slo.status);
        let family = "dppr_slo_burn_rate";
        out.family(
            family,
            "Error-budget burn rate per SLO and window (>= 1 on the fast window is a breach)",
            "gauge",
        );
        for (spec, st) in slos() {
            for (window, burn) in [("fast", &st.burn_fast), ("slow", &st.burn_slow)] {
                out.series_f64_multi(
                    family,
                    &[("slo", spec.name), ("window", window)],
                    burn.load(),
                );
            }
        }
        let family = "dppr_slo_breaching";
        out.family(
            family,
            "1 while the SLO's fast-window burn is at or above 1",
            "gauge",
        );
        for (spec, st) in slos() {
            out.series_u64_multi(
                family,
                &[("slo", spec.name)],
                st.breaching.load(Relaxed) as u64,
            );
        }
        let family = "dppr_slo_breach_total";
        out.family(
            family,
            "Healthy-to-breaching transitions per SLO",
            "counter",
        );
        for (spec, st) in slos() {
            out.series_u64_multi(family, &[("slo", spec.name)], st.breaches.load(Relaxed));
        }
    }
    out
}

pub(crate) fn metrics(_req: &Request, r: &RouterImpl) -> Result<Response, String> {
    // Self-observation: time the render and count families. The duration
    // lands in a histogram this render has already read, so it shows up
    // on the *next* scrape — acceptable for a gauge of scrape cost, and
    // it keeps this scrape's text consistent.
    let t = Instant::now();
    let mut out = metrics_text(&r.ctx);
    let families = out.as_str().matches("# TYPE ").count() as u64 + 1;
    out.gauge_u64(
        "dppr_metrics_families",
        "Metric families in this exposition (including this one)",
        families,
    );
    r.ctx
        .metrics
        .metrics_scrape
        .record(t.elapsed().as_nanos() as u64);
    Ok(Response::with_content_type(
        200,
        PROMETHEUS_CONTENT_TYPE,
        out.as_str(),
    ))
}

pub(crate) fn stats(_req: &Request, r: &RouterImpl) -> Result<Response, String> {
    let ctx = &*r.ctx;
    let view = View::gather(ctx);
    let mut j = JsonBuf::new();
    j.begin_obj();
    for section in ["", "http", "cache", "durability"] {
        json_section(&mut j, section, ctx, &view);
    }
    // Engine push-work counters, cumulative, refreshed by the write loop
    // per slide.
    j.key("engine").begin_obj();
    for (name, v) in view.engine.fields() {
        j.key(name).uint(v);
    }
    j.end_obj();
    for section in ["graph", "stream"] {
        json_section(&mut j, section, ctx, &view);
    }
    j.key("shards").begin_arr();
    for g in &ctx.shard_gauges {
        j.begin_obj();
        for (_, _, key, gauge) in SHARD_GAUGES {
            j.key(key).uint(gauge(g).load(Relaxed));
        }
        j.end_obj();
    }
    j.end_arr();
    // Stage-latency summaries out of the same histograms `/metrics`
    // exposes (seconds at bucket resolution).
    j.key("timings").begin_obj();
    for &(.., timing, hist) in HISTOGRAMS {
        let Some(key) = timing else { continue };
        let s = hist(&ctx.metrics).snapshot();
        j.key(key).begin_obj();
        j.key("count").uint(s.count);
        j.key("p50_s").num(s.p50() as f64 / 1e9);
        j.key("p99_s").num(s.p99() as f64 / 1e9);
        j.end_obj();
    }
    j.end_obj();
    for section in ["trace", "audit"] {
        json_section(&mut j, section, ctx, &view);
    }
    slos_json(&mut j, &ctx.slo);
    for section in ["process", "series"] {
        json_section(&mut j, section, ctx, &view);
    }
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

pub(crate) fn series(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    let ctx = &*r.ctx;
    let interval_ms = ctx.audit_interval.as_secs_f64() * 1e3;
    let mut j = JsonBuf::new();
    j.begin_obj();
    let Some(name) = req.param("name") else {
        // Catalog: the column set plus sampling geometry.
        j.key("interval_ms").num(interval_ms);
        j.key("samples").uint(ctx.series.len() as u64);
        j.key("names").begin_arr();
        for name in ctx.series.names() {
            j.str(name);
        }
        j.end_arr();
        j.end_obj();
        return Ok(Response::new(200, j.finish()));
    };
    let window_s: f64 = req.parsed_finite_or("window", 60.0)?;
    let window_nanos = (window_s.max(0.0) * 1e9) as u64;
    let Some(w) = ctx.series.window(name, window_nanos) else {
        return Ok(Response::new(
            404,
            error_body(&format!("unknown series {name}")),
        ));
    };
    j.key("name").str(name);
    j.key("window_seconds").num(window_s);
    j.key("interval_ms").num(interval_ms);
    j.key("last").num(w.last);
    j.key("min").num(w.min);
    j.key("max").num(w.max);
    j.key("avg").num(w.avg);
    j.key("rate_per_sec").num(w.rate_per_sec);
    j.key("points").begin_arr();
    for (at, v) in &w.points {
        j.begin_arr();
        j.num(*at as f64 / 1e9);
        j.num(*v);
        j.end_arr();
    }
    j.end_arr();
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

pub(crate) fn trace(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    let limit: usize = req.parsed_or("limit", usize::MAX)?;
    let ring = &r.ctx.metrics.trace;
    let body = match req.param("kind") {
        None => ring.dump_with(limit, |_| true),
        Some("request") => ring.dump_with(limit, |l| l.contains("\"event\":\"request\"")),
        Some("slide") => ring.dump_with(limit, |l| l.contains("\"event\":\"slide\"")),
        Some(other) => return Err(format!("unknown trace kind {other:?} (request|slide)")),
    };
    Ok(Response::with_content_type(
        200,
        "application/x-ndjson",
        body,
    ))
}

pub(crate) fn shutdown(_req: &Request, r: &RouterImpl) -> Result<Response, String> {
    r.ctx.request_shutdown();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("shutting_down").bool(true);
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

#[cfg(test)]
mod tests {
    use super::{metrics_text, stats};
    use crate::http::Request;
    use crate::metrics::{HISTOGRAMS, INSTANCE};
    use crate::query::RouterImpl;
    use crate::server::{ServeConfig, ServerHandle};
    use dppr_graph::generators::erdos_renyi;
    use dppr_graph::GraphStream;
    use std::collections::BTreeSet;
    use std::time::Duration;

    /// Every `dppr_…` name in `text`, with `{a,b}` alternations expanded
    /// and label sets (`{k=…}`) dropped; `*` and a trailing `_` stay in
    /// the pattern as wildcards.
    fn family_patterns(text: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (at, _) in text.match_indices("dppr_") {
            let token: String = text[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "_*{},".contains(*c))
                .collect();
            // A brace group that never closes inside the token is a label set.
            let token = match token.rfind('{') {
                Some(open) if !token[open..].contains('}') => &token[..open],
                _ => token.as_str(),
            };
            let mut expanded = vec![String::new()];
            let mut rest = token.trim_end_matches(',');
            while let Some(open) = rest.find('{') {
                let close = open + rest[open..].find('}').expect("balanced alternation");
                let alternatives: Vec<&str> = rest[open + 1..close].split(',').collect();
                expanded = expanded
                    .iter()
                    .flat_map(|p| {
                        alternatives
                            .iter()
                            .map(move |a| format!("{p}{}{a}", &rest[..open]))
                    })
                    .collect();
                rest = &rest[close + 1..];
            }
            out.extend(expanded.into_iter().map(|p| p + rest));
        }
        out
    }

    fn matches(pattern: &str, family: &str) -> bool {
        let pattern = if pattern.ends_with('_') {
            format!("{pattern}*")
        } else {
            pattern.to_string()
        };
        let mut parts = pattern.split('*');
        let Some(mut tail) = family.strip_prefix(parts.next().unwrap()) else {
            return false;
        };
        let parts: Vec<&str> = parts.collect();
        for (i, part) in parts.iter().enumerate() {
            if i + 1 == parts.len() {
                return tail.ends_with(part);
            }
            match tail.find(part) {
                Some(at) => tail = &tail[at + part.len()..],
                None => return false,
            }
        }
        tail.is_empty()
    }

    #[test]
    fn pattern_helpers() {
        let got = family_patterns(
            "`dppr_stage_{b,a}_seconds`, `dppr_engine_*_total`, `dppr_x{k=...}` and \
             `dppr_process_{rss_bytes,threads}`; grep 'dppr_(audit|slo)_'",
        );
        let want = [
            "dppr_",
            "dppr_engine_*_total",
            "dppr_process_rss_bytes",
            "dppr_process_threads",
            "dppr_stage_a_seconds",
            "dppr_stage_b_seconds",
            "dppr_x",
        ];
        assert_eq!(got.iter().map(String::as_str).collect::<Vec<_>>(), want);
        assert!(matches("dppr_engine_*_total", "dppr_engine_pushes_total"));
        assert!(!matches("dppr_engine_*_total", "dppr_engine_pushes"));
        assert!(matches("dppr_", "dppr_anything"));
        assert!(!matches("dppr_epoch", "dppr_epochs"));
    }

    /// A one-slide instance with an SLO configured, so every conditional
    /// family of `/metrics` is present.
    fn live_instance() -> ServerHandle {
        let stream = GraphStream::directed(erdos_renyi(60, 600, 5)).permuted(1);
        let cfg = ServeConfig {
            threads: 1,
            max_slides: 1,
            slo_p99: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        crate::start(stream, 0.1, &[0], cfg).expect("server starts")
    }

    /// Each row of the histogram table reaches both surfaces: a complete
    /// `_bucket` / `_sum` / `_count` block under a header its family gets
    /// exactly once on `/metrics`, and — for the rows that name a key —
    /// the `/stats` `timings` object, which holds nothing else.
    #[test]
    fn histogram_rows_render_on_both_surfaces() {
        let handle = live_instance();
        let text = metrics_text(&handle.ctx);
        let text = text.as_str();
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        assert_eq!(types.len(), types.iter().collect::<BTreeSet<_>>().len(), "duplicate # TYPE line");
        for &(family, _, _, label, ..) in HISTOGRAMS {
            assert!(types.contains(&format!("# TYPE {family} histogram").as_str()), "{family}");
            let (merged, plain) = match label {
                Some((k, v)) => (format!("{{{k}=\"{v}\","), format!("{{{k}=\"{v}\"}}")),
                None => ("{".to_string(), String::new()),
            };
            for series in [
                format!("\n{family}_bucket{merged}le=\"+Inf\"}} "),
                format!("\n{family}_sum{plain} "),
                format!("\n{family}_count{plain} "),
            ] {
                assert!(text.contains(&series), "/metrics lacks {series:?}");
            }
        }

        let router = RouterImpl::new(handle.ctx.clone(), std::sync::mpsc::channel().0, 0);
        let req = Request { method: "GET".into(), path: "/stats".into(), params: vec![], http11: true };
        let body = stats(&req, &router).expect("/stats renders").body;
        let timings = body.split_once("\"timings\":{").expect("timings object").1;
        let timings = timings.split_once("}},").expect("timings object closes").0;
        // Each entry is `"<key>":{"count":..,"p50_s":..,"p99_s":..}`.
        let keys: Vec<&str> = timings
            .match_indices("\":{\"count\":")
            .map(|(at, _)| timings[..at].rsplit('"').next().unwrap())
            .collect();
        let rows: Vec<&str> = HISTOGRAMS.iter().filter_map(|&(.., timing, _)| timing).collect();
        assert_eq!(keys, rows, "{timings}");
        handle.join();
    }

    /// README's observability sections may only name families the server
    /// exports: each name there must match a row of one of the tables or
    /// one of the computed families of `/metrics`.
    #[test]
    fn readme_families_exist() {
        let readme = include_str!("../../../README.md");
        let from = readme
            .find("## Observability")
            .expect("Observability section");
        let to = readme
            .find("## Durability & recovery")
            .expect("section after the SLO one");
        let patterns = family_patterns(&readme[from..to]);
        assert!(
            patterns.len() > 20,
            "README parse found too little: {patterns:?}"
        );

        let handle = live_instance();
        let text = metrics_text(&handle.ctx);
        handle.join();
        let mut families: BTreeSet<&str> = text
            .as_str()
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
            .collect();
        families.insert("dppr_metrics_families"); // appended by the handler
        for row in INSTANCE.iter().filter_map(|r| r.prom) {
            assert!(
                families.contains(row.0),
                "table family {} missing from /metrics",
                row.0
            );
        }
        for pattern in &patterns {
            assert!(
                families.iter().any(|f| matches(pattern, f)),
                "README names {pattern}, which /metrics does not export"
            );
        }
    }
}
