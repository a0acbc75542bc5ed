//! End-to-end tests of the observability tentpole: online accuracy
//! auditing, the in-process metrics time-series, SLO burn-rate health,
//! and the trace-endpoint filters — all against a real server on an
//! ephemeral port.

mod common;

use common::{get, request};
use dppr_graph::generators::erdos_renyi;
use dppr_graph::GraphStream;
use dppr_serve::{start, QuerySnapshot, ServeConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First sample of family `name` in a Prometheus exposition (skips
/// `# HELP`/`# TYPE` lines and labeled series of longer names).
fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ').or_else(|| {
            rest.starts_with('{').then(|| rest.split_once("} ").map(|(_, v)| v)).flatten()
        })?;
        rest.trim().parse().ok()
    })
}

/// Polls `check` against a fresh scrape until it passes or `secs` elapse.
fn poll_metrics(addr: SocketAddr, secs: u64, check: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        if check(&body) || Instant::now() > deadline {
            return body;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Eight sessions pushed over every core: one capture from the one write
/// loop covers sessions of every lane.
#[test]
fn audit_reports_errors_within_bound_across_shards() {
    let epsilon = 1e-3;
    let stream = GraphStream::directed(erdos_renyi(120, 3_000, 9)).permuted(3);
    let handle = start(
        stream,
        0.1,
        &[0, 1, 2, 3, 4, 5, 6, 7],
        ServeConfig {
            threads: 2,
            batch: 500,
            epsilon,
            audit_sample: 8,
            audit_interval: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Wait until audits have graded real sessions.
    let body = poll_metrics(addr, 20, |b| {
        metric_value(b, "dppr_audit_sessions_total").unwrap_or(0.0) >= 4.0
    });
    assert!(metric_value(&body, "dppr_audit_sessions_total").unwrap() >= 4.0, "{body}");
    // The error histograms are populated...
    assert!(metric_value(&body, "dppr_audit_l1_error_count").unwrap() >= 1.0, "{body}");
    assert!(body.contains("dppr_audit_topk_overlap_bucket{k=\"10\""), "{body}");
    assert!(body.contains("dppr_audit_topk_overlap_bucket{k=\"50\""), "{body}");
    assert!(metric_value(&body, "dppr_audit_solve_seconds_count").unwrap() >= 1.0, "{body}");
    // ...and the audited error honours the paper's ε contract.
    let max_linf = metric_value(&body, "dppr_audit_max_linf_error").expect("max linf gauge");
    assert!(max_linf <= epsilon + 1e-6, "audited error {max_linf} > epsilon {epsilon}\n{body}");
    assert_eq!(metric_value(&body, "dppr_audit_bound_violations_total"), Some(0.0), "{body}");
    assert_eq!(metric_value(&body, "dppr_audit_enabled"), Some(1.0));

    // /stats mirrors the audit scalars.
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"audit\":{\"enabled\":true"), "{stats}");
    assert!(stats.contains("\"bound_violations\":0"), "{stats}");

    request(addr, "POST", "/shutdown");
    handle.join();
}

#[test]
fn corrupted_snapshot_fires_bound_violation() {
    let epsilon = 1e-3;
    let stream = GraphStream::directed(erdos_renyi(80, 1_500, 5)).permuted(2);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 400,
            epsilon,
            max_slides: 2,
            audit_sample: 4,
            audit_interval: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Let the instance freeze (slide cap) and at least one clean audit
    // land, so the write loop will not republish over our corruption.
    poll_metrics(addr, 20, |b| metric_value(b, "dppr_audit_runs_total").unwrap_or(0.0) >= 1.0);

    // Inject a corrupted published snapshot: every estimate 0.5 is
    // nowhere near any true PPR vector, so the next audit must flag it.
    let registry = handle.registry();
    let domain = registry.domain().clone();
    let entry = registry.peek(0).expect("session 0 open");
    let corrupt = QuerySnapshot::new(0, handle.epoch(), 0.15, epsilon, vec![0.5; 80]);
    entry.publish(&domain, Arc::new(corrupt));

    let body = poll_metrics(addr, 20, |b| {
        metric_value(b, "dppr_audit_bound_violations_total").unwrap_or(0.0) >= 1.0
    });
    assert!(
        metric_value(&body, "dppr_audit_bound_violations_total").unwrap() >= 1.0,
        "corruption never flagged:\n{body}"
    );
    let last_linf = metric_value(&body, "dppr_audit_last_linf_error").unwrap();
    assert!(last_linf > epsilon, "audited error {last_linf} should dwarf epsilon");

    request(addr, "POST", "/shutdown");
    handle.join();
}

#[test]
fn latency_slo_breach_degrades_health_and_sheds() {
    let stream = GraphStream::directed(erdos_renyi(100, 2_000, 7)).permuted(4);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 400,
            epsilon: 1e-3,
            audit_interval: Duration::from_millis(50),
            // 1ns: any answered request violates the target.
            slo_p99: Duration::from_nanos(1),
            slo_availability: 0.999,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Generate request samples, then wait for the fast window to burn.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut health = String::new();
    while Instant::now() < deadline {
        get(addr, "/sessions");
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        health = body;
        if health.contains("\"degraded\":true") {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(health.contains("\"degraded\":true"), "{health}");
    assert!(health.contains("SLO latency_p99 fast burn"), "{health}");
    assert!(health.contains("\"name\":\"latency_p99\""), "{health}");
    // The availability SLO is listed too, with its own state.
    assert!(health.contains("\"name\":\"availability\""), "{health}");

    let body =
        poll_metrics(addr, 10, |b| metric_value(b, "dppr_slo_breach_total").unwrap_or(0.0) >= 1.0);
    assert!(body.contains("dppr_slo_burn_rate{slo=\"latency_p99\",window=\"fast\"}"), "{body}");
    assert!(body.contains("dppr_slo_breach_total{slo=\"latency_p99\"}"), "{body}");

    // While the latency SLO burns, query endpoints shed with a distinct
    // reason; health endpoints stay reachable.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut shed = (0u16, String::new());
    while Instant::now() < deadline {
        shed = get(addr, "/topk?source=0&k=3");
        if shed.0 == 503 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(shed.0, 503, "{}", shed.1);
    assert!(shed.1.contains("latency SLO"), "{}", shed.1);

    request(addr, "POST", "/shutdown");
    handle.join();
}

#[test]
fn series_endpoint_serves_catalog_and_windows() {
    let stream = GraphStream::directed(erdos_renyi(80, 1_500, 6)).permuted(5);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 400,
            epsilon: 1e-3,
            audit_interval: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Wait for at least two observer ticks so windows have points.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, catalog) = get(addr, "/series");
        if catalog.contains("\"samples\":")
            && !catalog.contains("\"samples\":0")
            && !catalog.contains("\"samples\":1")
        {
            assert!(catalog.contains("\"epoch\""), "{catalog}");
            assert!(catalog.contains("\"http_request_p99_seconds\""), "{catalog}");
            assert!(catalog.contains("\"process_rss_bytes\""), "{catalog}");
            break;
        }
        assert!(Instant::now() < deadline, "series never sampled: {catalog}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let (status, body) = get(addr, "/series?name=epoch&window=60");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"epoch\""), "{body}");
    assert!(body.contains("\"points\":[["), "{body}");
    assert!(body.contains("\"rate_per_sec\""), "{body}");

    let (status, body) = get(addr, "/series?name=nope");
    assert_eq!(status, 404, "{body}");

    // /metrics self-observation: scrape twice so the first render's
    // duration is visible, and the family gauge counts this exposition.
    get(addr, "/metrics");
    let (_, metrics) = get(addr, "/metrics");
    assert!(metric_value(&metrics, "dppr_metrics_scrape_seconds_count").unwrap() >= 1.0);
    let families = metric_value(&metrics, "dppr_metrics_families").expect("family gauge");
    let types = metrics.matches("# TYPE ").count() as f64;
    assert_eq!(families, types, "gauge must count every family including its own");
    assert!(metric_value(&metrics, "dppr_process_rss_bytes").unwrap() > 0.0);
    assert!(metric_value(&metrics, "dppr_process_threads").unwrap() >= 1.0);

    request(addr, "POST", "/shutdown");
    handle.join();
}

#[test]
fn trace_endpoint_filters_by_limit_and_kind() {
    let stream = GraphStream::directed(erdos_renyi(80, 1_500, 8)).permuted(6);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 400,
            epsilon: 1e-3,
            trace_sample: 1,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    for _ in 0..6 {
        get(addr, "/sessions");
    }
    let (status, body) = get(addr, "/trace?limit=2&kind=request");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() <= 2, "limit ignored: {body}");
    assert!(!lines.is_empty(), "tracing produced nothing");
    assert!(lines.iter().all(|l| l.contains("\"event\":\"request\"")), "{body}");

    // Unfiltered dump is at least as long as the filtered one.
    let (_, all) = get(addr, "/trace");
    assert!(all.lines().count() >= lines.len());

    let (status, body) = get(addr, "/trace?kind=nonsense");
    assert_eq!(status, 400, "{body}");

    request(addr, "POST", "/shutdown");
    handle.join();
}
