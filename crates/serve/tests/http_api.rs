//! End-to-end test of the HTTP front end, in-process: a real server on an
//! ephemeral port, a plain `TcpStream` client, every endpoint exercised
//! while the write loop slides in the background.

mod common;

use common::{get, request};
use dppr_graph::generators::erdos_renyi;
use dppr_graph::GraphStream;
use dppr_serve::{start, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Reads exactly one Content-Length-framed response off a keep-alive
/// connection, leaving the stream positioned at the next response.
fn read_response(conn: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = conn.read(&mut byte).expect("read header byte");
        assert!(n > 0, "EOF inside response head: {:?}", String::from_utf8_lossy(&head));
        head.push(byte[0]);
        assert!(head.len() < 8192, "unterminated response head");
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .expect("Content-Length header")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).expect("utf8 body"))
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let stream = GraphStream::directed(erdos_renyi(120, 3_000, 9)).permuted(3);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 400,
            epsilon: 1e-3,
            max_slides: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Several sequential requests on ONE connection; HTTP/1.1 defaults to
    // keep-alive, so each response must announce it and leave the stream
    // open for the next.
    write!(conn, "GET /healthz HTTP/1.1\r\nHost: dppr\r\n\r\n").unwrap();
    let (status, head, body) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    assert!(body.contains("\"ok\":true"), "{body}");

    write!(conn, "GET /topk?source=0&k=3 HTTP/1.1\r\nHost: dppr\r\n\r\n").unwrap();
    let (status, _, body) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(body.contains("\"ranking\""), "{body}");

    // Percent-encoded params decode before routing (%30 → '0', %33 → '3').
    write!(conn, "GET /topk?source=%30&k=%33 HTTP/1.1\r\nHost: dppr\r\n\r\n").unwrap();
    let (status, _, body) = read_response(&mut conn);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"k\":3"), "{body}");

    // Non-finite floats in params are rejected, connection still alive
    // (the HTTP itself was well-formed, so only the request fails).
    for bad in ["nan", "inf", "-inf", "NaN", "Infinity"] {
        write!(conn, "GET /threshold?source=0&delta={bad} HTTP/1.1\r\nHost: dppr\r\n\r\n").unwrap();
        let (status, _, body) = read_response(&mut conn);
        assert_eq!(status, 400, "delta={bad} must be rejected: {body}");
        assert!(body.contains("finite"), "{body}");
    }

    // Pipelining: two requests in one write, two responses in order.
    write!(
        conn,
        "GET /score?source=0&v=1 HTTP/1.1\r\nHost: dppr\r\n\r\nGET /sessions HTTP/1.1\r\nHost: dppr\r\n\r\n"
    )
    .unwrap();
    let (status, _, body) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(body.contains("\"vertex\":1"), "{body}");
    let (status, _, body) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(body.contains("\"sessions\":[0]"), "{body}");

    // Explicit Connection: close is honoured: response, then EOF.
    write!(conn, "GET /healthz HTTP/1.1\r\nHost: dppr\r\nConnection: close\r\n\r\n").unwrap();
    let (status, head, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "bytes after Connection: close response");

    // An invalid percent escape corrupts the request line itself, so the
    // 400 comes with Connection: close and the stream ends there.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(conn, "GET /topk?source=%zz HTTP/1.1\r\nHost: dppr\r\n\r\n").unwrap();
    let (status, head, body) = read_response(&mut conn);
    assert_eq!(status, 400);
    assert!(body.contains("percent"), "{body}");
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("EOF after malformed request");
    assert!(rest.is_empty());

    // The whole exchange used exactly two accepted connections, many
    // requests — the thing HTTP/1.0-per-request could not do.
    assert_eq!(handle.conn_counters().accepted.load(std::sync::atomic::Ordering::Relaxed), 2);
    assert!(handle.conn_counters().requests.load(std::sync::atomic::Ordering::Relaxed) >= 11);
    handle.join();
}

#[test]
fn start_rejects_out_of_bound_sources() {
    let stream = GraphStream::directed(erdos_renyi(50, 400, 1)).permuted(1);
    match start(stream, 0.1, &[0, 4_000_000_000], ServeConfig::default()) {
        Err(e) => assert!(e.to_string().contains("vertex bound"), "{e}"),
        Ok(_) => panic!("out-of-bound source must be rejected"),
    }
}

#[test]
fn serves_every_endpoint_while_sliding() {
    let stream = GraphStream::directed(erdos_renyi(200, 6_000, 21)).permuted(5);
    let handle = start(
        stream,
        0.1,
        &[0, 5],
        ServeConfig {
            threads: 3,
            batch: 200,
            epsilon: 1e-3,
            max_slides: 8, // freeze the epoch afterwards → deterministic cache hits
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Health and initial sessions are live before start() returns.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");
    let (status, body) = get(addr, "/sessions");
    assert_eq!(status, 200);
    assert!(body.contains("\"sessions\":[0,5]"), "{body}");

    // Queries against both sessions, concurrently with the write loop.
    let (status, body) = get(addr, "/topk?source=0&k=5");
    assert_eq!(status, 200);
    assert!(body.contains("\"ranking\":[{\"vertex\":"), "{body}");
    assert!(body.contains("\"set_is_certain\":"), "{body}");
    let (status, body) = get(addr, "/score?source=5&v=0");
    assert_eq!(status, 200);
    assert!(body.contains("\"estimate\":"), "{body}");
    assert!(body.contains("\"lo\":") && body.contains("\"hi\":"), "{body}");
    let (status, body) = get(addr, "/threshold?source=0&delta=0.01");
    assert_eq!(status, 200);
    assert!(body.contains("\"certain\":[") && body.contains("\"possible\":["), "{body}");
    let (status, body) = get(addr, "/compare?source=0&a=1&b=2");
    assert_eq!(status, 200);
    assert!(body.contains("\"order\":\""), "{body}");

    // Error paths: unknown session, missing/invalid params, bad endpoint.
    let (status, body) = get(addr, "/topk?source=77");
    assert_eq!(status, 404);
    assert!(body.contains("no open session for source 77"), "{body}");
    let (status, _) = get(addr, "/topk");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/score?source=0&v=zebra");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    // Opening a session beyond the stream's vertex bound is rejected up
    // front (an unchecked id would cold-start a source+1-sized state).
    let (status, body) = request(addr, "POST", "/session/open?source=4000000000");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("vertex bound"), "{body}");

    // Session lifecycle over HTTP: open a new source, wait for the write
    // loop to apply it between batches, query it, close it again.
    let (status, body) = request(addr, "POST", "/session/open?source=9");
    assert_eq!(status, 200);
    assert!(body.contains("\"accepted\":true"), "{body}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = get(addr, "/topk?source=9&k=3");
        if status == 200 {
            assert!(body.contains("\"ranking\""), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "session 9 never opened");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, _) = request(addr, "POST", "/session/close?source=9");
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(10);
    while get(addr, "/topk?source=9&k=3").0 != 404 {
        assert!(Instant::now() < deadline, "session 9 never closed");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Wait for the slide cap; the epoch freezes, so a repeated identical
    // query must be served from the cache.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = get(addr, "/stats");
        if body.contains("\"slides\":8") {
            break;
        }
        assert!(Instant::now() < deadline, "write loop never hit max_slides: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let hits_before = handle.cache().stats().hits;
    let (_, first) = get(addr, "/topk?source=0&k=7");
    let (_, second) = get(addr, "/topk?source=0&k=7");
    assert_eq!(first, second);
    assert!(
        handle.cache().stats().hits > hits_before,
        "frozen-epoch repeat query did not hit the cache"
    );

    // Stats reflect the traffic; shutdown over HTTP stops everything.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"queries\":"), "{body}");
    assert!(body.contains("\"hits\":"), "{body}");
    let (status, body) = request(addr, "POST", "/shutdown");
    assert_eq!(status, 200);
    assert!(body.contains("\"shutting_down\":true"), "{body}");
    assert!(handle.is_shutdown());
    let report = handle.join();
    assert_eq!(report.slides, 8);
    assert!(report.queries >= 10);
    assert!(report.updates_applied > 0);
    assert!(report.epoch >= 9); // bootstrap + 8 slides
    assert!(report.cache.hits >= 1);
}

/// HTTP/1.0 GET returning the full response head too (for Content-Type
/// checks).
fn get_with_head(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(conn, "GET {target} HTTP/1.0\r\nHost: dppr\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, head.to_string(), body.to_string())
}

/// Waits until `/stats` reports at least one applied slide.
fn wait_for_slides(addr: SocketAddr, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = get(addr, "/stats");
        if body.contains(&format!("\"slides\":{n}")) {
            break;
        }
        assert!(Instant::now() < deadline, "write loop never reached slide {n}: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `/metrics` speaks Prometheus text format 0.0.4: every family announced
/// by HELP + TYPE exactly once before its samples, histograms framed as
/// cumulative `_bucket`/`_sum`/`_count`, labels quoted, counters monotone
/// across scrapes.
#[test]
fn metrics_exposition_is_prometheus_conformant() {
    let stream = GraphStream::directed(erdos_renyi(150, 4_000, 11)).permuted(2);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 300,
            epsilon: 1e-3,
            max_slides: 3,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();
    for _ in 0..5 {
        assert_eq!(get(addr, "/topk?source=0&k=5").0, 200);
    }
    wait_for_slides(addr, 3);

    let (status, head, scrape1) = get_with_head(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus scrapes key on the exposition content type: {head}"
    );

    // HELP and TYPE exactly once per family, and before any sample of it.
    let mut seen_help = std::collections::HashSet::new();
    let mut seen_type = std::collections::HashSet::new();
    for line in scrape1.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let fam = rest.split_whitespace().next().unwrap().to_string();
            assert!(seen_help.insert(fam.clone()), "duplicate HELP for {fam}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let fam = it.next().unwrap().to_string();
            let kind = it.next().unwrap();
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            assert!(seen_help.contains(&fam), "TYPE before HELP for {fam}");
            assert!(seen_type.insert(fam), "duplicate TYPE for {}", line);
        } else if !line.is_empty() {
            let name = line.split([' ', '{']).next().unwrap();
            let fam = name
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(seen_type.contains(fam), "sample before TYPE: {line}");
        }
    }

    // The pipeline-stage histograms demanded by the acceptance criteria
    // are all announced (WAL/checkpoint families register even when the
    // run is not durable — they are simply empty).
    for fam in [
        "dppr_http_request_seconds",
        "dppr_slide_apply_seconds",
        "dppr_push_wall_seconds",
        "dppr_push_iterations",
        "dppr_wal_append_seconds",
        "dppr_wal_fsync_seconds",
        "dppr_checkpoint_seconds",
    ] {
        assert!(seen_type.contains(fam), "family {fam} missing from /metrics");
    }

    // Histogram framing: cumulative buckets ending at +Inf == _count.
    let buckets: Vec<u64> = scrape1
        .lines()
        .filter(|l| l.starts_with("dppr_http_request_seconds_bucket{le="))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "no buckets rendered:\n{scrape1}");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "non-cumulative buckets: {buckets:?}");
    let inf_line = scrape1
        .lines()
        .find(|l| l.starts_with("dppr_http_request_seconds_bucket{le=\"+Inf\"}"))
        .expect("+Inf bucket");
    let count_line = scrape1
        .lines()
        .find(|l| l.starts_with("dppr_http_request_seconds_count"))
        .expect("_count sample");
    assert_eq!(
        inf_line.rsplit(' ').next().unwrap(),
        count_line.rsplit(' ').next().unwrap(),
        "+Inf bucket must equal _count"
    );
    let served: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(served >= 5, "request histogram missed traffic: {count_line}");

    // Per-shard gauges carry quoted labels.
    assert!(
        scrape1.lines().any(|l| l.starts_with("dppr_shard_connections{shard=\"0\"}")),
        "labelled shard gauge missing:\n{scrape1}"
    );

    // Counters are monotone between scrapes, even with traffic in between.
    let counter_values = |scrape: &str| -> std::collections::HashMap<String, f64> {
        let families: std::collections::HashSet<&str> = scrape
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|r| {
                let mut it = r.split_whitespace();
                let fam = it.next()?;
                (it.next()? == "counter").then_some(fam)
            })
            .collect();
        scrape
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| {
                let (name, v) = l.rsplit_once(' ')?;
                families
                    .contains(name.split('{').next().unwrap())
                    .then(|| (name.to_string(), v.parse().unwrap()))
            })
            .collect()
    };
    for _ in 0..3 {
        assert_eq!(get(addr, "/score?source=0&v=1").0, 200);
    }
    let (_, _, scrape2) = get_with_head(addr, "/metrics");
    let (v1, v2) = (counter_values(&scrape1), counter_values(&scrape2));
    assert!(!v1.is_empty(), "no counter samples found");
    for (name, before) in &v1 {
        let after = v2.get(name).unwrap_or_else(|| panic!("{name} vanished between scrapes"));
        assert!(after >= before, "counter {name} went backwards: {before} -> {after}");
    }
    handle.join();
}

#[test]
fn trace_endpoint_returns_sampled_events() {
    let stream = GraphStream::directed(erdos_renyi(120, 3_000, 17)).permuted(4);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 300,
            epsilon: 1e-3,
            max_slides: 2,
            trace_sample: 1, // trace everything
            trace_capacity: 4096,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();
    for _ in 0..4 {
        assert_eq!(get(addr, "/topk?source=0&k=3").0, 200);
    }
    wait_for_slides(addr, 2);

    let (status, head, body) = get_with_head(addr, "/trace");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/x-ndjson"), "{head}");
    assert!(!body.is_empty(), "trace_sample=1 but the ring is empty");
    for line in body.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains("\"event\":"), "untagged trace event: {line}");
    }
    assert!(
        body.lines().any(|l| l.contains("\"event\":\"request\"")),
        "no request events:\n{body}"
    );
    assert!(body.lines().any(|l| l.contains("\"event\":\"slide\"")), "no slide events:\n{body}");
    // The handle-side dump (what the CLI prints on SIGTERM) sees the same
    // ring; the `/trace` request itself is traced after its response is
    // written, so the later dump may extend the scrape but never rewrite it.
    assert!(handle.trace_dump().starts_with(&body), "handle dump diverged from /trace");
    handle.join();
}

#[test]
fn healthz_and_stats_report_observability_fields() {
    let stream = GraphStream::directed(erdos_renyi(100, 2_500, 5)).permuted(9);
    let handle = start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 300,
            epsilon: 1e-3,
            max_slides: 1,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Fresh instance, not durable, no traffic: the health probe spells out
    // WHY it is healthy — no degraded reason, no fsync ever.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"degraded\":false"), "{body}");
    assert!(body.contains("\"degraded_reason\":null"), "{body}");
    assert!(body.contains("\"last_fsync_age_seconds\":null"), "{body}");

    // A fresh cache reports no lookups; a pre-slide instance reports
    // updates_per_sec 0, not a division artifact.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"cache\":{\"hits\":0,\"misses\":0,"), "{body}");
    assert!(body.contains("\"updates_per_sec\":"), "{body}");
    assert!(!body.to_ascii_lowercase().contains("nan"), "{body}");
    // The stage-timing block is part of /stats now.
    assert!(body.contains("\"timings\":"), "{body}");
    assert!(body.contains("\"slide_apply\":"), "{body}");
    assert!(body.contains("\"trace\":"), "{body}");
    handle.join();
}
