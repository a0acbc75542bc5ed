//! Hostile-client corpus against a live server: every case pins the
//! observable behaviour (status code or clean close) and, crucially, that
//! the instance keeps serving everyone else — no case may pin a shard.

mod common;

use common::get;
use dppr_graph::generators::erdos_renyi;
use dppr_graph::GraphStream;
use dppr_serve::{start, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

fn boot() -> ServerHandle {
    let stream = GraphStream::directed(erdos_renyi(500, 12_000, 33)).permuted(2);
    start(
        stream,
        0.1,
        &[0],
        ServeConfig {
            threads: 2,
            batch: 500,
            epsilon: 1e-3,
            max_slides: 1,
            // Short deadlines so timeout cases resolve in test time.
            read_timeout: Duration::from_millis(400),
            write_timeout: Duration::from_millis(400),
            ..ServeConfig::default()
        },
    )
    .expect("server starts")
}

/// Sends raw bytes, then reads whatever comes back until EOF (the server
/// closes every malformed connection after the 400, or silently on
/// timeout). A hung server fails the 10 s client read timeout instead of
/// hanging the suite.
fn send_raw(addr: SocketAddr, payload: &[u8]) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(payload).expect("write payload");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read until close");
    String::from_utf8_lossy(&raw).into_owned()
}

#[test]
fn malformed_request_corpus() {
    let handle = boot();
    let addr = handle.addr();
    assert_eq!(get(addr, "/healthz").0, 200);

    // --- oversized request line: 400, then close -------------------------
    let mut huge = Vec::from(&b"GET /"[..]);
    huge.resize(20 * 1024, b'a'); // no terminator, just an endless target
    let resp = send_raw(addr, &huge);
    assert!(resp.starts_with("HTTP/1.1 400"), "oversized: {resp:?}");
    assert!(resp.contains("size limit"), "{resp}");

    // --- binary garbage (with a head terminator): 400, then close --------
    let resp = send_raw(addr, b"\x00\x01\xfe\xffnot http at all\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "garbage: {resp:?}");

    // --- ASCII garbage that is not a request line: 400 -------------------
    let resp = send_raw(addr, b"EHLO mail.example.com\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "non-http: {resp:?}");

    // --- state-changing endpoints insist on POST: 405, nothing happens ---
    for target in ["/shutdown", "/session/open?source=7", "/session/close?source=0"] {
        for method in ["GET", "DELETE"] {
            let req = format!("{method} {target} HTTP/1.1\r\nHost: dppr\r\nConnection: close\r\n\r\n");
            let resp = send_raw(addr, req.as_bytes());
            assert!(resp.starts_with("HTTP/1.1 405 Method Not Allowed"), "{method} {target}: {resp:?}");
            assert!(resp.contains("requires POST"), "{resp}");
        }
    }
    assert!(!handle.is_shutdown(), "GET /shutdown must not stop the server");
    assert_eq!(handle.registry().sources(), [0], "GET must neither open nor close a session");

    // --- missing blank line: no response, reaped by the read deadline ----
    let before = handle.conn_counters().read_timeouts.load(Relaxed);
    let resp = send_raw(addr, b"GET /healthz HTTP/1.1\r\nHost: dppr\r\n");
    assert!(resp.is_empty(), "half a head must get no response: {resp:?}");
    assert!(
        handle.conn_counters().read_timeouts.load(Relaxed) > before,
        "incomplete head should be reaped by the read deadline"
    );

    // --- mid-request disconnect: server shrugs ---------------------------
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /to").unwrap();
    } // dropped mid-request-line
    assert_eq!(get(addr, "/healthz").0, 200, "disconnect mid-request hurt the server");

    // --- pipelined requests: answered in order on one connection ---------
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: dppr\r\n\r\n\
          GET /sessions HTTP/1.1\r\nHost: dppr\r\n\r\n\
          GET /healthz HTTP/1.1\r\nHost: dppr\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read pipelined responses");
    let ok = raw.match_indices("\"ok\":true").map(|(i, _)| i).collect::<Vec<_>>();
    let sessions = raw.find("\"sessions\":[0]").expect("sessions answer present");
    assert_eq!(ok.len(), 2, "{raw}");
    assert!(ok[0] < sessions && sessions < ok[1], "pipelined answers out of order: {raw}");

    // --- k = usize::MAX: the full ranking, and the connection lives on ---
    // `k + 1` used to overflow: a panic that killed the routing shard's
    // thread in a checked build, an empty "certain" answer in release.
    while handle.stats().slides.load(Relaxed) < 1 {
        std::thread::sleep(Duration::from_millis(2)); // rankings stop changing after the one slide
    }
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(
        b"GET /topk?source=0&k=18446744073709551615 HTTP/1.1\r\nHost: dppr\r\n\r\n\
          GET /topk?source=0&k=1000000 HTTP/1.1\r\nHost: dppr\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read both answers");
    let answers: Vec<&str> = raw.split("HTTP/1.1 ").skip(1).collect();
    assert_eq!(answers.len(), 2, "{raw}");
    assert!(answers.iter().all(|a| a.starts_with("200")), "{raw}");
    assert!(answers[0].contains("\"k\":18446744073709551615"), "{raw}");
    let entries = |a: &str| a.matches("\"vertex\":").count();
    assert!(entries(answers[0]) > 10, "{raw}");
    assert_eq!(entries(answers[0]), entries(answers[1]), "k = usize::MAX must rank every vertex");

    // --- non-reading client: reaped by the WRITE deadline ----------------
    // Pipeline many large responses and never read; the server must give
    // up on the stalled socket instead of pinning a shard on it.
    let before = handle.conn_counters().write_timeouts.load(Relaxed);
    let mut sink = TcpStream::connect(addr).expect("connect");
    sink.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    let req = b"GET /topk?source=0&k=500 HTTP/1.1\r\nHost: dppr\r\n\r\n";
    let mut jammed = false;
    for _ in 0..2_000 {
        if sink.write_all(req).is_err() {
            jammed = true; // both directions full — even better
            break;
        }
    }
    let _ = jammed;
    let deadline = Instant::now() + Duration::from_secs(15);
    while handle.conn_counters().write_timeouts.load(Relaxed) == before {
        assert!(Instant::now() < deadline, "non-reading client was never reaped");
        // The stalled connection must not block anyone else meanwhile.
        assert_eq!(get(addr, "/healthz").0, 200);
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(sink);

    // --- after all of that: healthy, and the books balance ---------------
    assert_eq!(get(addr, "/healthz").0, 200);
    let report = handle.join();
    assert!(report.bad_requests >= 3, "{report:?}");
    assert!(report.read_timeouts >= 1, "{report:?}");
    assert!(report.write_timeouts >= 1, "{report:?}");
}
