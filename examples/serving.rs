//! Serving: start the concurrent query-serving subsystem in-process,
//! issue live HTTP queries while the update stream slides in the
//! background, open a session mid-stream, and shut down cleanly.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use dppr::graph::generators::{barabasi_albert, undirected_to_directed};
use dppr::graph::GraphStream;
use dppr::serve::{start, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn request(addr: std::net::SocketAddr, method: &str, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "{method} {target} HTTP/1.0\r\nHost: dppr\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or(raw)
}

fn get(addr: std::net::SocketAddr, target: &str) -> String {
    request(addr, "GET", target)
}

fn main() {
    let n: u32 = match std::env::var("DPPR_EXAMPLE_N") {
        Ok(s) => s.parse().expect("DPPR_EXAMPLE_N must be a vertex count"),
        Err(_) => 2_000,
    };
    let edges = undirected_to_directed(&barabasi_albert(n, 4, 7));
    let stream = GraphStream::directed(edges).permuted(42);

    // Track the two highest-degree hubs of the warmed window (same 0.1
    // init fraction as the server below, so the probe sees the same graph).
    let sources = dppr::serve::pick_top_degree_sources(&stream, 0.1, 2);

    let handle = start(
        stream,
        0.1,
        &sources,
        ServeConfig {
            threads: 2,
            batch: 200,
            epsilon: 1e-4,
            slide_pause: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = handle.addr();
    println!("serving sessions {sources:?} at http://{addr}");

    // Live queries race the background update stream; each response
    // carries the epoch it was answered at.
    let hub = sources[0];
    println!("topk    -> {}", get(addr, &format!("/topk?source={hub}&k=3")));
    println!("score   -> {}", get(addr, &format!("/score?source={hub}&v=0")));
    println!("compare -> {}", get(addr, &format!("/compare?source={hub}&a=0&b=1")));

    // Open a session for a brand-new source mid-stream; the write loop
    // cold-starts it between batches. (Picked to not already be tracked,
    // so this genuinely exercises the cold-start path.)
    let newcomer = (0..n).find(|v| !sources.contains(v)).expect("an untracked vertex");
    request(addr, "POST", &format!("/session/open?source={newcomer}"));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = get(addr, &format!("/topk?source={newcomer}&k=3"));
        if !body.contains("error") {
            println!("opened  -> {body}");
            break;
        }
        assert!(Instant::now() < deadline, "session never opened");
        std::thread::sleep(Duration::from_millis(10));
    }

    println!("stats   -> {}", get(addr, "/stats"));
    let report = handle.join();
    println!(
        "served {} queries over {} epochs ({} slides, {:.0} updates/s under load)",
        report.queries, report.epoch, report.slides, report.updates_per_sec
    );
    assert!(report.queries >= 4);
}
