//! Pins per-connection fairness inside one event-loop shard: a client
//! that pipelines a deep burst of requests must not monopolize the
//! shard's drive loop — other connections get served between its
//! per-tick budget slices.

use dppr_serve::event::{spawn_shard, ConnCounters, Router, ShardConfig};
use dppr_serve::http::{Request, Response};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Stamps every response with a process-global service order, so the
/// test can observe cross-connection interleaving exactly.
struct SeqRouter(Arc<AtomicU64>);

impl Router for SeqRouter {
    fn route(&mut self, _req: &Request) -> Response {
        let n = self.0.fetch_add(1, Relaxed);
        Response::new(200, format!("{{\"seq\":{n}}}"))
    }
}

/// Reads one Content-Length-framed response off a keep-alive stream and
/// returns the `seq` stamp from its body.
fn read_seq(conn: &mut TcpStream) -> u64 {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = conn.read(&mut byte).expect("read header byte");
        assert!(n > 0, "EOF inside response head");
        head.push(byte[0]);
        assert!(head.len() < 4096, "unterminated response head");
    }
    let head = String::from_utf8(head).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .expect("Content-Length header")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body).expect("read body");
    let body = String::from_utf8(body).unwrap();
    let seq = body
        .strip_prefix("{\"seq\":")
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unexpected body {body}"));
    seq.parse().unwrap()
}

#[test]
fn pipelining_burst_does_not_starve_the_other_connection() {
    const BURST: usize = 256;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Client A: one deep pipelined burst, connected and written before
    // the shard even exists so the whole pipeline is buffered server-side
    // up front.
    let mut client_a = TcpStream::connect(addr).unwrap();
    let mut burst = Vec::new();
    for _ in 0..BURST {
        burst.extend_from_slice(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n");
    }
    client_a.write_all(&burst).unwrap();

    // Client B: a single request, connected second and buffered the same.
    let mut client_b = TcpStream::connect(addr).unwrap();
    client_b.write_all(b"GET /b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();

    // Let loopback delivery settle so both inputs are kernel-buffered.
    std::thread::sleep(Duration::from_millis(50));

    // Both connections wait in the listen backlog when the shard starts:
    // the kernel hands them out in connect order, so A is accepted (and
    // thus driven) first.
    let shutdown = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(ConnCounters::default());
    let seq = Arc::new(AtomicU64::new(0));
    let cfg = ShardConfig {
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
    };
    let shard = spawn_shard(
        "fairness-test".into(),
        cfg,
        listener,
        Arc::clone(&shutdown),
        Arc::clone(&counters),
        SeqRouter(Arc::clone(&seq)),
    )
    .unwrap();

    client_b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    client_a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let seq_b = read_seq(&mut client_b);
    let mut seq_a_last = 0;
    for _ in 0..BURST {
        seq_a_last = read_seq(&mut client_a);
    }

    // B was served while A's pipeline still had requests pending: the
    // budget preempted A. Without the per-tick cap, A's entire buffered
    // burst is answered before B's first request.
    assert!(
        seq_b < seq_a_last,
        "single-request client starved behind the {BURST}-deep pipeline \
         (b={seq_b}, a_last={seq_a_last})"
    );
    // And B waited at most a few budget slices, not the whole burst.
    assert!(seq_b < 64, "B should be served within a few ticks of acceptance, got seq {seq_b}");

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    shard.join();
    assert_eq!(counters.requests.load(Relaxed), BURST as u64 + 1);
}
