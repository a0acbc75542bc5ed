//! Cross-shard behaviour of `--write-shards N`: routing stability,
//! merged `/stats`, per-shard eviction budgets, and the core equivalence
//! guarantee — a sharded instance answers bit-identically to an
//! unsharded one, because every shard applies the same full update
//! stream and only the session *ownership* is partitioned.

use dppr_graph::generators::erdos_renyi;
use dppr_graph::{GraphStream, VertexId};
use dppr_serve::{shard_data_dir, shard_of, start, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

fn request(addr: SocketAddr, method: &str, target: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(conn, "{method} {target} HTTP/1.0\r\nHost: dppr\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw.split_whitespace().nth(1).expect("status").parse().expect("numeric");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    request(addr, "GET", target)
}

fn post(addr: SocketAddr, target: &str) -> (u16, String) {
    request(addr, "POST", target)
}

fn the_stream() -> GraphStream {
    GraphStream::directed(erdos_renyi(200, 6_000, 21)).permuted(5)
}

/// Waits until every write shard has published at least `epoch`. (With
/// `max_slides: N` each shard freezes at epoch `N + 1` without marking
/// the stream done, so tests wait on the published epochs directly.)
fn wait_epochs(handle: &dppr_serve::ServerHandle, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let n = handle.write_shard_count();
        if (0..n).all(|i| handle.shard_epoch(i) >= epoch) {
            return;
        }
        assert!(Instant::now() < deadline, "write loops never reached epoch {epoch}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The shard hash is a pure function of the source id: the same source
/// lands on the same shard across calls, instances, and process
/// restarts — that is what makes per-shard WAL directories replayable.
#[test]
fn shard_mapping_is_stable_and_total() {
    for n in [1usize, 2, 3, 4, 8] {
        for s in 0..500u32 {
            let w = shard_of(s, n);
            assert!(w < n.max(1));
            assert_eq!(w, shard_of(s, n), "mapping must be deterministic");
        }
    }
    // n <= 1 is the unsharded identity.
    assert_eq!(shard_of(12345, 0), 0);
    assert_eq!(shard_of(12345, 1), 0);
    // The mapping actually spreads: 500 sources over 4 shards must not
    // collapse onto fewer than 4.
    let mut hit = [false; 4];
    for s in 0..500u32 {
        hit[shard_of(s, 4)] = true;
    }
    assert!(hit.iter().all(|&h| h), "splitmix64 must populate every shard: {hit:?}");

    // Durable layout: unsharded keeps the historical root, sharded gets
    // one subdirectory per shard.
    let root = Path::new("/data/dppr");
    assert_eq!(shard_data_dir(root, 0, 1), root);
    assert_eq!(shard_data_dir(root, 2, 4), root.join("shard-2"));
}

/// Session open/close routes to the owning shard and reports it; the
/// same source re-opens onto the same shard.
#[test]
fn session_routing_is_stable_across_reopen() {
    let n = 4usize;
    let handle = start(
        the_stream(),
        0.1,
        &[0, 1, 2, 3],
        ServeConfig {
            threads: 2,
            batch: 500,
            epsilon: 1e-3,
            max_slides: 1,
            write_shards: n,
            session_capacity: 16,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    for source in [7u32, 42, 99] {
        let want = format!("\"write_shard\":{}", shard_of(source, n));
        let (status, body) = post(addr, &format!("/session/open?source={source}"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&want), "open must land on the hash-owned shard: {body}");
        let (status, body) = post(addr, &format!("/session/close?source={source}"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&want), "close must route to the same shard: {body}");
        let (status, body) = post(addr, &format!("/session/open?source={source}"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&want), "reopen must land on the same shard again: {body}");
    }
    handle.shutdown();
    handle.join();
}

/// `/stats` merges the per-shard engines into the familiar global block
/// and exposes one `write_shards` entry per shard; `/sessions` reports
/// the union.
#[test]
fn stats_and_sessions_merge_across_shards() {
    let handle = start(
        the_stream(),
        0.1,
        &[0, 1, 2, 3, 4, 5],
        ServeConfig {
            threads: 2,
            batch: 500,
            epsilon: 1e-3,
            max_slides: 2,
            write_shards: 3,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();
    wait_epochs(&handle, 3);

    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    for i in 0..3 {
        assert!(body.contains(&format!("\"shard\":{i}")), "missing shard {i} block: {body}");
    }
    // Every shard applied the whole stream, so the merged epoch equals
    // each shard's epoch and all six sessions are visible.
    assert!(body.contains("\"sessions\":6"), "{body}");
    assert!(body.contains("\"write_shards\":["), "{body}");
    assert!(body.contains("\"stale_purged\":"), "{body}");

    let (status, body) = get(addr, "/sessions");
    assert_eq!(status, 200);
    assert!(body.contains("\"sessions\":[0,1,2,3,4,5]"), "merged sorted union: {body}");

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"write_shards\":["), "{body}");
    assert!(body.contains("\"lagging\":false"), "{body}");

    handle.shutdown();
    handle.join();
}

/// Session capacity is a per-shard budget: filling shard A far past its
/// slice evicts only within A — sessions owned by other shards survive
/// untouched.
#[test]
fn eviction_budgets_are_per_shard() {
    let n = 2usize;
    // Pick seeds per shard so we control exactly where pressure lands.
    let mut by_shard: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for s in 0..200u32 {
        by_shard[shard_of(s, n)].push(s);
    }
    let survivor = by_shard[1][0];
    let crowd: Vec<VertexId> = by_shard[0].iter().copied().take(8).collect();

    // capacity 4 over 2 shards → 2 per shard (div_ceil), floored at each
    // shard's bootstrap source count (1 here).
    let handle = start(
        the_stream(),
        0.1,
        &[crowd[0], survivor],
        ServeConfig {
            threads: 2,
            batch: 500,
            epsilon: 1e-3,
            max_slides: 1,
            write_shards: n,
            session_capacity: 4,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Crowd shard 0 with six more opens than its budget of 2. Opens are
    // acknowledged on acceptance and applied by the write loop between
    // batches, so wait for the last one to land before inspecting.
    for s in &crowd[1..7] {
        let (status, body) = post(addr, &format!("/session/open?source={s}"));
        assert_eq!(status, 200, "{body}");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.shard_registry(0).sources().contains(&crowd[6]) {
        assert!(Instant::now() < deadline, "write loop never applied the opens");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (_, body) = get(addr, "/sessions");
    // The first shard-0 session was the LRU victim of the crowd.
    assert!(
        !handle.shard_registry(0).sources().contains(&crowd[0]),
        "LRU session must have been evicted under per-shard pressure: {body}"
    );
    // Shard 1 was never pressured: its lone session is still there.
    assert!(
        handle.shard_registry(1).sources().contains(&survivor),
        "shard 1 session evicted by shard 0 pressure: {body}"
    );
    assert_eq!(handle.shard_registry(1).len(), 1, "{body}");
    // Shard 0 stayed within its own slice of the budget.
    assert!(handle.shard_registry(0).len() <= 2, "{body}");

    handle.shutdown();
    handle.join();
}

/// The headline equivalence: because every shard applies the identical
/// update stream to its own graph replica, a 4-shard instance serves
/// *bit-identical* estimates, rankings, and epochs to a 1-shard one.
#[test]
fn four_shards_answer_bit_identically_to_one() {
    let sources: Vec<VertexId> = vec![0, 1, 2, 3, 4, 5, 6, 7];
    let cfg = |n: usize| ServeConfig {
        threads: 2,
        batch: 400,
        epsilon: 1e-3,
        max_slides: 4,
        write_shards: n,
        ..ServeConfig::default()
    };
    let one = start(the_stream(), 0.1, &sources, cfg(1)).expect("1-shard starts");
    let four = start(the_stream(), 0.1, &sources, cfg(4)).expect("4-shard starts");
    wait_epochs(&one, 5);
    wait_epochs(&four, 5);

    for s in &sources {
        for target in [
            format!("/topk?source={s}&k=10"),
            format!("/score?source={s}&v=1"),
            format!("/score?source={s}&v=17"),
            format!("/threshold?source={s}&delta=0.001"),
            format!("/compare?source={s}&a=1&b=2"),
        ] {
            let (st1, b1) = get(one.addr(), &target);
            let (st4, b4) = get(four.addr(), &target);
            assert_eq!(st1, 200, "{target}: {b1}");
            assert_eq!(st4, 200, "{target}: {b4}");
            assert_eq!(b1, b4, "sharded answer diverged on {target}");
        }
    }

    one.shutdown();
    four.shutdown();
    one.join();
    four.join();
}

/// `/compare_sessions` crosses shard boundaries: both sources resolve on
/// their own shards and the interval order comes out of the merged view.
#[test]
fn compare_sessions_crosses_shards() {
    let handle = start(
        the_stream(),
        0.1,
        &[0, 1, 2, 3],
        ServeConfig {
            threads: 2,
            batch: 500,
            epsilon: 1e-3,
            max_slides: 2,
            write_shards: 4,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();
    wait_epochs(&handle, 3);

    let (status, body) = get(addr, "/compare_sessions?a=0&b=1&v=2");
    assert_eq!(status, 200, "{body}");
    for key in ["\"a\":0", "\"b\":1", "\"v\":2", "\"estimate_a\":", "\"estimate_b\":", "\"order\":"] {
        assert!(body.contains(key), "missing {key}: {body}");
    }
    // A source crossed with itself is never decidable in either strict
    // direction — the intervals coincide.
    let (status, body) = get(addr, "/compare_sessions?a=3&b=3&v=5");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"order\":\"undecidable\""), "{body}");

    // Unknown sessions 404.
    let (status, _) = get(addr, "/compare_sessions?a=0&b=999999&v=2");
    assert_eq!(status, 404);

    handle.shutdown();
    handle.join();
}
