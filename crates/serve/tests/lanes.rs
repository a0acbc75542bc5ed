//! `--write-shards N` as push lanes: whatever N is, an instance has one
//! write loop, one graph, one WAL and one epoch line, and answers, epochs
//! and counters are the same as at N = 1 — N only spreads a batch's
//! per-session pushes over N lanes.

mod common;

use common::{get, request};
use dppr_graph::generators::erdos_renyi;
use dppr_graph::{GraphStream, VertexId};
use dppr_serve::{boot_probe, start, DurabilityConfig, ServeConfig, ServerHandle};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by every test here: `one_of_everything_at_any_lane_count` counts
/// the process's threads by name, so no other instance may be alive.
static ONE_INSTANCE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn the_stream() -> GraphStream {
    GraphStream::directed(erdos_renyi(200, 6_000, 21)).permuted(5)
}

/// Waits until the instance has published `epoch`. (With `max_slides: N`
/// the write loop freezes at epoch `N + 1` without marking the stream
/// done, so tests wait on the published epoch directly.)
fn wait_epoch(handle: &ServerHandle, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.epoch() < epoch {
        assert!(Instant::now() < deadline, "write loop never reached epoch {epoch}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The headline equivalence: the lanes share one graph and push disjoint
/// states, so a 4-lane instance serves *bit-identical* estimates and
/// rankings at the same epoch as a 1-lane one — checked at every epoch
/// of a four-slide run, each frozen by its own `max_slides`.
#[test]
fn four_lanes_answer_bit_identically_to_one() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sources: Vec<VertexId> = vec![0, 1, 2, 3, 4, 5, 6, 7];
    for slides in 1..=4u64 {
        let cfg = |n: usize| ServeConfig {
            threads: 2,
            batch: 400,
            epsilon: 1e-3,
            max_slides: slides as usize,
            write_shards: n,
            ..ServeConfig::default()
        };
        let one = start(the_stream(), 0.1, &sources, cfg(1)).expect("1-lane starts");
        let four = start(the_stream(), 0.1, &sources, cfg(4)).expect("4-lane starts");
        wait_epoch(&one, slides + 1);
        wait_epoch(&four, slides + 1);
        assert_eq!((one.epoch(), four.epoch()), (slides + 1, slides + 1));

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
                assert_eq!(b1, b4, "4-lane answer diverged on {target} after {slides} slides");
            }
        }
        one.join();
        four.join();
    }
}

/// `/compare_sessions` at 4 lanes: both sessions resolve in the one
/// registry at the one epoch, and the interval order comes out.
#[test]
fn compare_sessions_at_four_lanes() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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
    wait_epoch(&handle, 3);

    let (status, body) = get(addr, "/compare_sessions?a=0&b=1&v=2");
    assert_eq!(status, 200, "{body}");
    for key in [
        "\"a\":0",
        "\"b\":1",
        "\"v\":2",
        "\"epoch_a\":3",
        "\"epoch_b\":3",
        "\"estimate_a\":",
        "\"estimate_b\":",
        "\"order\":",
    ] {
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

    handle.join();
}

/// Satellite pin: the instance counters describe the instance, not a sum
/// over replicas — the same `max_slides` run reports the same slides,
/// updates and epoch at 1 and at 4 lanes.
#[test]
fn report_counts_do_not_scale_with_the_lane_count() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let run = |n: usize| {
        let handle = start(
            the_stream(),
            0.1,
            &[0, 1, 2, 3, 4, 5],
            ServeConfig {
                threads: 1,
                batch: 500,
                epsilon: 1e-3,
                max_slides: 3,
                write_shards: n,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        wait_epoch(&handle, 4);
        let r = handle.join();
        assert_eq!(r.write_shards, n);
        (r.slides, r.updates_offered, r.updates_applied, r.epoch)
    };
    let one = run(1);
    assert_eq!(one.0, 3, "max_slides counts the instance's slides");
    assert_eq!(one.3, 4);
    assert_eq!(run(4), one);
}

/// The session budget is the instance's, not a slice per lane: at 2
/// lanes and capacity 4 the registry fills to 4, then every further open
/// evicts the least recently used session — from the registry and from
/// the engine, which keeps sliding with the survivors.
#[test]
fn eviction_budget_is_instance_wide() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(
        the_stream(),
        0.1,
        &[0, 1],
        ServeConfig {
            threads: 2,
            batch: 500,
            epsilon: 1e-3,
            max_slides: 1,
            write_shards: 2,
            session_capacity: 4,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();
    // Opens are acknowledged on acceptance and applied by the write loop
    // between batches, in order: wait for the last one to land.
    for s in 10..16 {
        let (status, body) = request(addr, "POST", &format!("/session/open?source={s}"));
        assert_eq!(status, 200, "{body}");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.registry().sources().contains(&15) {
        assert!(Instant::now() < deadline, "write loop never applied the opens");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.registry().sources(), vec![12, 13, 14, 15], "the four newest survive");
    let (status, body) = get(addr, "/topk?source=0&k=3");
    assert_eq!(status, 404, "evicted session still answers: {body}");
    let (status, body) = get(addr, "/topk?source=15&k=3");
    assert_eq!(status, 200, "{body}");
    let (_, stats) = get(addr, "/stats");
    assert!(stats.contains("\"sessions\":4,"), "{stats}");
    assert!(stats.contains("\"sessions_evicted\":4,"), "{stats}");
    handle.join();
}

/// Names of this process's live threads (`None` without procfs). The
/// kernel keeps the first 15 bytes of a name.
fn thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect(),
    )
}

/// At any lane count `start` builds one of everything: one writer and one
/// checkpointer thread, and one WAL directory directly under the data
/// directory with no per-lane subdirectories.
#[test]
fn one_of_everything_at_any_lane_count() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for lanes in [1usize, 4] {
        let dir =
            std::env::temp_dir().join(format!("dppr_lanes_{}_{lanes}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let handle = start(
            the_stream(),
            0.1,
            &[0, 1, 2, 3, 4, 5],
            ServeConfig {
                threads: 2,
                batch: 500,
                epsilon: 1e-3,
                max_slides: 2,
                write_shards: lanes,
                durability: Some(DurabilityConfig::new(&dir)),
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        wait_epoch(&handle, 3);
        if let Some(names) = thread_names() {
            let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
            assert_eq!(count("dppr-serve-writ"), 1, "{lanes} lanes: {names:?}");
            assert_eq!(count("dppr-serve-ckpt"), 1, "{lanes} lanes: {names:?}");
            assert_eq!(count("dppr-observer"), 1, "{lanes} lanes: {names:?}");
            assert_eq!(count("dppr-serve-shar"), 2, "{lanes} lanes: {names:?}");
        }
        assert_eq!(handle.registry().len(), 6);
        let report = handle.join();
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .expect("data dir")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert!(entries.iter().any(|e| e == "wal"), "{entries:?}");
        assert!(entries.iter().all(|e| !e.starts_with("shard-")), "{entries:?}");
        // The directory does not remember its lane count.
        let other = ServeConfig {
            write_shards: 5 - lanes,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServeConfig::default()
        };
        let probe = boot_probe(the_stream(), 0.1, &[0, 1, 2, 3, 4, 5], &other).expect("recovers");
        assert_eq!(probe.epoch, report.epoch);
        std::fs::remove_dir_all(&dir).ok();
    }
}
