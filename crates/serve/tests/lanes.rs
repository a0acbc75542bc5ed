//! Sessions over every core: an instance has one write loop, one graph,
//! one WAL and one epoch line, and that loop spreads a batch's
//! per-session pushes over `min(cores, sessions)` lanes, each push on
//! `cores / lanes` threads. With at least as many sessions as cores every
//! push is the one-thread schedule, so what the instance publishes is
//! bit-identical to a one-thread replay on any host.

mod common;

use common::{get, request};
use dppr_core::invariant::restore_invariant_with_degree;
use dppr_core::par::{parallel_local_push_opts, ParPushBuffers};
use dppr_core::{Counters, PprConfig, PprState, PushOpts, PushVariant};
use dppr_graph::generators::erdos_renyi;
use dppr_graph::{GraphStream, VertexId};
use dppr_serve::{
    boot_probe, start, DurabilityConfig, QuerySnapshot, Reader, ServeConfig, ServerHandle,
};
use dppr_stream::StreamDriver;
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

/// The write loop replayed by hand on one thread: the initial window,
/// then `batch`-edge slides, each session repaired and pushed on its own
/// with a one-thread push. `replay[e - 1]` holds, per source, the
/// fingerprint of the snapshot the instance must publish at epoch `e`.
fn one_thread_replay(sources: &[VertexId], cfg: &ServeConfig, epochs: u64) -> Vec<Vec<u64>> {
    let counters = Counters::new();
    let mut sessions: Vec<(PprState, ParPushBuffers)> = sources
        .iter()
        .map(|&s| (PprState::new(PprConfig::new(s, cfg.alpha, cfg.epsilon)), ParPushBuffers::new()))
        .collect();
    let mut driver = StreamDriver::new(the_stream(), 0.1);
    let mut batch = driver.take_initial_batch();
    let mut replay = Vec::new();
    for epoch in 1..=epochs {
        let g = driver.graph_mut();
        let mut applied = Vec::new();
        for &upd in &batch {
            if g.apply(upd) {
                applied.push((upd, g.out_degree(upd.src)));
            }
        }
        let seeds: Vec<VertexId> = applied.iter().map(|(upd, _)| upd.src).collect();
        let fps = sessions
            .iter_mut()
            .map(|(state, bufs)| {
                state.ensure_len(g.num_vertices());
                for &(upd, d) in &applied {
                    restore_invariant_with_degree(state, upd.src, upd.dst, upd.op, d);
                }
                let (opts, variant) = (PushOpts::default(), PushVariant::OPT);
                parallel_local_push_opts(g, state, variant, &seeds, &counters, bufs, opts, 1);
                QuerySnapshot::from_state(state, epoch).fingerprint()
            })
            .collect();
        replay.push(fps);
        batch = driver.slide_batch(cfg.batch).expect("the stream outlasts the test");
    }
    replay
}

/// The headline contract: every push of eight sessions over a 200-vertex
/// graph is the one-thread schedule — one thread per push wherever the
/// sessions fill the cores, frontiers below the fan-out threshold
/// elsewhere — so at every epoch of a four-slide run, each frozen by its
/// own `max_slides`, every published snapshot is bit-identical to the
/// one-thread replay's.
#[test]
fn answers_match_a_one_thread_replay() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sources: Vec<VertexId> = vec![0, 1, 2, 3, 4, 5, 6, 7];
    let cfg = |slides: u64| ServeConfig {
        threads: 2,
        batch: 400,
        epsilon: 1e-3,
        max_slides: slides as usize,
        ..ServeConfig::default()
    };
    let replay = one_thread_replay(&sources, &cfg(0), 5);
    for epoch in 2..=5u64 {
        let handle = start(the_stream(), 0.1, &sources, cfg(epoch - 1)).expect("server starts");
        wait_epoch(&handle, epoch);
        assert_eq!(handle.epoch(), epoch);
        for (k, &s) in sources.iter().enumerate() {
            // The epoch advances before the snapshots publish.
            let entry = handle.registry().peek(s).expect("session is open");
            let deadline = Instant::now() + Duration::from_secs(60);
            let snap = loop {
                let snap = entry.load(&Reader);
                if snap.epoch() == epoch {
                    break snap;
                }
                assert!(Instant::now() < deadline, "source {s} never published epoch {epoch}");
                std::thread::sleep(Duration::from_millis(1));
            };
            let want = replay[epoch as usize - 1][k];
            assert_eq!(snap.fingerprint(), want, "source {s} at epoch {epoch}");
        }
        handle.join();
    }
}

/// `/compare_sessions` over four sessions (four lanes on a host of four
/// or more cores): both sessions resolve in the one registry at the one
/// epoch, and the interval order comes out.
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

/// The instance counters describe the instance, not a sum over lanes:
/// a `max_slides: 3` run over six sessions reports three slides, epoch 4,
/// and exactly the updates the stream offered in those slides.
#[test]
fn report_counts_do_not_scale_with_the_lane_count() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(
        the_stream(),
        0.1,
        &[0, 1, 2, 3, 4, 5],
        ServeConfig {
            threads: 1,
            batch: 500,
            epsilon: 1e-3,
            max_slides: 3,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    wait_epoch(&handle, 4);
    let r = handle.join();
    assert_eq!((r.slides, r.epoch), (3, 4), "max_slides counts the instance's slides");
    let mut driver = StreamDriver::new(the_stream(), 0.1);
    let mut offered = driver.take_initial_batch().len();
    for _ in 0..3 {
        offered += driver.slide_batch(500).expect("three slides").len();
    }
    assert_eq!(r.updates_offered, offered as u64);
}

/// The session budget is the instance's, not a slice per lane: at
/// capacity 4 the registry fills to 4, then every further open
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

/// Whatever the lane count, `start` builds one of everything: one
/// writer, one checkpointer and one observer thread next to the `threads`
/// event-loop shards and no other `dppr-` thread (the lanes are scoped
/// threads of the write loop, named by nobody), and one WAL directory
/// directly under the data directory with no per-lane subdirectories.
#[test]
fn one_of_everything_at_any_lane_count() {
    let _one = ONE_INSTANCE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("dppr_lanes_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sources = [0, 1, 2, 3, 4, 5];
    let durable = || ServeConfig {
        threads: 2,
        batch: 500,
        epsilon: 1e-3,
        max_slides: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServeConfig::default()
    };
    let handle = start(the_stream(), 0.1, &sources, durable()).expect("server starts");
    wait_epoch(&handle, 3);
    if let Some(names) = thread_names() {
        let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        assert_eq!(count("dppr-serve-writ"), 1, "{names:?}");
        assert_eq!(count("dppr-serve-ckpt"), 1, "{names:?}");
        assert_eq!(count("dppr-observer"), 1, "{names:?}");
        assert_eq!(count("dppr-serve-shar"), 2, "{names:?}");
        // Nothing else: the shards accept their own connections.
        assert_eq!(count("dppr-"), 5, "{names:?}");
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
    let probe = boot_probe(the_stream(), 0.1, &sources, &durable()).expect("recovers");
    assert_eq!(probe.epoch, report.epoch);
    std::fs::remove_dir_all(&dir).ok();
}
