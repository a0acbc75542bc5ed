//! Golden pins of every endpoint's wire shape, at 1 and 4 push lanes.
//!
//! A deterministic instance (fixed graph seed, `max_slides` so the epoch
//! freezes, auditing + SLOs + durability on) is driven through a fixed
//! request script and the transcript is compared with the one golden
//! `tests/golden/ws1.txt` — `write_shards` changes nothing on the wire
//! but `ServeReport.write_shards`, which is masked:
//!
//! * query endpoints and error bodies byte for byte;
//! * `/stats`, `/healthz`, `/series` byte for byte after masking the
//!   values that are clocks, `/proc` reads, or tick/poll counts — masked
//!   by key path, so key order, nesting and value types stay pinned;
//! * `/metrics` as the sorted set of `# HELP` lines, `# TYPE` lines and
//!   series identifiers (name + labels, bucket bounds dropped): family
//!   *order* is free, nothing else is.
//!
//! Regenerate after an intended wire change with
//! `DPPR_BLESS=1 cargo test -p dppr-serve --test golden_endpoints`.

mod common;

use common::request;
use dppr_graph::generators::erdos_renyi;
use dppr_graph::{GraphStream, VertexId};
use dppr_serve::{start, DurabilityConfig, FsyncPolicy, ServeConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

const SOURCES: [VertexId; 6] = [0, 1, 2, 3, 5, 8];
const SLIDES: u64 = 3;
/// Opened and closed again over HTTP after the query pins.
const NEWCOMER: VertexId = 13;

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// --- JSON masking -----------------------------------------------------------

/// Re-emits `src` verbatim except at the key paths in `masked`
/// (`a.b`, arrays as `a[].b`), where the value is replaced by a
/// placeholder naming its JSON type. Panics on a mask path that matched
/// nothing, so a renamed key cannot silently unmask itself.
fn mask_json(src: &str, masked: &[&str]) -> String {
    let mut m = Masker {
        src: src.as_bytes(),
        pos: 0,
        path: Vec::new(),
        masked,
        hit: BTreeSet::new(),
    };
    let mut out = String::new();
    m.value(&mut out);
    assert_eq!(m.pos, src.len(), "trailing bytes after JSON value in {src}");
    for path in masked {
        assert!(
            m.hit.contains(*path),
            "mask path {path:?} matched nothing in {src}"
        );
    }
    out
}

struct Masker<'a> {
    src: &'a [u8],
    pos: usize,
    path: Vec<String>,
    masked: &'a [&'a str],
    hit: BTreeSet<String>,
}

impl Masker<'_> {
    fn path(&self) -> String {
        let mut p = String::new();
        for seg in &self.path {
            if seg != "[]" && !p.is_empty() {
                p.push('.');
            }
            p.push_str(seg);
        }
        p
    }

    /// Copies one string token (quotes included) and returns its raw text.
    fn string(&mut self, out: &mut String) -> String {
        let start = self.pos;
        assert_eq!(self.src[self.pos], b'"');
        self.pos += 1;
        while self.src[self.pos] != b'"' {
            if self.src[self.pos] == b'\\' {
                self.pos += 1;
            }
            self.pos += 1;
        }
        self.pos += 1;
        let tok = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        out.push_str(tok);
        tok[1..tok.len() - 1].to_string()
    }

    fn value(&mut self, out: &mut String) {
        let path = self.path();
        if self.masked.contains(&path.as_str()) {
            let mut skipped = String::new();
            self.raw_value(&mut skipped);
            let kind = match skipped.as_bytes()[0] {
                b'{' => "obj",
                b'[' => "arr",
                b'"' => "str",
                b't' | b'f' => "bool",
                b'n' => "null",
                _ => "num",
            };
            write!(out, "\"<{kind}>\"").unwrap();
            self.hit.insert(path);
        } else {
            self.raw_value(out);
        }
    }

    fn raw_value(&mut self, out: &mut String) {
        match self.src[self.pos] {
            b'{' => {
                self.container(out, b'}', |m, out| {
                    let key = m.string(out);
                    assert_eq!(m.src[m.pos], b':');
                    m.pos += 1;
                    out.push(':');
                    m.path.push(key);
                });
            }
            b'[' => self.container(out, b']', |m, _| m.path.push("[]".into())),
            b'"' => {
                self.string(out);
            }
            _ => {
                let start = self.pos;
                while !matches!(self.src.get(self.pos), None | Some(b',' | b'}' | b']')) {
                    self.pos += 1;
                }
                out.push_str(std::str::from_utf8(&self.src[start..self.pos]).unwrap());
            }
        }
    }

    /// Walks `{…}` or `[…]`; `enter` consumes the per-element prefix (an
    /// object key) and pushes the element's path segment.
    fn container(&mut self, out: &mut String, close: u8, enter: impl Fn(&mut Self, &mut String)) {
        out.push(self.src[self.pos] as char);
        self.pos += 1;
        while self.src[self.pos] != close {
            if self.src[self.pos] == b',' {
                out.push(',');
                self.pos += 1;
            }
            enter(self, out);
            self.value(out);
            self.path.pop();
        }
        out.push(close as char);
        self.pos += 1;
    }
}

// --- /metrics normalisation -------------------------------------------------

/// The exposition as a sorted set: `# HELP`/`# TYPE` lines verbatim,
/// sample lines reduced to `name{labels}` with the `le` bound (which
/// depends on which latency buckets happened to fill) reduced to `le`.
fn metrics_identity(text: &str) -> String {
    let mut set = BTreeSet::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            set.insert(line.to_string());
            continue;
        }
        let (id, _value) = line.rsplit_once(' ').expect("sample line has a value");
        let id = match id.find("le=\"") {
            Some(at) => {
                let end = at + 4 + id[at + 4..].find('"').expect("closing quote") + 1;
                format!("{}le{}", &id[..at], &id[end..])
            }
            None => id.to_string(),
        };
        set.insert(id);
    }
    set.into_iter().collect::<Vec<_>>().join("\n")
}

/// Series the CI workflow used to grep out of `BENCH_{8,9,10}_METRICS.prom`;
/// the golden set pins them all, this list keeps that visible.
const CI_SERIES: [&str; 15] = [
    "dppr_http_request_seconds_bucket{le}",
    "dppr_slide_apply_seconds_bucket{le}",
    "dppr_push_wall_seconds_bucket{le}",
    "dppr_wal_fsync_seconds_count",
    "dppr_checkpoint_seconds_count",
    "dppr_shard_connections{shard=\"0\"}",
    "dppr_audit_l1_error_count",
    "dppr_audit_topk_overlap_bucket{k=\"10\",le}",
    "dppr_audit_topk_overlap_bucket{k=\"50\",le}",
    "dppr_audit_bound_violations_total",
    "dppr_slo_burn_rate{slo=\"latency_p99\",window=\"fast\"}",
    "dppr_slo_breach_total{slo=\"latency_p99\"}",
    "dppr_metrics_scrape_seconds_count",
    "dppr_metrics_families",
    "dppr_process_rss_bytes",
];

// --- masks ------------------------------------------------------------------

const STATS_MASK: [&str; 37] = [
    "updates_per_sec",
    "http.connections",
    "http.requests",
    "shards[].connections",
    "shards[].queue_depth",
    "timings.http_request.count",
    "timings.http_request.p50_s",
    "timings.http_request.p99_s",
    "timings.slide_apply.p50_s",
    "timings.slide_apply.p99_s",
    "timings.push_wall.p50_s",
    "timings.push_wall.p99_s",
    "timings.snapshot_publish.p50_s",
    "timings.snapshot_publish.p99_s",
    "timings.wal_append.p50_s",
    "timings.wal_append.p99_s",
    "timings.wal_fsync.p50_s",
    "timings.wal_fsync.p99_s",
    "timings.checkpoint.p50_s",
    "timings.checkpoint.p99_s",
    "audit.runs",
    "audit.sessions_audited",
    "audit.cpu_seconds",
    "audit.last_epoch",
    "audit.staleness_epochs",
    "audit.last_l1_error",
    "audit.last_linf_error",
    "audit.max_linf_error",
    "audit.last_topk_overlap_10",
    "audit.last_topk_overlap_50",
    "audit.last_invariant_residual",
    "slos[].burn_fast",
    "slos[].burn_slow",
    "process.rss_bytes",
    "process.open_fds",
    "process.threads",
    "series.samples",
];

const HEALTHZ_MASK: [&str; 3] = [
    "slos[].burn_fast",
    "slos[].burn_slow",
    "last_fsync_age_seconds",
];

/// `/series?name=…` windows: the point list and its folds depend on how
/// many ticks ran; `last` is pinned for the columns that freeze.
const WINDOW_MASK: [&str; 5] = ["points", "min", "max", "avg", "rate_per_sec"];

// --- the script -------------------------------------------------------------

struct Transcript {
    addr: SocketAddr,
    text: String,
}

impl Transcript {
    fn raw(&mut self, title: &str, status: u16, body: &str) {
        writeln!(self.text, "### {title}\n{status}\n{body}\n").unwrap();
    }

    fn exact(&mut self, method: &str, target: &str) {
        let (status, body) = request(self.addr, method, target);
        self.raw(&format!("{method} {target}"), status, &body);
    }

    fn masked(&mut self, target: &str, mask: &[&str]) {
        let (status, body) = request(self.addr, "GET", target);
        self.raw(
            &format!("GET {target} (masked)"),
            status,
            &mask_json(&body, mask),
        );
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ws1.txt")
}

fn run(write_shards: usize) {
    let dir = std::env::temp_dir().join(format!(
        "dppr_serve_golden_{}_ws{write_shards}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut durability = DurabilityConfig::new(&dir);
    durability.fsync = FsyncPolicy::PerBatch;
    durability.checkpoint_every_slides = 2;
    let stream = GraphStream::directed(erdos_renyi(200, 4_000, 41)).permuted(7);
    let handle = start(
        stream,
        0.1,
        &SOURCES,
        ServeConfig {
            threads: 1,
            batch: 300,
            epsilon: 1e-3,
            max_slides: SLIDES as usize,
            write_shards,
            durability: Some(durability),
            audit_sample: 2,
            audit_interval: Duration::from_millis(20),
            // Targets no run can breach: the SLO families and blocks
            // render, nothing sheds, health stays green.
            slo_p99: Duration::from_secs(30),
            slo_availability: 0.5,
            slo_topk_overlap: 0.05,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Freeze: the write loop slid SLIDES times, the slide-2 checkpoint is
    // durable and acknowledged in the WAL (boot marker + 3 batches + 1
    // marker), and the series ring sampled the frozen state.
    wait_for("slides", || handle.stats().slides.load(Relaxed) == SLIDES);
    wait_for("checkpoint ack", || {
        let (_, stats) = request(addr, "GET", "/stats");
        stats.contains("\"checkpoints\":2,")
            && stats.contains("\"wal_records\":5,\"wal_segments\":1,")
    });
    wait_for("series tick", || {
        let (_, w) = request(addr, "GET", "/series?name=slides_total&window=600");
        w.contains(&format!("\"last\":{SLIDES},"))
    });

    let mut t = Transcript {
        addr,
        text: String::new(),
    };
    // --- query endpoints, byte for byte ----------------------------------
    t.exact("GET", "/topk?source=0&k=5");
    t.exact("GET", "/topk?source=0&k=5"); // cache hit: same bytes
    t.exact("GET", "/topk?source=8");
    t.exact("GET", "/score?source=1&v=7");
    t.exact("GET", "/threshold?source=2&delta=0.01");
    t.exact("GET", "/compare?source=3&a=1&b=2");
    t.exact("GET", "/compare?source=3&a=2&b=2");
    t.exact("GET", "/compare_sessions?a=0&b=5&v=3");
    t.exact("GET", "/sessions");
    // --- 400s and 404s ----------------------------------------------------
    t.exact("GET", "/topk");
    t.exact("GET", "/topk?source=abc");
    t.exact("GET", "/topk?source=0&k=-1");
    t.exact("GET", "/score?source=0");
    t.exact("GET", "/threshold?source=0&delta=nan");
    t.exact("GET", "/compare?source=0&a=1");
    t.exact("GET", "/compare_sessions?a=0&b=5");
    t.exact("GET", "/trace?kind=bogus");
    t.exact("GET", "/series?name=epoch&window=inf");
    t.exact("POST", "/session/open?source=4000000000");
    t.exact("POST", "/session/close");
    t.exact("GET", "/topk?source=199");
    t.exact("GET", "/compare_sessions?a=0&b=199&v=1");
    t.exact("GET", "/series?name=bogus");
    t.exact("GET", "/nope");
    t.exact("GET", "/");
    // --- session control --------------------------------------------------
    t.exact("POST", &format!("/session/open?source={NEWCOMER}"));
    wait_for("open", || handle.stats().sessions_opened.load(Relaxed) == 1);
    t.exact("GET", "/sessions");
    t.exact("GET", &format!("/score?source={NEWCOMER}&v={NEWCOMER}"));
    t.exact("POST", &format!("/session/close?source={NEWCOMER}"));
    wait_for("close", || {
        handle.stats().sessions_closed.load(Relaxed) == 1
    });
    // --- telemetry --------------------------------------------------------
    t.masked("/series", &["samples"]);
    for name in [
        "slides_total",
        "epoch",
        "sessions",
        "queries_total",
        "shed_total",
    ] {
        // `sessions` and `queries_total` moved during the script: wait
        // for a tick that saw the final value before pinning `last`.
        let target = format!("/series?name={name}&window=600");
        let mut prev = String::new();
        wait_for("settled series", || {
            std::thread::sleep(Duration::from_millis(50));
            let (_, body) = request(addr, "GET", &target);
            let cur = mask_json(&body, &WINDOW_MASK);
            std::mem::replace(&mut prev, cur.clone()) == cur
        });
        t.masked(&target, &WINDOW_MASK);
    }
    t.masked("/stats", &STATS_MASK);
    t.masked("/healthz", &HEALTHZ_MASK);
    let (status, metrics) = request(addr, "GET", "/metrics");
    let identity = metrics_identity(&metrics);
    for series in CI_SERIES {
        assert!(
            identity.lines().any(|l| l == series),
            "missing {series} in /metrics"
        );
    }
    t.raw("GET /metrics (identity set)", status, &identity);
    // --- shutdown ---------------------------------------------------------
    t.exact("POST", "/shutdown");
    let r = handle.join();
    writeln!(
        t.text,
        "### ServeReport\nepoch={} slides={} updates_offered={} updates_applied={} queries={} \
         shed={} cache={:?} sessions={} stream_done={} degraded={} durable_epoch={} \
         checkpoints={} write_shards=<num>",
        r.epoch,
        r.slides,
        r.updates_offered,
        r.updates_applied,
        r.queries,
        r.shed,
        r.cache,
        r.sessions,
        r.stream_done,
        r.degraded,
        r.durable_epoch,
        r.checkpoints
    )
    .unwrap();
    assert_eq!(r.write_shards, write_shards);
    std::fs::remove_dir_all(&dir).ok();

    let path = golden_path();
    if std::env::var_os("DPPR_BLESS").is_some() {
        // The 1-lane run writes the golden; run again without the
        // variable to hold both lane counts against it.
        if write_shards == 1 {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &t.text).unwrap();
        }
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with DPPR_BLESS=1 to create)", path.display()));
    if let Some((i, (got, want))) = t
        .text
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "{} line {}:\n  got  {got}\n  want {want}",
            path.display(),
            i + 1
        );
    }
    assert_eq!(
        t.text.lines().count(),
        want.lines().count(),
        "{}: length differs",
        path.display()
    );
}

#[test]
fn golden_unsharded() {
    run(1);
}

#[test]
fn golden_four_write_shards() {
    run(4);
}

#[test]
fn masker_keeps_shape_and_names_types() {
    let src = r#"{"a":1.5,"b":{"c":[{"d":"x,]}","e":null},{"d":"y","e":2}],"f":true},"g":[1,2]}"#;
    assert_eq!(
        mask_json(src, &["b.c[].d"]).replace("\"<str>\"", "\"x,]}\""),
        src.replace("\"y\"", "\"x,]}\"")
    );
    assert_eq!(
        mask_json(src, &["a", "b.c[].e", "b.f", "g"]),
        r#"{"a":"<num>","b":{"c":[{"d":"x,]}","e":"<null>"},{"d":"y","e":"<num>"}],"f":"<bool>"},"g":"<arr>"}"#
    );
}
