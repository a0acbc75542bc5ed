//! Subcommand implementations. All return the text to print.

use crate::args::{err, Args, CliError};
use dppr_core::{
    exact_ppr, queries, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant, SeqEngine,
    UpdateMode,
};
use dppr_graph::{generators, io, presets, DynamicGraph, GraphStream, SlidingWindow, VertexId};
use dppr_mc::MonteCarloEngine;
use dppr_stream::{pick_top_degree_source, StreamDriver};
use dppr_vc::LigraEngine;
use std::fmt::Write as _;

/// `dppr generate` — write a synthetic edge list.
pub fn generate(args: &Args) -> Result<String, CliError> {
    let model = args.get_or("model", "ba");
    let n: u32 = args.get_parsed("n", 10_000u32)?;
    let m: usize = args.get_parsed("m", 5usize)?;
    let seed: u64 = args.get_parsed("seed", 1u64)?;
    let out = args.require("out")?;
    args.reject_unknown()?;
    let (edges, desc) = match model {
        "ba" => (
            generators::undirected_to_directed(&generators::barabasi_albert(n, m, seed)),
            format!("barabasi-albert n={n} m={m} seed={seed} (directed arcs)"),
        ),
        "er" => {
            (generators::erdos_renyi(n, m, seed), format!("erdos-renyi n={n} m={m} seed={seed}"))
        }
        "rmat" => {
            let scale = (32 - n.next_power_of_two().leading_zeros() - 1).max(1);
            (
                generators::rmat(scale, m, generators::RmatParams::default(), seed),
                format!("rmat scale={scale} m={m} seed={seed}"),
            )
        }
        other => return Err(err(format!("unknown model {other:?} (ba|er|rmat)"))),
    };
    io::write_edge_list(out, &edges, &desc).map_err(|e| err(format!("writing {out}: {e}")))?;
    Ok(format!("wrote {} arcs to {out} ({desc})\n", edges.len()))
}

/// Loads the graph source every graph-reading subcommand shares, as an
/// unpermuted stream (undirected when the preset is, or with
/// `--undirected`), with its display name. `info`, `query` and `exact`
/// read it as one window over the whole stream, so `SlidingWindow` stays
/// the one owner of the undirected expansion and yields the arcs in
/// stream order.
fn load_edges(args: &Args) -> Result<(GraphStream, String), CliError> {
    // All three are looked up whichever one decides: a lookup is what
    // makes an option known to `Args::reject_unknown`.
    let (preset, graph, undirected) =
        (args.get("preset"), args.get("graph"), args.flag("undirected"));
    let (edges, undirected, name) = if let Some(name) = preset {
        let ds = presets::by_name(name).ok_or_else(|| err(format!("unknown preset {name:?}")))?;
        (ds.edges, ds.undirected, name)
    } else if let Some(path) = graph {
        let edges = io::read_edge_list(path).map_err(|e| err(format!("reading {path}: {e}")))?;
        (edges, undirected, path)
    } else {
        return Err(err("need --preset NAME or --graph FILE"));
    };
    let stream =
        if undirected { GraphStream::undirected(edges) } else { GraphStream::directed(edges) };
    Ok((stream, name.to_string()))
}

/// `dppr info` — graph statistics including degree-distribution shape.
pub fn info(args: &Args) -> Result<String, CliError> {
    let (stream, name) = load_edges(args)?;
    args.reject_unknown()?;
    let g = SlidingWindow::new(stream, 1.0).to_graph();
    let mut out = String::new();
    writeln!(out, "graph\t{name}").unwrap();
    writeln!(out, "active_vertices\t{}", g.active_vertices()).unwrap();
    let ss = g.substrate_stats();
    writeln!(
        out,
        "pool_slots\t{} (live {}, dead {})",
        ss.arena_slots, ss.live_slots, ss.dead_slots
    )
    .unwrap();
    write!(out, "{}", dppr_graph::stats::degree_stats(&g)).unwrap();
    Ok(out)
}

/// `--alpha`, refused unless it lies in (0, 1): the range
/// `PprConfig::new` asserts, checked here so a bad value is an error that
/// names the option rather than a panic.
fn get_alpha(args: &Args) -> Result<f64, CliError> {
    let alpha = args.get_finite("alpha", 0.15)?;
    if alpha > 0.0 && alpha < 1.0 {
        Ok(alpha)
    } else {
        Err(err(format!("--alpha must lie in (0, 1), got {alpha}")))
    }
}

/// `--epsilon`, refused unless it is above 0 (`PprConfig::new`'s other
/// assert).
fn get_epsilon(args: &Args, default: f64) -> Result<f64, CliError> {
    let epsilon = args.get_finite("epsilon", default)?;
    if epsilon > 0.0 {
        Ok(epsilon)
    } else {
        Err(err(format!("--epsilon must be above 0, got {epsilon}")))
    }
}

/// `--source`, refused unless it is a vertex id below the vertex bound of
/// `stream`: a PPR state holds `source + 1` rows, so an id past the graph
/// would size the state by the id rather than by the graph.
fn check_source(source: VertexId, stream: &GraphStream) -> Result<VertexId, CliError> {
    let bound = stream.vertex_bound();
    if (source as usize) < bound {
        Ok(source)
    } else {
        Err(err(format!("--source must be a vertex id below {bound}, got {source}")))
    }
}

fn parse_variant(raw: &str) -> Result<PushVariant, CliError> {
    match raw.to_ascii_lowercase().as_str() {
        "opt" => Ok(PushVariant::OPT),
        "eager" => Ok(PushVariant::EAGER),
        "dupdetect" | "dup-detect" => Ok(PushVariant::DUP_DETECT),
        "vanilla" => Ok(PushVariant::VANILLA),
        other => Err(err(format!("unknown variant {other:?}"))),
    }
}

/// `dppr run` — sliding-window streaming through a chosen engine.
pub fn run(args: &Args) -> Result<String, CliError> {
    let (stream, name) = load_edges(args)?;
    let seed: u64 = args.get_parsed("seed", 1u64)?;
    let alpha = get_alpha(args)?;
    let epsilon = get_epsilon(args, 1e-5)?;
    let batch: usize = args.get_parsed("batch", 1_000usize)?;
    let slides: usize = args.get_parsed("slides", 10usize)?;
    let explicit_source: Option<VertexId> = args
        .get("source")
        .map(|raw| raw.parse().map_err(|_| err(format!("bad --source {raw:?}"))))
        .transpose()?
        .map(|source| check_source(source, &stream))
        .transpose()?;
    let bucket: usize = args.get_parsed("top-bucket", 1_000usize)?;
    let engine_name = args.get_or("engine", "cpu-mt");
    let variant = parse_variant(args.get_or("variant", "opt"))?;
    let threads: usize = args.get_parsed("threads", 0usize)?;
    let wpv: usize = args.get_parsed("walks-per-vertex", 6usize)?;
    let counters = args.flag("counters");
    let top: usize = args.get_parsed("top", 10usize)?;
    args.reject_unknown()?;
    let stream = stream.permuted(seed);

    // Source: explicit id, or drawn from a top-degree bucket of the warmed
    // window (the paper's methodology).
    let source: VertexId = if let Some(source) = explicit_source {
        source
    } else {
        let probe = SlidingWindow::new(stream.clone(), 0.1).to_graph();
        pick_top_degree_source(&probe, bucket, seed ^ 0xABCD)
    };
    let cfg = PprConfig::new(source, alpha, epsilon);

    let mut engine: Box<dyn DynamicPprEngine> = match engine_name {
        "cpu-base" => Box::new(SeqEngine::new(cfg, UpdateMode::PerUpdate)),
        "cpu-seq" => Box::new(SeqEngine::new(cfg, UpdateMode::Batched)),
        "cpu-mt" => {
            if threads > 0 {
                Box::new(ParallelEngine::with_threads(cfg, variant, threads))
            } else {
                Box::new(ParallelEngine::new(cfg, variant))
            }
        }
        "ligra" => Box::new(LigraEngine::new(cfg)),
        "mc" => {
            let n = stream.vertex_bound();
            Box::new(MonteCarloEngine::new(cfg, (wpv * n).max(1_000), seed))
        }
        other => return Err(err(format!("unknown engine {other:?}"))),
    };

    let mut driver = StreamDriver::new(stream, 0.1);
    let boot = driver.bootstrap(engine.as_mut());
    let summary = driver.run_slides(engine.as_mut(), batch, slides);

    let mut out = String::new();
    writeln!(out, "graph\t{name}\nengine\t{}", engine.name()).unwrap();
    writeln!(out, "source\t{source}\nalpha\t{alpha}\nepsilon\t{epsilon:e}").unwrap();
    writeln!(
        out,
        "bootstrap_arcs\t{}\nbootstrap_ms\t{:.2}",
        boot.applied,
        boot.latency.as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(
        out,
        "slides\t{}\nbatch\t{batch}\nmean_slide_ms\t{:.3}\nmax_slide_ms\t{:.3}\nupdates_per_sec\t{:.0}",
        summary.slides,
        summary.mean_latency().as_secs_f64() * 1e3,
        summary.max_latency().as_secs_f64() * 1e3,
        summary.throughput(),
    )
    .unwrap();
    if counters {
        writeln!(out, "counters\t{}", summary.total_counters()).unwrap();
    }
    writeln!(out, "top_{top}_by_ppr").unwrap();
    let scores = engine.estimates();
    for (v, p) in queries::top_k_of(&scores, top) {
        writeln!(out, "  {v}\t{p:.8}").unwrap();
    }
    Ok(out)
}

/// `dppr query` — maintain over the whole graph, then answer ε-aware
/// queries.
pub fn query(args: &Args) -> Result<String, CliError> {
    let (stream, name) = load_edges(args)?;
    let source = check_source(args.get_parsed("source", 0u32)?, &stream)?;
    let alpha = get_alpha(args)?;
    let epsilon = get_epsilon(args, 1e-5)?;
    let k: usize = args.get_parsed("top", 10usize)?;
    let threshold: Option<f64> =
        args.get("threshold").map(|_| args.get_finite("threshold", 0.0)).transpose()?;
    let save_state = args.get("save-state");
    args.reject_unknown()?;
    let cfg = PprConfig::new(source, alpha, epsilon);
    // One thread: the printed estimates must not depend on the host.
    let mut engine = ParallelEngine::with_threads(cfg, PushVariant::OPT, 1);
    engine
        .apply_batch(&mut DynamicGraph::new(), &SlidingWindow::new(stream, 1.0).initial_updates());

    let mut out = String::new();
    writeln!(out, "graph\t{name}\nsource\t{source}\nepsilon\t{epsilon:e}").unwrap();
    let ans = queries::top_k(engine.state(), k);
    writeln!(out, "top_{k} (set_is_certain={})\nvertex\testimate\tlo\thi", ans.set_is_certain)
        .unwrap();
    for b in &ans.ranking {
        writeln!(out, "{}\t{:.8}\t{:.8}\t{:.8}", b.vertex, b.estimate, b.lo, b.hi).unwrap();
    }
    if let Some(delta) = threshold {
        let t = queries::above_threshold(engine.state(), delta);
        writeln!(
            out,
            "threshold_{delta}: {} certain, {} possible",
            t.certain.len(),
            t.possible.len()
        )
        .unwrap();
    }
    if let Some(path) = save_state {
        dppr_core::persist::save_state(engine.state(), path)
            .map_err(|e| err(format!("writing {path}: {e}")))?;
        writeln!(out, "state_saved\t{path}").unwrap();
    }
    Ok(out)
}

/// Parses `--sources 0,3,9`, or picks `--num-sources K` top-out-degree
/// vertices from the warmed initial window.
fn serve_sources(
    explicit: Option<&str>,
    k: usize,
    stream: &GraphStream,
) -> Result<Vec<VertexId>, CliError> {
    if let Some(raw) = explicit {
        raw.split(',')
            .map(|t| {
                t.trim()
                    .parse::<VertexId>()
                    .map_err(|_| err(format!("bad vertex id in --sources: {t:?}")))
            })
            .collect()
    } else {
        Ok(dppr_serve::pick_top_degree_sources(stream, SERVE_INIT_FRACTION, k))
    }
}

/// The sliding-window warmup share `dppr serve` boots with, shared with
/// the source-picking probe (see `dppr_serve::pick_top_degree_sources`).
const SERVE_INIT_FRACTION: f64 = 0.1;

/// Parses the durability flags: `--data-dir DIR` switches the WAL +
/// checkpoint machinery on; `--fsync batch|off|interval:<ms>`,
/// `--checkpoint-every N`, and `--segment-kb KB` tune it.
fn serve_durability(args: &Args) -> Result<Option<dppr_serve::DurabilityConfig>, CliError> {
    let Some(dir) = args.get("data-dir") else {
        for k in ["fsync", "checkpoint-every", "segment-kb"] {
            if args.get(k).is_some() {
                return Err(err(format!("--{k} requires --data-dir")));
            }
        }
        return Ok(None);
    };
    let mut cfg = dppr_serve::DurabilityConfig::new(dir);
    if let Some(raw) = args.get("fsync") {
        cfg.fsync = dppr_serve::FsyncPolicy::parse(raw).map_err(err)?;
    }
    cfg.checkpoint_every_slides =
        args.get_parsed("checkpoint-every", cfg.checkpoint_every_slides)?;
    let segment_kb: u64 = args.get_parsed("segment-kb", cfg.segment_bytes / 1024)?;
    cfg.segment_bytes = match segment_kb.checked_mul(1024) {
        Some(bytes) if bytes > 0 => bytes,
        _ => return Err(err(format!("--segment-kb must lie in 1..={}", u64::MAX / 1024))),
    };
    Ok(Some(cfg))
}

/// The port `dppr serve` binds when `--port` is not given.
const SERVE_PORT: u16 = 7171;

/// `dppr serve`'s `ServeConfig`: each tuning option overrides its field,
/// and an absent one keeps `ServeConfig::default()`'s value (the port
/// falls back to [`SERVE_PORT`], the durability knobs to
/// `DurabilityConfig::new`'s).
fn serve_config(args: &Args) -> Result<dppr_serve::ServeConfig, CliError> {
    use std::time::Duration;
    let d = dppr_serve::ServeConfig::default();
    let ms = |name: &str, default: Duration| -> Result<Duration, CliError> {
        Ok(Duration::from_millis(args.get_parsed(name, default.as_millis() as u64)?))
    };
    let slo_p99_ms = args.get_finite("slo-p99-ms", d.slo_p99.as_secs_f64() * 1e3)?.max(0.0);
    let slo_p99 = Duration::try_from_secs_f64(slo_p99_ms / 1e3)
        .map_err(|_| err(format!("--slo-p99-ms out of range: {slo_p99_ms:e}")))?;
    Ok(dppr_serve::ServeConfig {
        port: args.get_parsed("port", SERVE_PORT)?,
        threads: args.get_parsed("threads", d.threads)?,
        cache_capacity: args.get_parsed("cache-capacity", d.cache_capacity)?,
        session_capacity: args.get_parsed("session-capacity", d.session_capacity)?,
        alpha: get_alpha(args)?,
        epsilon: get_epsilon(args, d.epsilon)?,
        batch: args.get_parsed("batch", d.batch)?,
        max_slides: args.get_parsed("max-slides", d.max_slides)?,
        slide_pause: ms("slide-pause-ms", d.slide_pause)?,
        read_timeout: ms("read-timeout-ms", d.read_timeout)?,
        write_timeout: ms("write-timeout-ms", d.write_timeout)?,
        shed_after: ms("shed-after-ms", d.shed_after)?,
        durability: serve_durability(args)?,
        trace_sample: args.get_parsed("trace-sample", d.trace_sample)?,
        trace_capacity: args.get_parsed("trace-capacity", d.trace_capacity)?,
        audit_sample: args.get_parsed("audit-sample", d.audit_sample)?,
        audit_interval: ms("audit-interval-ms", d.audit_interval)?,
        slo_p99,
        slo_availability: args.get_finite("slo-availability", d.slo_availability)?,
        slo_topk_overlap: args.get_finite("slo-topk-overlap", d.slo_topk_overlap)?,
        ..d
    })
}

/// `dppr serve` — the concurrent query-serving subsystem: background
/// window slides + epoch-published snapshots + HTTP front end.
///
/// Prints `listening` and `sources` lines to stdout immediately (so
/// scripts and the CI smoke test can find the ephemeral port), then blocks
/// until `POST /shutdown` arrives or `--run-secs` elapses, and returns the
/// final serve report.
pub fn serve(args: &Args) -> Result<String, CliError> {
    use std::io::Write as _;

    let (stream, name) = load_edges(args)?;
    let seed: u64 = args.get_parsed("seed", 1u64)?;
    let cfg = serve_config(args)?;
    let run_secs: u64 = args.get_parsed("run-secs", 0u64)?;
    let explicit_sources = args.get("sources");
    let num_sources: usize = args.get_parsed("num-sources", 4usize)?;
    args.reject_unknown()?;

    let stream = stream.permuted(seed);
    let sources = serve_sources(explicit_sources, num_sources, &stream)?;

    let handle = dppr_serve::start(stream, SERVE_INIT_FRACTION, &sources, cfg)
        .map_err(|e| err(format!("starting server: {e}")))?;
    let sources_csv = sources.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
    println!("listening\thttp://{}", handle.addr());
    println!("graph\t{name}\nsources\t{sources_csv}");
    if let Some(r) = handle.recovery() {
        println!(
            "recovered\tcheckpoint_epoch={} replayed_batches={} epoch={} window=[{}, {})",
            r.checkpoint_epoch, r.replayed_batches, r.recovered_epoch, r.window_start, r.window_end
        );
    }
    let _ = std::io::stdout().flush();

    dppr_serve::signals::install();
    let started = std::time::Instant::now();
    while !handle.is_shutdown() && !dppr_serve::signals::triggered() {
        if run_secs > 0 && started.elapsed().as_secs() >= run_secs {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // On shutdown (signal, /shutdown, or --run-secs) dump the sampled
    // trace ring to stderr so the last events survive the process; stdout
    // stays parseable for scripts.
    if handle.metrics().trace_requests.enabled() {
        let dump = handle.trace_dump();
        if !dump.is_empty() {
            eprintln!("{dump}");
        }
    }
    let report = handle.join();

    let mut out = String::new();
    writeln!(out, "epoch\t{}", report.epoch).unwrap();
    writeln!(
        out,
        "slides\t{}\nupdates_applied\t{}\nupdates_per_sec\t{:.0}",
        report.slides, report.updates_applied, report.updates_per_sec
    )
    .unwrap();
    writeln!(
        out,
        "queries\t{}\ncache_hit_rate\t{:.3}\nsessions\t{}",
        report.queries,
        report.cache.hit_rate(),
        report.sessions
    )
    .unwrap();
    if args.get("data-dir").is_some() {
        writeln!(
            out,
            "durable_epoch\t{}\ncheckpoints\t{}\ndegraded\t{}",
            report.durable_epoch, report.checkpoints, report.degraded
        )
        .unwrap();
    }
    Ok(out)
}

/// `dppr exact` — Gauss–Jacobi ground truth.
pub fn exact(args: &Args) -> Result<String, CliError> {
    let (stream, name) = load_edges(args)?;
    let source = check_source(args.get_parsed("source", 0u32)?, &stream)?;
    let alpha = get_alpha(args)?;
    let k: usize = args.get_parsed("top", 10usize)?;
    args.reject_unknown()?;
    let g = SlidingWindow::new(stream, 1.0).to_graph();
    let p = exact_ppr(&g, source, alpha, 1e-12);
    let mut out = String::new();
    writeln!(out, "graph\t{name}\nsource\t{source}\nalpha\t{alpha}").unwrap();
    for (v, score) in queries::top_k_of(&p, k) {
        writeln!(out, "{v}\t{score:.10}").unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("dppr_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_info_roundtrip() {
        let path = tmpfile("gen_ba.txt");
        let a = Args::parse([
            "generate", "--model", "ba", "--n", "200", "--m", "3", "--seed", "5", "--out", &path,
        ])
        .unwrap();
        let msg = generate(&a).unwrap();
        assert!(msg.contains("arcs"));
        let a = Args::parse(["info", "--graph", &path]).unwrap();
        let report = info(&a).unwrap();
        assert!(report.contains("vertices\t200"));
        assert!(report.contains("mean_out_degree"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_rejects_unknown_model() {
        let path = tmpfile("never.txt");
        let a = Args::parse(["generate", "--model", "tree", "--out", &path]).unwrap();
        assert!(generate(&a).is_err());
    }

    #[test]
    fn run_on_preset_smoke() {
        let a = Args::parse([
            "run",
            "--preset",
            "toy",
            "--engine",
            "cpu-mt",
            "--variant",
            "opt",
            "--batch",
            "50",
            "--slides",
            "3",
            "--epsilon",
            "1e-4",
            "--counters",
        ])
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("engine\tCPU-MT[Opt]"));
        assert!(out.contains("slides\t3"));
        assert!(out.contains("counters\t"));
        assert!(out.contains("top_10_by_ppr"));
    }

    #[test]
    fn run_each_engine_kind() {
        for (engine, expect) in [
            ("cpu-base", "CPU-Base"),
            ("cpu-seq", "CPU-Seq"),
            ("ligra", "Ligra"),
            ("mc", "Monte-Carlo"),
        ] {
            let a = Args::parse([
                "run",
                "--preset",
                "toy",
                "--engine",
                engine,
                "--batch",
                "50",
                "--slides",
                "2",
                "--epsilon",
                "1e-3",
                "--walks-per-vertex",
                "1",
            ])
            .unwrap();
            let out = run(&a).unwrap();
            assert!(out.contains(expect), "engine {engine}");
        }
    }

    #[test]
    fn serve_runs_briefly_and_reports() {
        let a = Args::parse([
            "serve",
            "--preset",
            "toy",
            "--port",
            "0",
            "--threads",
            "2",
            "--num-sources",
            "2",
            "--batch",
            "100",
            "--max-slides",
            "3",
            "--run-secs",
            "1",
            "--epsilon",
            "1e-3",
        ])
        .unwrap();
        let out = serve(&a).unwrap();
        assert!(out.contains("slides\t3"), "{out}");
        assert!(out.contains("updates_per_sec"), "{out}");
        assert!(out.contains("cache_hit_rate"), "{out}");
        assert!(out.contains("sessions\t2"), "{out}");
    }

    /// Without tuning options the config is the library's default on the
    /// CLI's own port.
    #[test]
    fn serve_config_defaults_to_the_library_defaults() {
        let a = Args::parse(["serve", "--preset", "toy"]).unwrap();
        let want = dppr_serve::ServeConfig { port: SERVE_PORT, ..Default::default() };
        assert_eq!(format!("{:?}", serve_config(&a).unwrap()), format!("{want:?}"));
    }

    #[test]
    fn serve_rejects_bad_sources() {
        let a = Args::parse(["serve", "--preset", "toy", "--port", "0", "--sources", "1,zebra"])
            .unwrap();
        assert!(serve(&a).is_err());
    }

    // One per subcommand: an option it never looks up is an error, not a
    // run with the default.

    fn assert_unknown(line: &[&str], option: &str) {
        let args = Args::parse(line.iter().copied()).unwrap();
        let e = crate::dispatch(&args).expect_err("a misspelt option must fail");
        assert_eq!(e.0, format!("unknown option --{option}"));
    }

    #[test]
    fn generate_rejects_a_misspelt_option() {
        let path = tmpfile("never_written.txt");
        std::fs::remove_file(&path).ok();
        assert_unknown(&["generate", "--model", "ba", "--sead", "5", "--out", &path], "sead");
        assert!(!std::path::Path::new(&path).exists(), "the check runs before the write");
    }

    #[test]
    fn info_rejects_a_misspelt_option() {
        assert_unknown(&["info", "--preset", "toy", "--undirectd"], "undirectd");
    }

    #[test]
    fn run_rejects_a_misspelt_option() {
        assert_unknown(&["run", "--preset", "toy", "--bacth", "10"], "bacth");
    }

    #[test]
    fn query_rejects_a_misspelt_option() {
        assert_unknown(&["query", "--preset", "toy", "--epsilonn", "1e-6"], "epsilonn");
    }

    #[test]
    fn serve_rejects_a_misspelt_option() {
        assert_unknown(
            &["serve", "--preset", "toy", "--port", "0", "--epsilonn", "1e-6"],
            "epsilonn",
        );
        // Deleted options, spelt in two pieces so the CI greps for their
        // names stay empty.
        let deleted =
            [(format!("--conn-{}", "backlog"), "128"), (format!("--write-{}", "shards"), "2")];
        for (flag, value) in deleted {
            assert_unknown(&["serve", "--preset", "toy", "--port", "0", &flag, value], &flag[2..]);
        }
    }

    #[test]
    fn exact_rejects_a_misspelt_option() {
        assert_unknown(&["exact", "--preset", "toy", "--source", "0", "--tpo", "1"], "tpo");
    }

    // One per numeric option whose range the engine or the server would
    // otherwise assert: an out-of-range value is an error naming the
    // option, raised before anything is built or bound.

    fn assert_refused(line: &[&str], option: &str) {
        let args = Args::parse(line.iter().copied()).unwrap();
        let e = crate::dispatch(&args).expect_err("an out-of-range value must fail");
        assert!(e.0.contains(option), "{line:?}: {}", e.0);
    }

    #[test]
    fn alpha_outside_the_unit_interval_is_refused() {
        for bad in ["0", "1", "1.5", "-0.2"] {
            assert_refused(&["serve", "--preset", "toy", "--port", "0", "--alpha", bad], "--alpha");
            assert_refused(&["run", "--preset", "toy", "--alpha", bad], "--alpha");
            assert_refused(&["query", "--preset", "toy", "--alpha", bad], "--alpha");
            assert_refused(&["exact", "--preset", "toy", "--alpha", bad], "--alpha");
        }
    }

    // toy has 200 vertices; each id here would otherwise size a state by
    // itself.
    #[test]
    fn run_refuses_a_source_past_the_graph() {
        for bad in ["200", "20000000"] {
            assert_refused(&["run", "--preset", "toy", "--source", bad], "--source");
        }
    }

    #[test]
    fn query_refuses_a_source_past_the_graph() {
        for bad in ["200", "20000000"] {
            assert_refused(&["query", "--preset", "toy", "--source", bad], "--source");
        }
    }

    #[test]
    fn exact_refuses_a_source_past_the_graph() {
        for bad in ["200", "20000000"] {
            assert_refused(&["exact", "--preset", "toy", "--source", bad], "--source");
        }
    }

    #[test]
    fn epsilon_at_or_below_zero_is_refused() {
        for bad in ["0", "-1"] {
            assert_refused(
                &["serve", "--preset", "toy", "--port", "0", "--epsilon", bad],
                "--epsilon",
            );
            assert_refused(&["run", "--preset", "toy", "--epsilon", bad], "--epsilon");
            assert_refused(&["query", "--preset", "toy", "--epsilon", bad], "--epsilon");
        }
    }

    #[test]
    fn slo_p99_too_large_for_a_duration_is_refused() {
        assert_refused(
            &["serve", "--preset", "toy", "--port", "0", "--slo-p99-ms", "1e30"],
            "--slo-p99-ms",
        );
    }

    #[test]
    fn segment_kb_that_overflows_bytes_is_refused() {
        let dir = tmpfile("never_created_data_dir");
        for bad in ["0", "18014398509481984"] {
            assert_refused(
                &[
                    "serve",
                    "--preset",
                    "toy",
                    "--port",
                    "0",
                    "--data-dir",
                    &dir,
                    "--segment-kb",
                    bad,
                ],
                "--segment-kb",
            );
        }
        assert!(
            !std::path::Path::new(&dir).exists(),
            "the check runs before the directory is made"
        );
    }

    #[test]
    fn query_reports_bounds_and_threshold() {
        let a = Args::parse([
            "query",
            "--preset",
            "toy",
            "--source",
            "0",
            "--epsilon",
            "1e-4",
            "--top",
            "5",
            "--threshold",
            "0.01",
        ])
        .unwrap();
        let out = query(&a).unwrap();
        assert!(out.contains("set_is_certain"));
        assert!(out.contains("threshold_0.01"));
    }

    /// `query` pushes on one thread, so its text does not depend on the
    /// host: small-sim's load pushes a frontier that a push on several
    /// threads would fan out, and two runs still print the same text.
    #[test]
    fn query_prints_the_same_text_every_run() {
        let a = Args::parse(["query", "--preset", "small-sim", "--source", "3", "--top", "20"])
            .unwrap();
        let first = query(&a).unwrap();
        assert_eq!(query(&a).unwrap(), first);
        let (stream, _) = load_edges(&a).unwrap();
        let cfg = PprConfig::new(3, get_alpha(&a).unwrap(), 1e-5);
        let mut engine = ParallelEngine::with_threads(cfg, PushVariant::OPT, 1);
        engine.apply_batch(
            &mut DynamicGraph::new(),
            &SlidingWindow::new(stream, 1.0).initial_updates(),
        );
        let max_frontier = engine.counters().max_frontier;
        assert!(max_frontier >= dppr_core::fanout::FAN_OUT_MIN as u64, "{max_frontier}");
    }

    #[test]
    fn exact_matches_query_within_epsilon() {
        let q = query(
            &Args::parse([
                "query",
                "--preset",
                "toy",
                "--source",
                "0",
                "--epsilon",
                "1e-6",
                "--top",
                "1",
            ])
            .unwrap(),
        )
        .unwrap();
        let e = exact(
            &Args::parse(["exact", "--preset", "toy", "--source", "0", "--top", "1"]).unwrap(),
        )
        .unwrap();
        // Same top-1 vertex in both reports.
        let top_q = q
            .lines()
            .find(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .unwrap()
            .split('\t')
            .next()
            .unwrap()
            .to_string();
        let top_e = e
            .lines()
            .find(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .unwrap()
            .split('\t')
            .next()
            .unwrap()
            .to_string();
        assert_eq!(top_q, top_e);
    }
}
