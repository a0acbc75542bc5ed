//! Subcommand implementations. All return the text to print.

use crate::args::{err, Args, CliError};
use dppr_core::{
    exact_ppr, queries, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant, SeqEngine,
    UpdateMode,
};
use dppr_graph::{generators, io, presets, DynamicGraph, GraphStream, VertexId};
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
        "er" => (
            generators::erdos_renyi(n, m, seed),
            format!("erdos-renyi n={n} m={m} seed={seed}"),
        ),
        "rmat" => {
            let scale = (32 - n.next_power_of_two().leading_zeros() - 1).max(1);
            (
                generators::rmat(scale, m, generators::RmatParams::default(), seed),
                format!("rmat scale={scale} m={m} seed={seed}"),
            )
        }
        other => return Err(err(format!("unknown model {other:?} (ba|er|rmat)"))),
    };
    io::write_edge_list(out, &edges, &desc)
        .map_err(|e| err(format!("writing {out}: {e}")))?;
    Ok(format!("wrote {} arcs to {out} ({desc})\n", edges.len()))
}

/// (edges, undirected?, display name) triple loaded by `load_edges`.
type LoadedGraph = (Vec<(u32, u32)>, bool, String);

/// Loads a graph source shared by `info`, `query`, `exact`.
fn load_edges(args: &Args) -> Result<LoadedGraph, CliError> {
    // All three are looked up whichever one decides: a lookup is what
    // makes an option known to `Args::reject_unknown`.
    let (preset, graph, undirected) = (args.get("preset"), args.get("graph"), args.flag("undirected"));
    if let Some(name) = preset {
        let ds = presets::by_name(name)
            .ok_or_else(|| err(format!("unknown preset {name:?}")))?;
        let undirected = ds.undirected;
        Ok((ds.edges, undirected, name.to_string()))
    } else if let Some(path) = graph {
        let edges =
            io::read_edge_list(path).map_err(|e| err(format!("reading {path}: {e}")))?;
        Ok((edges, undirected, path.to_string()))
    } else {
        Err(err("need --preset NAME or --graph FILE"))
    }
}

fn materialize(edges: &[(u32, u32)], undirected: bool) -> DynamicGraph {
    let mut g = DynamicGraph::new();
    for &(u, v) in edges {
        g.insert_edge(u, v);
        if undirected {
            g.insert_edge(v, u);
        }
    }
    g
}

/// `dppr info` — graph statistics including degree-distribution shape.
pub fn info(args: &Args) -> Result<String, CliError> {
    let (edges, undirected, name) = load_edges(args)?;
    args.reject_unknown()?;
    let g = materialize(&edges, undirected);
    let mut out = String::new();
    writeln!(out, "graph\t{name}").unwrap();
    writeln!(out, "active_vertices\t{}", g.active_vertices()).unwrap();
    let ss = g.substrate_stats();
    writeln!(out, "hub_vertices\t{}", ss.hub_vertices).unwrap();
    writeln!(
        out,
        "pool_slots\t{} (live {}, dead {})",
        ss.arena_slots, ss.live_slots, ss.dead_slots
    )
    .unwrap();
    write!(out, "{}", dppr_graph::stats::degree_stats(&g)).unwrap();
    Ok(out)
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
    let (edges, undirected, name) = load_edges(args)?;
    let seed: u64 = args.get_parsed("seed", 1u64)?;
    let alpha: f64 = args.get_finite("alpha", 0.15)?;
    let epsilon: f64 = args.get_finite("epsilon", 1e-5)?;
    let batch: usize = args.get_parsed("batch", 1_000usize)?;
    let slides: usize = args.get_parsed("slides", 10usize)?;
    let explicit_source: Option<VertexId> = args
        .get("source")
        .map(|raw| raw.parse().map_err(|_| err(format!("bad --source {raw:?}"))))
        .transpose()?;
    let bucket: usize = args.get_parsed("top-bucket", 1_000usize)?;
    let engine_name = args.get_or("engine", "cpu-mt");
    let variant = parse_variant(args.get_or("variant", "opt"))?;
    let threads: usize = args.get_parsed("threads", 0usize)?;
    let wpv: usize = args.get_parsed("walks-per-vertex", 6usize)?;
    let counters = args.flag("counters");
    let top: usize = args.get_parsed("top", 10usize)?;
    args.reject_unknown()?;

    let stream = if undirected {
        GraphStream::undirected(edges)
    } else {
        GraphStream::directed(edges)
    }
    .permuted(seed);

    // Source: explicit id, or drawn from a top-degree bucket of the warmed
    // window (the paper's methodology).
    let source: VertexId = if let Some(source) = explicit_source {
        source
    } else {
        let window = dppr_graph::SlidingWindow::new(stream.clone(), 0.1);
        let mut probe = DynamicGraph::new();
        for upd in window.initial_updates() {
            probe.apply(upd);
        }
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
    for (v, p) in dppr_core::multi::top_k_of(&scores, top) {
        writeln!(out, "  {v}\t{p:.8}").unwrap();
    }
    Ok(out)
}

/// `dppr query` — maintain over the whole graph, then answer ε-aware
/// queries.
pub fn query(args: &Args) -> Result<String, CliError> {
    let (edges, undirected, name) = load_edges(args)?;
    let source: VertexId = args.get_parsed("source", 0u32)?;
    let alpha: f64 = args.get_finite("alpha", 0.15)?;
    let epsilon: f64 = args.get_finite("epsilon", 1e-5)?;
    let k: usize = args.get_parsed("top", 10usize)?;
    let threshold: Option<f64> =
        args.get("threshold").map(|_| args.get_finite("threshold", 0.0)).transpose()?;
    let save_state = args.get("save-state");
    args.reject_unknown()?;
    let cfg = PprConfig::new(source, alpha, epsilon);
    let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut g = DynamicGraph::new();
    let mut batch = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in &edges {
        batch.push(dppr_graph::EdgeUpdate::insert(u, v));
        if undirected {
            batch.push(dppr_graph::EdgeUpdate::insert(v, u));
        }
    }
    engine.apply_batch(&mut g, &batch);

    let mut out = String::new();
    writeln!(out, "graph\t{name}\nsource\t{source}\nepsilon\t{epsilon:e}").unwrap();
    let ans = queries::top_k(engine.state(), k);
    writeln!(
        out,
        "top_{k} (set_is_certain={})\nvertex\testimate\tlo\thi",
        ans.set_is_certain
    )
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
    cfg.checkpoint_every_slides = args.get_parsed("checkpoint-every", cfg.checkpoint_every_slides)?;
    let segment_kb: u64 = args.get_parsed("segment-kb", cfg.segment_bytes / 1024)?;
    if segment_kb == 0 {
        return Err(err("--segment-kb must be positive"));
    }
    cfg.segment_bytes = segment_kb * 1024;
    Ok(Some(cfg))
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

    let (edges, undirected, name) = load_edges(args)?;
    let seed: u64 = args.get_parsed("seed", 1u64)?;
    let cfg = dppr_serve::ServeConfig {
        port: args.get_parsed("port", 7171u16)?,
        threads: args.get_parsed("threads", 4usize)?,
        cache_capacity: args.get_parsed("cache-capacity", 1024usize)?,
        session_capacity: args.get_parsed("session-capacity", 64usize)?,
        write_shards: args.get_parsed("write-shards", 1usize)?,
        alpha: args.get_finite("alpha", 0.15)?,
        epsilon: args.get_finite("epsilon", 1e-4)?,
        batch: args.get_parsed("batch", 500usize)?,
        max_slides: args.get_parsed("max-slides", 0usize)?,
        slide_pause: std::time::Duration::from_millis(
            args.get_parsed("slide-pause-ms", 0u64)?,
        ),
        read_timeout: std::time::Duration::from_millis(
            args.get_parsed("read-timeout-ms", 10_000u64)?,
        ),
        write_timeout: std::time::Duration::from_millis(
            args.get_parsed("write-timeout-ms", 10_000u64)?,
        ),
        shed_after: std::time::Duration::from_millis(args.get_parsed("shed-after-ms", 1_000u64)?),
        conn_backlog: args.get_parsed("conn-backlog", 256usize)?,
        durability: serve_durability(args)?,
        trace_sample: args.get_parsed("trace-sample", 0u64)?,
        trace_capacity: args.get_parsed("trace-capacity", 1024usize)?,
        audit_sample: args.get_parsed("audit-sample", 0usize)?,
        audit_interval: std::time::Duration::from_millis(
            args.get_parsed("audit-interval-ms", 500u64)?,
        ),
        slo_p99: std::time::Duration::from_secs_f64(
            args.get_finite("slo-p99-ms", 0.0)?.max(0.0) / 1e3,
        ),
        slo_availability: args.get_finite("slo-availability", 0.0)?,
        slo_topk_overlap: args.get_finite("slo-topk-overlap", 0.0)?,
    };
    let run_secs: u64 = args.get_parsed("run-secs", 0u64)?;
    let explicit_sources = args.get("sources");
    let num_sources: usize = args.get_parsed("num-sources", 4usize)?;
    args.reject_unknown()?;

    let stream = if undirected {
        GraphStream::undirected(edges)
    } else {
        GraphStream::directed(edges)
    }
    .permuted(seed);
    let sources = serve_sources(explicit_sources, num_sources, &stream)?;

    let handle = dppr_serve::start(stream, SERVE_INIT_FRACTION, &sources, cfg)
        .map_err(|e| err(format!("starting server: {e}")))?;
    let sources_csv = sources
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
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
    let (edges, undirected, name) = load_edges(args)?;
    let source: VertexId = args.get_parsed("source", 0u32)?;
    let alpha: f64 = args.get_finite("alpha", 0.15)?;
    let k: usize = args.get_parsed("top", 10usize)?;
    args.reject_unknown()?;
    let g = materialize(&edges, undirected);
    let p = exact_ppr(&g, source, alpha, 1e-12);
    let mut out = String::new();
    writeln!(out, "graph\t{name}\nsource\t{source}\nalpha\t{alpha}").unwrap();
    for (v, score) in dppr_core::multi::top_k_of(&p, k) {
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
            "generate", "--model", "ba", "--n", "200", "--m", "3", "--seed", "5", "--out",
            &path,
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
        let a =
            Args::parse(["generate", "--model", "tree", "--out", &path]).unwrap();
        assert!(generate(&a).is_err());
    }

    #[test]
    fn run_on_preset_smoke() {
        let a = Args::parse([
            "run", "--preset", "toy", "--engine", "cpu-mt", "--variant", "opt", "--batch",
            "50", "--slides", "3", "--epsilon", "1e-4", "--counters",
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
                "run", "--preset", "toy", "--engine", engine, "--batch", "50", "--slides",
                "2", "--epsilon", "1e-3", "--walks-per-vertex", "1",
            ])
            .unwrap();
            let out = run(&a).unwrap();
            assert!(out.contains(expect), "engine {engine}");
        }
    }

    #[test]
    fn serve_runs_briefly_and_reports() {
        let a = Args::parse([
            "serve", "--preset", "toy", "--port", "0", "--threads", "2",
            "--num-sources", "2", "--batch", "100", "--max-slides", "3",
            "--run-secs", "1", "--epsilon", "1e-3",
        ])
        .unwrap();
        let out = serve(&a).unwrap();
        assert!(out.contains("slides\t3"), "{out}");
        assert!(out.contains("updates_per_sec"), "{out}");
        assert!(out.contains("cache_hit_rate"), "{out}");
        assert!(out.contains("sessions\t2"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_sources() {
        let a = Args::parse([
            "serve", "--preset", "toy", "--port", "0", "--sources", "1,zebra",
        ])
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
        assert_unknown(&["serve", "--preset", "toy", "--port", "0", "--epsilonn", "1e-6"], "epsilonn");
    }

    #[test]
    fn exact_rejects_a_misspelt_option() {
        assert_unknown(&["exact", "--preset", "toy", "--source", "0", "--tpo", "1"], "tpo");
    }

    #[test]
    fn query_reports_bounds_and_threshold() {
        let a = Args::parse([
            "query", "--preset", "toy", "--source", "0", "--epsilon", "1e-4", "--top", "5",
            "--threshold", "0.01",
        ])
        .unwrap();
        let out = query(&a).unwrap();
        assert!(out.contains("set_is_certain"));
        assert!(out.contains("threshold_0.01"));
    }

    #[test]
    fn exact_matches_query_within_epsilon() {
        let q = query(
            &Args::parse([
                "query", "--preset", "toy", "--source", "0", "--epsilon", "1e-6", "--top",
                "1",
            ])
            .unwrap(),
        )
        .unwrap();
        let e = exact(
            &Args::parse(["exact", "--preset", "toy", "--source", "0", "--top", "1"])
                .unwrap(),
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
