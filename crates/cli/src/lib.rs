//! `dppr` — command-line front end for the workspace.
//!
//! ```text
//! dppr generate --model ba --n 10000 --m 5 --seed 1 --out edges.txt
//! dppr info     --preset lj-sim            # or --graph edges.txt
//! dppr run      --preset small-sim --engine cpu-mt --batch 1000 --slides 20
//! dppr query    --graph edges.txt --source 0 --epsilon 1e-5 --top 10
//! dppr serve    --preset small-sim --port 7171 --threads 4 --num-sources 8
//! dppr exact    --graph edges.txt --source 0 --top 10
//! ```
//!
//! Every subcommand prints TSV so output can be piped into standard
//! tooling. See `dppr help` for the full option list.

pub mod args;
pub mod commands;

use args::{err, Args, CliError};

/// Dispatches a parsed command line; returns the text to print.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "generate" => commands::generate(args),
        "info" => commands::info(args),
        "run" => commands::run(args),
        "query" => commands::query(args),
        "serve" => commands::serve(args),
        "exact" => commands::exact(args),
        "help" | "" => args.reject_unknown().map(|()| HELP.to_string()),
        other => Err(err(format!("unknown command {other:?}; try `dppr help`"))),
    }
}

/// Usage text.
pub const HELP: &str = "\
dppr — dynamic Personalized PageRank toolkit

USAGE: dppr <command> [options]
       (an option the command does not list below is an error)

COMMANDS
  generate   Write a synthetic edge list.
             --model ba|er|rmat  --n N  --m M  --seed S  --out FILE
             (ba: m = edges per new vertex; er/rmat: m = edge count;
              rmat: n is rounded up to a power of two)
  info       Graph statistics.
             --preset NAME | --graph FILE [--undirected]
  run        Stream a sliding window through an engine.
             --preset NAME | --graph FILE [--undirected]
             --engine cpu-base|cpu-seq|cpu-mt|ligra|mc  [--variant opt|eager|dupdetect|vanilla]
             --batch K  --slides N  --alpha A  --epsilon E
             [--source V | --top-bucket B]  [--seed S]
             [--threads T (cpu-mt: threads a fanned-out push iteration
             uses; default every core, 1 = deterministic)]
             [--walks-per-vertex W]  [--counters]  [--top K]
  query      Maintain PPR over the full graph, then answer queries.
             --graph FILE|--preset NAME [--undirected]
             --source V  --alpha A  --epsilon E  [--top K] [--threshold D]
             [--save-state FILE (binary, checksummed state snapshot)]
  serve      Serve top-k/score/threshold/compare queries over HTTP while
             the update stream slides in the background.
             --graph FILE|--preset NAME [--undirected]
             [--port P (7171; 0 = ephemeral)]
             [--threads T (4; HTTP event-loop shards)]
             [--sources 0,3,9 | --num-sources K]  [--cache-capacity N]
             [--session-capacity N]  [--alpha A] [--epsilon E] [--batch K]
             [--max-slides N]  [--slide-pause-ms MS]  [--run-secs S]
             [--seed S]  [--read-timeout-ms MS (10000)]
             [--write-timeout-ms MS (10000)]  [--shed-after-ms MS (1000;
             0 = never shed)]
             [--data-dir DIR (durable WAL + checkpoints; restart recovers
             checkpoint + log tail)]  [--fsync batch|off|interval:MS
             (interval:50)]  [--checkpoint-every N (64 slides)]
             [--segment-kb KB (8192)]
             [--trace-sample N (trace every Nth request/slide; 0 = off)]
             [--trace-capacity N (1024 ring-buffered events)]
             [--audit-sample N (recompute ground truth for N live
             sessions per tick and report dppr_audit_* error metrics;
             0 = off)]  [--audit-interval-ms MS (500; audit/series/SLO
             observer tick)]
             [--slo-p99-ms MS (latency SLO target; breach sheds load)]
             [--slo-availability F (e.g. 0.999 served fraction)]
             [--slo-topk-overlap F (e.g. 0.9 audited top-10 overlap)]
             Connections are HTTP/1.1 keep-alive, accepted and served by
             poll(2) event-loop shards; queries answer 503 + Retry-After
             while a slide lags past --shed-after-ms or the latency SLO
             burns. The one write loop spreads each slide's session
             pushes and snapshot builds over every core (no setting).
             SIGTERM/SIGINT drain connections, flush the WAL, write a
             final checkpoint, and dump the trace ring to stderr.
             Endpoints: /topk?source=S&k=K  /score?source=S&v=V
             /threshold?source=S&delta=D  /compare?source=S&a=A&b=B
             /sessions  /session/open?source=S  /session/close?source=S
             /stats  /healthz (incl. SLO burn rates)
             /metrics (Prometheus text)
             /trace[?limit=N&kind=request|slide] (sampled JSON lines)
             /series[?name=N&window=S] (in-process metrics time-series)
             /shutdown
  exact      Ground-truth PPR via Gauss–Jacobi.
             --graph FILE|--preset NAME [--undirected] --source V [--alpha A] [--top K]
  help       This text.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_paths() {
        let a = Args::parse(["help"]).unwrap();
        assert!(dispatch(&a).unwrap().contains("USAGE"));
        let a = Args::parse(Vec::<String>::new()).unwrap();
        assert!(dispatch(&a).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let a = Args::parse(["frobnicate"]).unwrap();
        assert!(dispatch(&a).is_err());
    }
}
