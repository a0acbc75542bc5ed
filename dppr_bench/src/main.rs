//! `dppr_bench` — the repository's benchmark.
//!
//! Four seeded workloads, each measured from outside through public
//! functions only; see `README.md` in this directory for every metric
//! and why each workload exists.
//!
//! ```text
//! dppr_bench run --workload W --seed S [--seconds N] [--trace 0|1] [--smoke]
//! dppr_bench all [--seed S] [--seconds N]
//! dppr_bench aa  [--sets 3] [--runs 5] [--seed S] [--seconds N] [--out AA.md]
//! dppr_bench ladder [--seed S]
//! dppr_bench schema
//! ```

mod aa;
mod catalog;
mod common;
mod host;
mod inputs;
mod loadgen;
mod push;
mod refclock;
mod replica;
mod report;
mod serve;
mod span;
mod stats;

use common::RunOpts;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed used when none is given. A claim made with it must also hold on
/// a seed that was never used while the change was written.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage:
  dppr_bench run --workload <push_seq|push_par|serve_read|serve_write> --seed <n>
                 [--seconds <n>] [--trace <0|1>] [--smoke]
  dppr_bench all [--seed <n>] [--seconds <n>]
  dppr_bench aa [--sets <n>] [--runs <n>] [--seed <n>] [--seconds <n>] [--out <path>]
  dppr_bench ladder [--seed <n>]
  dppr_bench schema";

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg}"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            pairs.push((name.to_string(), value));
        }
        Ok(Args { pairs })
    }

    fn flag(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, None)) => Err(format!("--{name} needs a value")),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.value(name)?.unwrap_or(default))
    }
}

/// Scratch space for WAL directories, checkpoints and span files: under
/// cargo's target directory, which every checkout ignores.
pub fn work_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("dppr_bench_work")
}

fn run_opts(args: &Args) -> Result<RunOpts, String> {
    let workload: String = args.value("workload")?.ok_or("--workload is required")?;
    if !catalog::is_workload(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let traced = match args.value_or("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seconds: f64 = args.value_or("seconds", catalog::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(RunOpts {
        workload,
        seed: args.value_or("seed", DEFAULT_SEED)?,
        seconds,
        traced,
        smoke: args.flag("smoke"),
        work_dir: work_dir(),
    })
}

/// Runs one workload in this process.
pub fn run_workload(opts: &RunOpts) -> Result<report::Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    match opts.workload.as_str() {
        "push_seq" => Ok(push::run(replica::Kernel::Seq, opts)),
        "push_par" => Ok(push::run(replica::Kernel::Par, opts)),
        "serve_read" => serve::run(serve::Kind::Read, opts).map_err(|e| e.to_string()),
        "serve_write" => serve::run(serve::Kind::Write, opts).map_err(|e| e.to_string()),
        other => Err(format!("unknown workload {other}")),
    }
}

fn dispatch(raw: &[String]) -> Result<(), String> {
    let (cmd, rest) = raw.split_first().ok_or(USAGE)?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "run" => {
            let opts = run_opts(&args)?;
            let report = run_workload(&opts)?;
            // The result line is the last line of stdout and is printed
            // only when every metric it must hold was measured.
            let line = report.json_line(opts.traced)?;
            print!("{}", report.human());
            println!("{line}");
            Ok(())
        }
        "all" => aa::all(args.value_or("seed", DEFAULT_SEED)?, args.value("seconds")?),
        "aa" => aa::calibrate(
            args.value_or("sets", 3)?,
            args.value_or("runs", 5)?,
            args.value_or("seed", DEFAULT_SEED)?,
            args.value("seconds")?,
            args.value::<PathBuf>("out")?,
        ),
        "ladder" => {
            let table = serve::ladder(
                args.value_or("seed", DEFAULT_SEED)?,
                3.0,
                args.flag("smoke"),
            )
            .map_err(|e| e.to_string())?;
            print!("{table}");
            Ok(())
        }
        "schema" => {
            print!("{}", catalog::benchmark_json());
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dppr_bench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, WORKLOADS};

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let args = Args::parse(&strings(&[
            "--workload",
            "serve_read",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ]))
        .unwrap();
        let opts = run_opts(&args).unwrap();
        assert_eq!(
            (opts.workload.as_str(), opts.seed, opts.seconds, opts.traced),
            ("serve_read", 42, 7.0, true)
        );
        let args = Args::parse(&strings(&["--workload", "push_seq", "--trace", "0"])).unwrap();
        assert!(!run_opts(&args).unwrap().traced);
        let args = Args::parse(&strings(&["--workload", "push_seq", "--trace", "2"])).unwrap();
        assert!(run_opts(&args).is_err());
        assert!(run_opts(&Args::parse(&strings(&["--workload", "nope"])).unwrap()).is_err());
        assert!(run_opts(&Args::parse(&strings(&["--seed", "1"])).unwrap()).is_err());
        assert!(Args::parse(&strings(&["stray"])).is_err());
    }

    /// Every workload at `--smoke` scale, untraced and traced: all
    /// end-to-end metrics present and non-zero, every check passing, and
    /// the whole thing inside five seconds.
    #[test]
    fn smoke_scale_of_every_workload() {
        let t = std::time::Instant::now();
        let work_dir = work_dir().join(format!("smoke-{}", std::process::id()));
        for w in WORKLOADS {
            for traced in [false, true] {
                let opts = RunOpts {
                    workload: w.name.to_string(),
                    seed: 7,
                    seconds: 0.12,
                    traced,
                    smoke: true,
                    work_dir: work_dir.clone(),
                };
                let report = run_workload(&opts).unwrap();
                assert!(
                    report.correct(),
                    "{} traced={traced}:\n{}",
                    w.name,
                    report.human()
                );
                let line = report.json_line(traced).unwrap();
                if w.name.starts_with("serve") {
                    // Every threshold delta of the mix selects something.
                    assert!(report
                        .checks
                        .iter()
                        .any(|c| c.name == "threshold_selects" && c.passed));
                    assert!(report.get("gen.threshold_rows").unwrap() >= 1.0);
                }
                if !traced {
                    for m in END_TO_END {
                        let v = report::metric_from_json(&line, m.name).unwrap();
                        assert!(v > 0.0, "{} {} = {v}", w.name, m.name);
                    }
                } else {
                    assert!(report
                        .checks
                        .iter()
                        .any(|c| c.name == "traced_pipeline_identical"));
                    assert!(report.get("trace.slide_attributed_ratio").unwrap() > 0.5);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&work_dir);
        assert!(
            t.elapsed().as_secs_f64() < 5.0,
            "smoke runs took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn ladder_prints_every_rung() {
        let table = serve::ladder(3, 0.05, true).unwrap();
        assert_eq!(table.lines().count(), 6, "{table}");
        assert!(table.lines().nth(1).unwrap().starts_with("500 "));
    }
}
