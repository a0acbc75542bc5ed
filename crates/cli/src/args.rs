//! Minimal `--key value` / `--flag` argument parsing (no external deps).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A parsing or validation error with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Convenience constructor.
pub fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed command line: a subcommand, `--key value` options, and bare
/// `--flag`s. Every lookup notes the name it asked for, so that
/// [`Args::reject_unknown`] can name what was given but never looked up.
#[derive(Debug, Default)]
pub struct Args {
    /// The first positional token (subcommand).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
    asked_options: RefCell<HashSet<String>>,
    asked_flags: RefCell<HashSet<String>>,
}

impl Args {
    /// Parses `argv` (excluding the program name). Tokens starting with
    /// `--` are options if followed by a non-`--` token, flags otherwise;
    /// the first bare token is the subcommand.
    pub fn parse<I, S>(argv: I) -> Result<Args, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = argv.into_iter().map(Into::into).collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(key) = t.strip_prefix("--") {
                if key.is_empty() {
                    return Err(err("bare `--` is not a valid option"));
                }
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    args.options.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.flags.push(key.to_string());
                    i += 1;
                }
            } else {
                if !args.command.is_empty() {
                    return Err(err(format!("unexpected positional argument {t:?}")));
                }
                args.command = t.clone();
                i += 1;
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.asked_options.borrow_mut().insert(key.to_string());
        self.options.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key).ok_or_else(|| err(format!("missing required option --{key}")))
    }

    /// Typed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => {
                raw.parse::<T>().map_err(|_| err(format!("invalid value for --{key}: {raw:?}")))
            }
        }
    }

    /// Float option with a default, rejecting `NaN` and `±inf`: `--alpha
    /// nan` would otherwise flow into the engine, where every comparison
    /// against it is false and the run silently degenerates instead of
    /// failing here with a message.
    pub fn get_finite(&self, key: &str, default: f64) -> Result<f64, CliError> {
        let v: f64 = self.get_parsed(key, default)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(err(format!("non-finite value for --{key}: {v}")))
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.asked_flags.borrow_mut().insert(key.to_string());
        self.flags.iter().any(|f| f == key)
    }

    /// The closing check of a subcommand, called once it has looked up
    /// everything it understands and before it computes, serves or writes
    /// anything: fails on the first (in name order) option no `get*` call
    /// asked for, or flag no `flag` call asked for. The lookups are the list of what a
    /// subcommand accepts, so a misspelt `--epsilonn 1e-6` is an error
    /// here instead of a run with the default.
    pub fn reject_unknown(&self) -> Result<(), CliError> {
        let (options, flags) = (self.asked_options.borrow(), self.asked_flags.borrow());
        let unknown = |k: &String| format!("unknown option --{k}");
        let stray_options = self.options.keys().filter(|k| !options.contains(*k)).map(|k| {
            let is_flag = flags.contains(k);
            (k, if is_flag { format!("option --{k} takes no value") } else { unknown(k) })
        });
        let stray_flags = self.flags.iter().filter(|k| !flags.contains(*k)).map(|k| {
            let is_option = options.contains(k);
            (k, if is_option { format!("option --{k} needs a value") } else { unknown(k) })
        });
        match stray_options.chain(stray_flags).min() {
            Some((_, msg)) => Err(err(msg)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_options_and_flags() {
        let a = Args::parse(["run", "--batch", "100", "--full", "--eps", "1e-5"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("batch"), Some("100"));
        assert_eq!(a.get("eps"), Some("1e-5"));
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
    }

    #[test]
    fn typed_access() {
        let a = Args::parse(["x", "--k", "42"]).unwrap();
        assert_eq!(a.get_parsed("k", 0usize).unwrap(), 42);
        assert_eq!(a.get_parsed("missing", 7usize).unwrap(), 7);
        assert!(Args::parse(["x", "--k", "nope"]).unwrap().get_parsed::<usize>("k", 0).is_err());
    }

    #[test]
    fn finite_floats_reject_nan_and_inf() {
        for bad in ["nan", "NaN", "inf", "-inf", "Infinity"] {
            let a = Args::parse(["x", "--alpha", bad]).unwrap();
            assert!(a.get_finite("alpha", 0.15).is_err(), "--alpha {bad} must fail");
        }
        let a = Args::parse(["x", "--alpha", "0.2"]).unwrap();
        assert_eq!(a.get_finite("alpha", 0.15).unwrap(), 0.2);
        assert_eq!(a.get_finite("missing", 0.15).unwrap(), 0.15);
    }

    #[test]
    fn reject_unknown_names_what_no_lookup_asked_for() {
        let a = Args::parse(["x", "--batch", "5", "--full", "--bacth", "7", "--ful"]).unwrap();
        assert_eq!(a.get_parsed("batch", 0usize).unwrap(), 5);
        assert!(a.flag("full"));
        // Name order, whatever the map's: `bacth` before `ful`.
        assert_eq!(a.reject_unknown(), Err(err("unknown option --bacth")));
        assert_eq!(a.get("bacth"), Some("7"));
        assert_eq!(a.reject_unknown(), Err(err("unknown option --ful")));
        assert!(a.flag("ful"));
        assert_eq!(a.reject_unknown(), Ok(()));

        // A known name in the wrong shape says which shape.
        let a = Args::parse(["x", "--full", "yes", "--batch"]).unwrap();
        assert!(!a.flag("full"));
        assert_eq!(a.get("batch"), None);
        assert_eq!(a.reject_unknown(), Err(err("option --batch needs a value")));
        let a = Args::parse(["x", "--full", "yes"]).unwrap();
        assert!(!a.flag("full"));
        assert_eq!(a.reject_unknown(), Err(err("option --full takes no value")));
    }

    #[test]
    fn rejects_double_positional() {
        assert!(Args::parse(["a", "b"]).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(["x"]).unwrap();
        assert!(a.require("graph").is_err());
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A value may not start with `--`; plain negatives are fine.
        let a = Args::parse(["x", "--delta", "-5"]).unwrap();
        assert_eq!(a.get("delta"), Some("-5"));
    }

    #[test]
    fn rejects_bare_double_dash() {
        assert!(Args::parse(["run", "--"]).is_err());
    }

    // One test per subcommand, exercising the full option line each one
    // documents in `dppr help`.

    #[test]
    fn generate_command_line() {
        let a = Args::parse([
            "generate",
            "--model",
            "ba",
            "--n",
            "10000",
            "--m",
            "5",
            "--seed",
            "1",
            "--out",
            "edges.txt",
        ])
        .unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.get_or("model", "er"), "ba");
        assert_eq!(a.get_parsed("n", 0u32).unwrap(), 10_000);
        assert_eq!(a.get_parsed("m", 0usize).unwrap(), 5);
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 1);
        assert_eq!(a.require("out").unwrap(), "edges.txt");
    }

    #[test]
    fn info_command_line() {
        let a = Args::parse(["info", "--preset", "lj-sim"]).unwrap();
        assert_eq!(a.command, "info");
        assert_eq!(a.get("preset"), Some("lj-sim"));
        assert!(!a.flag("undirected"));

        let a = Args::parse(["info", "--graph", "edges.txt", "--undirected"]).unwrap();
        assert_eq!(a.get("graph"), Some("edges.txt"));
        assert!(a.flag("undirected"));
    }

    #[test]
    fn run_command_line() {
        let a = Args::parse([
            "run",
            "--preset",
            "small-sim",
            "--engine",
            "cpu-mt",
            "--variant",
            "opt",
            "--batch",
            "1000",
            "--slides",
            "20",
            "--alpha",
            "0.15",
            "--epsilon",
            "1e-5",
            "--top-bucket",
            "10",
            "--seed",
            "7",
            "--threads",
            "4",
            "--walks-per-vertex",
            "2",
            "--counters",
        ])
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("engine"), Some("cpu-mt"));
        assert_eq!(a.get_or("variant", "vanilla"), "opt");
        assert_eq!(a.get_parsed("batch", 0usize).unwrap(), 1_000);
        assert_eq!(a.get_parsed("slides", 0usize).unwrap(), 20);
        assert_eq!(a.get_parsed("alpha", 0.0f64).unwrap(), 0.15);
        assert_eq!(a.get_parsed("epsilon", 0.0f64).unwrap(), 1e-5);
        assert_eq!(a.get_parsed("top-bucket", 0usize).unwrap(), 10);
        assert_eq!(a.get_parsed("threads", 0usize).unwrap(), 4);
        assert_eq!(a.get_parsed("walks-per-vertex", 0usize).unwrap(), 2);
        assert!(a.flag("counters"));
    }

    #[test]
    fn query_command_line() {
        let a = Args::parse([
            "query",
            "--graph",
            "edges.txt",
            "--source",
            "0",
            "--alpha",
            "0.2",
            "--epsilon",
            "1e-4",
            "--top",
            "10",
            "--threshold",
            "0.001",
            "--save-state",
            "state.bin",
        ])
        .unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.get_parsed("source", u32::MAX).unwrap(), 0);
        assert_eq!(a.get_parsed("top", 0usize).unwrap(), 10);
        assert_eq!(a.get_parsed("threshold", 0.0f64).unwrap(), 0.001);
        assert_eq!(a.get("save-state"), Some("state.bin"));
    }

    #[test]
    fn serve_command_line() {
        let a = Args::parse([
            "serve",
            "--preset",
            "small-sim",
            "--port",
            "7171",
            "--threads",
            "4",
            "--sources",
            "0,3,9",
            "--cache-capacity",
            "2048",
            "--session-capacity",
            "32",
            "--alpha",
            "0.15",
            "--epsilon",
            "1e-4",
            "--batch",
            "500",
            "--max-slides",
            "100",
            "--slide-pause-ms",
            "5",
            "--run-secs",
            "60",
            "--seed",
            "7",
            "--read-timeout-ms",
            "5000",
            "--write-timeout-ms",
            "8000",
            "--shed-after-ms",
            "250",
            "--trace-sample",
            "10",
            "--trace-capacity",
            "512",
            "--audit-sample",
            "8",
            "--audit-interval-ms",
            "250",
            "--slo-p99-ms",
            "50",
            "--slo-availability",
            "0.999",
            "--slo-topk-overlap",
            "0.9",
        ])
        .unwrap();
        assert_eq!(a.command, "serve");
        assert_eq!(a.get_parsed("port", 0u16).unwrap(), 7171);
        assert_eq!(a.get_parsed("threads", 0usize).unwrap(), 4);
        assert_eq!(a.get("sources"), Some("0,3,9"));
        assert_eq!(a.get_parsed("cache-capacity", 0usize).unwrap(), 2_048);
        assert_eq!(a.get_parsed("session-capacity", 0usize).unwrap(), 32);
        assert_eq!(a.get_finite("alpha", 0.0).unwrap(), 0.15);
        assert_eq!(a.get_finite("epsilon", 0.0).unwrap(), 1e-4);
        assert_eq!(a.get_parsed("batch", 0usize).unwrap(), 500);
        assert_eq!(a.get_parsed("max-slides", 0usize).unwrap(), 100);
        assert_eq!(a.get_parsed("slide-pause-ms", 0u64).unwrap(), 5);
        assert_eq!(a.get_parsed("run-secs", 0u64).unwrap(), 60);
        assert_eq!(a.get_parsed("read-timeout-ms", 0u64).unwrap(), 5_000);
        assert_eq!(a.get_parsed("write-timeout-ms", 0u64).unwrap(), 8_000);
        assert_eq!(a.get_parsed("shed-after-ms", 0u64).unwrap(), 250);
        assert_eq!(a.get_parsed("trace-sample", 0u64).unwrap(), 10);
        assert_eq!(a.get_parsed("trace-capacity", 1024usize).unwrap(), 512);
        assert_eq!(a.get_parsed("audit-sample", 0usize).unwrap(), 8);
        assert_eq!(a.get_parsed("audit-interval-ms", 500u64).unwrap(), 250);
        assert_eq!(a.get_finite("slo-p99-ms", 0.0).unwrap(), 50.0);
        assert_eq!(a.get_finite("slo-availability", 0.0).unwrap(), 0.999);
        assert_eq!(a.get_finite("slo-topk-overlap", 0.0).unwrap(), 0.9);

        // An ephemeral-port line with top-degree source picking instead of
        // an explicit list.
        let a = Args::parse([
            "serve",
            "--graph",
            "edges.txt",
            "--undirected",
            "--port",
            "0",
            "--num-sources",
            "8",
        ])
        .unwrap();
        assert_eq!(a.get_parsed("port", 7171u16).unwrap(), 0);
        assert_eq!(a.get_parsed("num-sources", 4usize).unwrap(), 8);
        assert!(a.flag("undirected"));
        assert!(a.get("sources").is_none());

        // A durable line: WAL + checkpoint tuning.
        let a = Args::parse([
            "serve",
            "--preset",
            "small-sim",
            "--data-dir",
            "/tmp/dppr",
            "--fsync",
            "interval:25",
            "--checkpoint-every",
            "16",
            "--segment-kb",
            "4096",
        ])
        .unwrap();
        assert_eq!(a.get("data-dir"), Some("/tmp/dppr"));
        assert_eq!(a.get("fsync"), Some("interval:25"));
        assert_eq!(a.get_parsed("checkpoint-every", 64u64).unwrap(), 16);
        assert_eq!(a.get_parsed("segment-kb", 8192u64).unwrap(), 4_096);
    }

    #[test]
    fn exact_command_line() {
        let a = Args::parse([
            "exact",
            "--preset",
            "small-sim",
            "--undirected",
            "--source",
            "3",
            "--alpha",
            "0.15",
            "--top",
            "5",
        ])
        .unwrap();
        assert_eq!(a.command, "exact");
        assert_eq!(a.get("preset"), Some("small-sim"));
        assert!(a.flag("undirected"));
        assert_eq!(a.get_parsed("source", u32::MAX).unwrap(), 3);
        assert_eq!(a.get_parsed("top", 0usize).unwrap(), 5);
    }

    #[test]
    fn help_command_line() {
        let a = Args::parse(["help"]).unwrap();
        assert_eq!(a.command, "help");
        let a = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a.command, "");
    }
}
