//! The `figures` binary: one subcommand per figure, table, theorem check
//! or ablation of the paper that this repository reproduces. [`FIGURES`]
//! is the only place an entry is registered; each entry's module holds its
//! `run(scale)` and prints TSV (a `#` title line, a column line, data
//! rows) on stdout.

use crate::ExperimentScale;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

mod ablation_frontier;
mod ablation_neighbor;
mod fig10_scalability;
mod fig4_optimizations;
mod fig5_throughput;
mod fig6_epsilon;
mod fig7_source;
mod fig8_batch;
mod fig9_profiling;
mod motivation_scratch;
mod theory_loss;
mod theory_ops;
mod tune_threshold;

/// `(subcommand, what it reproduces, entry point)`.
#[rustfmt::skip]
pub const FIGURES: &[(&str, &str, fn(ExperimentScale))] = &[
    ("fig4_optimizations", "Fig. 4: Table-3 push variants", fig4_optimizations::run),
    ("fig5_throughput", "Fig. 5: engine line-up throughput", fig5_throughput::run),
    ("fig6_epsilon", "Fig. 6: ε sweep", fig6_epsilon::run),
    ("fig7_source", "Fig. 7: source-degree sweep", fig7_source::run),
    ("fig8_batch", "Fig. 8: batch-size sweep", fig8_batch::run),
    ("fig9_profiling", "Fig. 9 / Table 4: profiling counters", fig9_profiling::run),
    ("fig10_scalability", "Fig. 10: thread scaling", fig10_scalability::run),
    ("theory_ops", "Thm. 3: sequential-vs-parallel op counts", theory_ops::run),
    ("theory_loss", "Lemma 4: parallel loss", theory_loss::run),
    ("motivation_scratch", "§1: from-scratch recomputation cost", motivation_scratch::run),
    ("tune_threshold", "sizing probe for PushOpts::seq_threshold", tune_threshold::run),
    ("ablation_frontier", "§4.2: frontier-generation strategies", ablation_frontier::run),
    ("ablation_neighbor", "§3.1 fn. 2: atomic adds vs sort-and-aggregate", ablation_neighbor::run),
];

/// What the command line asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invocation {
    /// `figures list`
    List,
    /// `figures all [--full]`
    All(ExperimentScale),
    /// `figures <name> [--full]`, as an index into [`FIGURES`].
    One(usize, ExperimentScale),
}

/// The usage text: the synopsis plus every entry of [`FIGURES`].
pub fn usage() -> String {
    let mut text = String::from("usage: figures <name | all | list> [--full]\n");
    for (name, what, _) in FIGURES {
        text.push_str(&format!("  {name:<20}{what}\n"));
    }
    text
}

/// Parses the arguments after the program name. Anything but one known
/// name optionally followed by `--full` is an error carrying [`usage`].
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let (name, scale) = match args {
        [name] => (name, ExperimentScale::Quick),
        [name, flag] if flag == "--full" => (name, ExperimentScale::Full),
        _ => return Err(usage()),
    };
    match (name.as_str(), scale) {
        ("list", ExperimentScale::Quick) => Ok(Invocation::List),
        ("all", _) => Ok(Invocation::All(scale)),
        _ => FIGURES
            .iter()
            .position(|(n, _, _)| n == name)
            .map(|i| Invocation::One(i, scale))
            .ok_or_else(usage),
    }
}

/// Runs every entry as a child process of this executable (so each
/// starts from a cold heap and a panic fails only its own entry), passes
/// its output through, and counts data rows: non-`#` lines after the
/// column line. Returns the names that exited non-zero or printed none.
fn run_all(scale: ExperimentScale) -> std::io::Result<Vec<&'static str>> {
    let exe = std::env::current_exe()?;
    let mut failed = Vec::new();
    for &(name, _, _) in FIGURES {
        let mut cmd = Command::new(&exe);
        cmd.arg(name).stdout(Stdio::piped());
        if scale == ExperimentScale::Full {
            cmd.arg("--full");
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut table_lines = 0usize;
        for line in BufReader::new(stdout).lines() {
            let line = line?;
            println!("{line}");
            table_lines += usize::from(!line.starts_with('#'));
        }
        if !child.wait()?.success() || table_lines < 2 {
            failed.push(name);
        }
    }
    Ok(failed)
}

/// `main` of the `figures` binary. Exit status: 0 ok, 1 when `all` had a
/// failing or empty entry, 2 for a usage error.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(usage) => {
            eprint!("{usage}");
            ExitCode::from(2)
        }
        Ok(Invocation::List) => {
            for (name, what, _) in FIGURES {
                println!("{name}\t{what}");
            }
            ExitCode::SUCCESS
        }
        Ok(Invocation::One(i, scale)) => {
            FIGURES[i].2(scale);
            ExitCode::SUCCESS
        }
        Ok(Invocation::All(scale)) => match run_all(scale) {
            Ok(failed) if failed.is_empty() => ExitCode::SUCCESS,
            Ok(failed) => {
                eprintln!(
                    "figures all: failed or printed no data row: {}",
                    failed.join(", ")
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("figures all: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names() -> Vec<&'static str> {
        FIGURES.iter().map(|&(name, _, _)| name).collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The subcommands are the eleven former binaries plus the two
    /// ablations that came in from `benches/`, each once.
    #[test]
    fn table_names() {
        let mut want = vec![
            "fig4_optimizations",
            "fig5_throughput",
            "fig6_epsilon",
            "fig7_source",
            "fig8_batch",
            "fig9_profiling",
            "fig10_scalability",
            "theory_ops",
            "theory_loss",
            "motivation_scratch",
            "tune_threshold",
            "ablation_frontier",
            "ablation_neighbor",
        ];
        let mut got = names();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    /// Every `--bin figures -- <name>` the docs show must run, and
    /// README's figure list must show every entry.
    #[test]
    fn documented_commands_exist() {
        let readme = include_str!("../../../../README.md");
        let skill = include_str!("../../../../.claude/skills/verify/SKILL.md");
        let documented = |text: &'static str| -> BTreeSet<&'static str> {
            text.split("--bin figures -- ")
                .skip(1)
                .filter_map(|rest| rest.split_whitespace().next())
                .collect()
        };
        let known: BTreeSet<&str> = names().into_iter().chain(["all", "list"]).collect();
        for (file, text) in [("README.md", readme), ("SKILL.md", skill)] {
            let shown = documented(text);
            assert!(!shown.is_empty(), "{file} shows no figures command");
            let unknown: Vec<_> = shown.difference(&known).collect();
            assert!(
                unknown.is_empty(),
                "{file} names unknown figures: {unknown:?}"
            );
        }
        let shown = documented(readme);
        let missing: Vec<_> = names().into_iter().filter(|n| !shown.contains(n)).collect();
        assert!(
            missing.is_empty(),
            "README's figure list lacks: {missing:?}"
        );
    }

    #[test]
    fn parse_accepts_names_and_scale() {
        assert_eq!(parse(&args(&["list"])), Ok(Invocation::List));
        assert_eq!(
            parse(&args(&["all"])),
            Ok(Invocation::All(ExperimentScale::Quick))
        );
        assert_eq!(
            parse(&args(&["all", "--full"])),
            Ok(Invocation::All(ExperimentScale::Full))
        );
        for (i, name) in names().into_iter().enumerate() {
            assert_eq!(
                parse(&args(&[name])),
                Ok(Invocation::One(i, ExperimentScale::Quick))
            );
            assert_eq!(
                parse(&args(&[name, "--full"])),
                Ok(Invocation::One(i, ExperimentScale::Full))
            );
        }
    }

    #[test]
    fn parse_rejects_everything_else() {
        for bad in [
            &[][..],
            &["nope"],
            &["fig5_throughput", "--ful"],
            &["fig5_throughput", "--quick"],
            &["--full"],
            &["--full", "fig5_throughput"],
            &["list", "--full"],
            &["fig5_throughput", "--full", "extra"],
        ] {
            assert_eq!(parse(&args(bad)), Err(usage()), "{bad:?}");
        }
        for name in names() {
            assert!(usage().contains(name));
        }
    }
}
