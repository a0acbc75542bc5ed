//! `all` and `aa`: whole-benchmark runs, one child process per workload
//! run so that `rss_peak_mb` and every cache start cold each time.
//!
//! `aa` is the A/A calibration. It runs the same code in several sets of
//! several runs, every run on another seed, and writes `AA.md`: per
//! workload and end-to-end metric the set medians, the largest gap
//! between two set medians, and the widest within-set quartile spread,
//! both as shares of the median. A metric's bound in `BENCHMARK.json`
//! must be at least twice that gap and at least that spread on every
//! workload; a metric that would need more than 25 % is reported under
//! `tail.` and not gated.

use crate::catalog::raw_twin;
use crate::catalog::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::report::field_from_json;
use crate::stats::{iqr_over_median, median};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// One child run's whole standard output; its last line is the result.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    echo: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    // `output` waits for the child and reaps it.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    if field_from_json(line, "correct") != Some("true") {
        return Err(format!("{workload} seed {seed} was not correct: {line}"));
    }
    Ok(stdout.into_owned())
}

/// A metric's value from the `name value unit n=<samples>` lines.
fn human_metric(stdout: &str, name: &str) -> Option<f64> {
    stdout.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        (words.next() == Some(name))
            .then(|| words.next()?.parse().ok())
            .flatten()
    })
}

/// `all`: every workload untraced then traced, and the paper's headline
/// ratio `core.par_over_seq` from the two library workloads.
pub fn all(seed: u64, seconds: Option<f64>) -> Result<(), String> {
    let mut rates = BTreeMap::new();
    for w in WORKLOADS {
        for traced in [false, true] {
            let out = run_child(w.name, seed, seconds, traced, true)?;
            if !traced {
                rates.insert(w.name, human_metric(&out, "raw.updates_per_s"));
            }
        }
    }
    if let (Some(Some(par)), Some(Some(seq))) = (rates.get("push_par"), rates.get("push_seq")) {
        println!("core.par_over_seq {} ratio n=2", par / seq);
    }
    Ok(())
}

/// Reported beside the end-to-end metrics, without a bound: what kind of
/// hour it was, and the two demoted metrics whose gated cousins are the
/// median slide and the median stretch of the open loop.
const UNGATED: [&str; 3] = ["host.slowdown", "tail.slide_p90_ms", "tail.query_slo_ratio"];

/// Per (workload, metric): one vector of run values per set.
type Table = BTreeMap<(&'static str, &'static str), Vec<Vec<f64>>>;

struct Row {
    set_medians: Vec<f64>,
    /// Largest |difference| between two set medians over the overall median.
    gap: f64,
    /// Widest within-set IQR/median.
    spread: f64,
}

fn row(sets: &[Vec<f64>]) -> Row {
    let set_medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
    let overall = median(&sets.concat());
    let hi = set_medians.iter().copied().fold(f64::MIN, f64::max);
    let lo = set_medians.iter().copied().fold(f64::MAX, f64::min);
    let gap = if overall == 0.0 {
        0.0
    } else {
        (hi - lo) / overall.abs()
    };
    let spread = sets
        .iter()
        .filter(|s| s.len() >= 2)
        .map(|s| iqr_over_median(s))
        .fold(0.0, f64::max);
    Row {
        set_medians,
        gap,
        spread,
    }
}

fn render(table: &Table, sets: usize, runs: usize, base_seed: u64, seconds: f64) -> String {
    let mut md = String::from("# A/A calibration\n\n");
    md.push_str(&format!(
        "`dppr_bench aa --sets {sets} --runs {runs} --seed {base_seed} --seconds {seconds}` on a \
         {}-processor host: {sets} sets of {runs} runs of the same code, every run on another seed \
         ({base_seed}..{}), workloads interleaved.\n\n",
        crate::host::nproc(),
        base_seed + (sets * runs) as u64 - 1,
    ));
    md.push_str(
        "`gap` is the largest difference between two set medians and `spread` the widest \
         within-set interquartile range (Python's `statistics.quantiles(n=4)`), both as shares of \
         the median. A bound must be at least `2 x gap` and at least `spread` on every workload; \
         the driver additionally wants `spread` under a third of the bound.\n\n",
    );
    md.push_str(
        "The last two columns are the same statistics of the value as measured (`raw.<name>`), \
         before the reference clock rescales it; they show what the rescaling buys.\n\n",
    );
    md.push_str(
        "`host.slowdown` (not gated) says what kind of hour it was: how much slower than nominal \
         the reference slices ran over a whole run. On `push_seq`, where nothing else runs, it is \
         1.1 to 1.2 in a quiet hour and 1.3 in a slow one; elsewhere the workload's own threads \
         slow the slices too. `tail.slide_p90_ms` and `tail.query_slo_ratio` are the two metrics \
         that were gated once and are not any more (`README.md` says why).\n\n",
    );
    md.push_str("| workload | metric | set medians | gap | spread | raw gap | raw spread |\n|---|---|---|---|---|---|---|\n");
    let mut need: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for w in WORKLOADS {
        for name in UNGATED {
            let Some(sets) = table.get(&(w.name, name)) else {
                continue;
            };
            let r = row(sets);
            let medians: Vec<String> = r.set_medians.iter().map(|v| format!("{v:.4}")).collect();
            md.push_str(&format!(
                "| {} | {name} (ungated) | {} | {:.4} | {:.4} | | |\n",
                w.name,
                medians.join(" / "),
                r.gap,
                r.spread
            ));
        }
        for m in END_TO_END {
            let Some(sets) = table.get(&(w.name, m.name)) else {
                continue;
            };
            let r = row(sets);
            let medians: Vec<String> = r.set_medians.iter().map(|v| format!("{v:.4}")).collect();
            let raw = raw_twin(m.name)
                .and_then(|raw| table.get(&(w.name, raw)))
                .map(|sets| row(sets))
                .map_or("| |".to_string(), |r| {
                    format!("{:.4} | {:.4} |", r.gap, r.spread)
                });
            md.push_str(&format!(
                "| {} | {} | {} | {:.4} | {:.4} | {raw}\n",
                w.name,
                m.name,
                medians.join(" / "),
                r.gap,
                r.spread
            ));
            let e = need.entry(m.name).or_insert((0.0, 0.0));
            *e = (e.0.max(r.gap), e.1.max(r.spread));
        }
    }
    md.push_str("\n## Bounds\n\n| metric | worst gap | worst spread | needed (max of 2 x gap, spread) | 3 x spread | bound in BENCHMARK.json | verdict |\n|---|---|---|---|---|---|---|\n");
    for m in END_TO_END {
        let Some(&(gap, spread)) = need.get(m.name) else {
            continue;
        };
        let needed = (2.0 * gap).max(spread);
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        let verdict = if needed > 0.25 {
            "needs more than 25 %: demote to tail."
        } else if needed > bound || (m.name != "setup_s" && spread > bound) {
            "BOUND TOO TIGHT"
        } else if m.name != "setup_s" && 3.0 * spread > bound {
            "holds; spread above a third of the bound"
        } else {
            "holds"
        };
        md.push_str(&format!(
            "| {} | {gap:.4} | {spread:.4} | {needed:.4} | {:.4} | {bound} | {verdict} |\n",
            m.name,
            3.0 * spread
        ));
    }
    md
}

/// `aa`: runs the calibration and writes the report.
pub fn calibrate(
    sets: usize,
    runs: usize,
    base_seed: u64,
    seconds: Option<f64>,
    out: Option<PathBuf>,
) -> Result<(), String> {
    if sets < 2 || runs < 2 {
        return Err("aa needs at least 2 sets of at least 2 runs".into());
    }
    let mut table: Table = BTreeMap::new();
    for set in 0..sets {
        for run in 0..runs {
            let seed = base_seed + (set * runs + run) as u64;
            for w in WORKLOADS {
                let out = run_child(w.name, seed, seconds, false, false)?;
                eprintln!("aa set {set} run {run} {} seed {seed} done", w.name);
                let names = END_TO_END
                    .iter()
                    .flat_map(|m| [Some(m.name), raw_twin(m.name)])
                    .chain(UNGATED.map(Some));
                for name in names.flatten() {
                    // The library workloads have no open loop to take
                    // `tail.query_slo_ratio` over.
                    let Some(v) = human_metric(&out, name) else {
                        if UNGATED.contains(&name) {
                            continue;
                        }
                        return Err(format!("{} did not report {name}", w.name));
                    };
                    let cell = table
                        .entry((w.name, name))
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    cell[set].push(v);
                }
            }
        }
    }
    let md = render(
        &table,
        sets,
        runs,
        base_seed,
        seconds.unwrap_or(RUN_SECONDS as f64),
    );
    let path = out.unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/AA.md")));
    std::fs::write(&path, &md).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{md}");
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_and_spread_are_shares_of_the_median() {
        let r = row(&[vec![9.0, 10.0, 11.0], vec![10.0, 11.0, 12.0]]);
        assert_eq!(r.set_medians, vec![10.0, 11.0]);
        // Overall median 10.5, set medians one apart.
        assert!((r.gap - 1.0 / 10.5).abs() < 1e-12);
        // statistics.quantiles([9,10,11], n=4) = [9, 10, 11]: IQR 2 over 10.
        assert!((r.spread - 0.2).abs() < 1e-12);
    }

    #[test]
    fn report_names_every_measured_pair_and_flags_tight_bounds() {
        let mut table: Table = BTreeMap::new();
        for w in WORKLOADS {
            for m in END_TO_END {
                table.insert(
                    (w.name, m.name),
                    vec![vec![100.0, 100.5, 101.0], vec![100.2, 100.6, 101.0]],
                );
            }
        }
        // One pair twice as noisy as any bound allows.
        table.insert(
            ("push_par", "updates_per_s"),
            vec![vec![50.0, 100.0, 150.0], vec![100.0, 160.0, 220.0]],
        );
        let md = render(&table, 2, 3, 1, 18.0);
        assert_eq!(md.matches("| push_seq |").count(), END_TO_END.len());
        let line = md
            .lines()
            .find(|l| l.starts_with("| updates_per_s |"))
            .unwrap();
        assert!(line.ends_with("demote to tail. |"), "{line}");
        let line = md
            .lines()
            .find(|l| l.starts_with("| rss_peak_mb |"))
            .unwrap();
        assert!(line.ends_with("| holds |"), "{line}");
    }
}
