//! Smoke test: the shipped examples must actually run, not just compile.
//!
//! `cargo test` builds every example target of this package before the
//! test binaries execute, so the executables are guaranteed to exist
//! under `target/<profile>/examples/` next to this test's own binary.
//! The end-to-end examples are run on tiny graphs (`DPPR_EXAMPLE_N`)
//! so the smoke test stays fast; `quickstart` additionally self-checks
//! the ε-guarantee with an `assert!` before exiting, `community_sweep`
//! (a fixed 120-vertex graph) the purity of the community its sweep cut
//! finds, and `serving` spins up the real HTTP server on an ephemeral
//! port.

use std::path::PathBuf;
use std::process::Command;

/// `target/<profile>/examples/<name>`, resolved relative to the test
/// executable (`target/<profile>/deps/examples_smoke-<hash>`).
fn example_path(name: &str) -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // <hash> file -> deps/
    dir.pop(); // deps/ -> <profile>/
    let path = dir.join("examples").join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "example binary missing at {path:?}; examples should be built by `cargo test`"
    );
    path
}

fn run_tiny(name: &str) -> String {
    let out = Command::new(example_path(name))
        .env("DPPR_EXAMPLE_N", "120")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn example {name}: {e}"));
    assert!(
        out.status.success(),
        "example {name} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("example output is UTF-8")
}

#[test]
fn quickstart_runs_and_verifies_epsilon_guarantee() {
    let stdout = run_tiny("quickstart");
    // The example prints the measured max error and asserts it is <= ε
    // itself; just confirm it got to the end.
    assert!(stdout.contains("max |estimate"), "unexpected quickstart output:\n{stdout}");
    assert!(stdout.contains("top-5 by PPR"), "unexpected quickstart output:\n{stdout}");
}

#[test]
fn serving_example_answers_live_queries() {
    let stdout = run_tiny("serving");
    assert!(stdout.contains("serving sessions"), "unexpected serving output:\n{stdout}");
    assert!(stdout.contains("\"ranking\""), "no top-k response in serving output:\n{stdout}");
    assert!(
        stdout.contains("opened  ->"),
        "mid-stream session open missing in serving output:\n{stdout}"
    );
    assert!(
        stdout.contains("updates/s under load"),
        "no final report in serving output:\n{stdout}"
    );
}

#[test]
fn who_to_follow_runs_and_recommends() {
    let stdout = run_tiny("who_to_follow");
    assert!(
        stdout.contains("tracking PPR for hub users"),
        "unexpected who_to_follow output:\n{stdout}"
    );
    // The actual recommendation lines look like "  follow   123?  ppr 0.1".
    assert!(
        stdout.contains("  follow ") && stdout.contains("?  ppr "),
        "no recommendation lines in who_to_follow output:\n{stdout}"
    );
}

#[test]
fn community_sweep_finds_and_tracks_the_planted_community() {
    // The example asserts the purity of the first cut and the growth of
    // the second itself; confirm it printed both.
    let stdout = run_tiny("community_sweep");
    assert!(
        stdout.contains("members belong to the planted community"),
        "no first sweep cut in community_sweep output:\n{stdout}"
    );
    assert!(
        stdout.contains("sweep cut now has"),
        "no sweep cut after the drift in community_sweep output:\n{stdout}"
    );
}
