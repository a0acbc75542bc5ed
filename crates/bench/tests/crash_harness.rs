//! Runs the full crash-injection harness as a test: every kill point
//! and corruption case must recover bit-identically to the uncrashed
//! baseline. The harness re-execs itself with `DPPR_CRASH` set, so this
//! is the one place the fault sites' positive paths actually fire.

#[test]
fn crash_recovery_matrix_passes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_crash_recovery"))
        .output()
        .expect("running the crash_recovery harness");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "harness failed (exit {:?})\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status.code()
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.ends_with("all ok"), "no closing all-ok line:\n{stdout}");
}
