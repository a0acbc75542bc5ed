//! Process-level gauges read from `/proc/self` — std-only, no libc.
//!
//! Parsing is best-effort: on platforms without procfs (or if the
//! files change shape) every field reads as 0 rather than erroring, so
//! exporters can emit the gauges unconditionally.

use std::fs;

/// One sample of process-wide resource usage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Resident set size in bytes (`VmRSS` from `/proc/self/status`).
    pub rss_bytes: u64,
    /// Open file descriptors (entries in `/proc/self/fd`).
    pub open_fds: u64,
    /// OS threads (`Threads` from `/proc/self/status`).
    pub threads: u64,
}

impl ProcessStats {
    /// Read the current values; any unreadable field is 0.
    pub fn sample() -> ProcessStats {
        let mut stats = ProcessStats::default();
        if let Ok(status) = fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmRSS:") {
                    stats.rss_bytes = parse_kb(rest).unwrap_or(0).saturating_mul(1024);
                } else if let Some(rest) = line.strip_prefix("Threads:") {
                    stats.threads = rest.trim().parse().unwrap_or(0);
                }
            }
        }
        if let Ok(dir) = fs::read_dir("/proc/self/fd") {
            // The iterator itself holds one fd open; don't count it.
            stats.open_fds = (dir.filter(|e| e.is_ok()).count() as u64).saturating_sub(1);
        }
        stats
    }
}

/// Parses `"  123456 kB"` → `123456`.
fn parse_kb(rest: &str) -> Option<u64> {
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_kb_accepts_status_lines() {
        assert_eq!(parse_kb("  123456 kB"), Some(123_456));
        assert_eq!(parse_kb("0 kB"), Some(0));
        assert_eq!(parse_kb("garbage"), None);
        assert_eq!(parse_kb("12"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn sample_reads_live_values_on_linux() {
        let s = ProcessStats::sample();
        assert!(s.rss_bytes > 0, "VmRSS must be readable: {s:?}");
        assert!(s.threads >= 1, "at least this thread: {s:?}");
        assert!(s.open_fds >= 1, "stdin/stdout/stderr are open: {s:?}");
    }

    #[test]
    fn default_is_all_zero() {
        assert_eq!(ProcessStats::default(), ProcessStats { rss_bytes: 0, open_fds: 0, threads: 0 });
    }
}
