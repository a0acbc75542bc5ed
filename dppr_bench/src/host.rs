//! What the host was doing while the benchmark ran.
//!
//! On a small shared sandbox the hypervisor can take a tenth of the
//! processor away for seconds at a time. These readings do not correct
//! any metric; they let a reader tell a noisy run from a real change.
//! Everything comes from procfs and reads as 0 where procfs is absent.

use std::fs;

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative host CPU time from the first line of `/proc/stat`, in
/// clock ticks: `(steal, total)`.
fn host_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    let total = fields.iter().take(8).sum();
    (steal, total)
}

/// One of the kernel's CPU-time clocks in seconds, where the platform has
/// `clock_gettime` with Linux's clock ids and a 64-bit `timespec`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_s(clock_id: i32) -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which on 64-bit Linux is two 64-bit integers, the layout
    // of `Timespec`; the pointer is to a live local.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_s(_clock_id: i32) -> Option<f64> {
    None
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has consumed, where the platform says.
pub fn thread_cpu_s() -> Option<f64> {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds this process has consumed (user + system, all threads,
/// including threads that already exited).
pub fn process_cpu_s() -> f64 {
    if let Some(s) = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) {
        return s;
    }
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after ")".
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // USER_HZ is 100 on every Linux ABI the toolchain targets.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process so far in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// OS threads alive in this process right now.
pub fn threads_now() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "Threads:"))
        .unwrap_or(0)
}

/// Context switches (voluntary + involuntary) summed over the threads
/// alive right now. Threads that already exited are not counted, so a
/// delta over a phase is a lower bound.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// Readings taken when a run starts, to be diffed when it ends.
pub struct HostWindow {
    steal: u64,
    total: u64,
    ctx: u64,
}

impl HostWindow {
    /// Starts a window.
    pub fn open() -> Self {
        let (steal, total) = host_ticks();
        HostWindow {
            steal,
            total,
            ctx: ctx_switches(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `open`.
    pub fn steal_ratio(&self) -> f64 {
        let (steal, total) = host_ticks();
        let dt = total.saturating_sub(self.total);
        if dt == 0 {
            0.0
        } else {
            steal.saturating_sub(self.steal) as f64 / dt as f64
        }
    }

    /// Context switches since `open` (see [`ctx_switches`]).
    pub fn ctx_switches(&self) -> u64 {
        ctx_switches().saturating_sub(self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  123456 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(s, "VmHWM:"), Some(123_456));
        assert_eq!(status_field(s, "Threads:"), Some(7));
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), Some(42));
        assert_eq!(status_field(s, "Missing:"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_readings_are_sane() {
        assert!(nproc() >= 1);
        assert!(rss_peak_mb() > 0.0);
        assert!(threads_now() >= 1);
        let w = HostWindow::open();
        assert!((0.0..=1.0).contains(&w.steal_ratio()));
        assert!(process_cpu_s() > 0.0);
        assert!(thread_cpu_s().is_some_and(|s| s > 0.0 && s <= process_cpu_s()));
    }
}
