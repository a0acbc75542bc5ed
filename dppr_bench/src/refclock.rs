//! A reference clock for a host whose speed will not hold still.
//!
//! On the 2-processor sandbox this benchmark is calibrated on, the same
//! loop runs anywhere between 1x and 1.5x its best time, and the factor
//! drifts: within a minute by 10–30 %, and for an hour at a time by a
//! third. Ten runs of `push_seq`, one after the other in such a spell,
//! had median slides of 63 to 90 ms (quartile spread 0.19); `serve_read`'s
//! closed loop did 33,000 to 50,000 requests per CPU second (0.20). No
//! amount of work inside a run averages that away, because a whole run
//! lands in a fast or a slow spell, and a bound may be 0.25 at most.
//!
//! What does cancel it is a reference measured at the same moments on the
//! same thread: a fixed loop of dependent random reads over a 2 MiB and an
//! 8 MiB table (the character of a push, and the two cache levels its
//! working set straddles), run as a *tick* of a few 1 ms slices before and
//! after every timed sample. A sample is one slide, one chunk of a fixed
//! number of requests, one set-up: something short enough that the two
//! ticks around it saw the host it saw. The sample is divided by how much
//! slower than [`NOMINAL_NS`] the mean slice of those two ticks ran, and a
//! run reports the median (or another order statistic) of all its samples
//! in these *reference units*. Recomputed that way from per-sample dumps
//! of the same ten runs: slides 0.04, closed loop 0.07. Pairing sample by
//! sample matters: dividing a repetition's median by the mean slice over
//! its whole phase, which is what this file did first, left them at 0.09
//! and 0.12.
//!
//! A sampler on a thread of its own was tried first and made things
//! worse: on two processors it lands beside the measured thread or on top
//! of it, and then it measures where the scheduler put it, not the host.
//!
//! The as-measured values are reported next to the rescaled ones as
//! `raw.<name>`, and `host.slowdown` is the factor over the whole run. The
//! slices cost about a tenth of the run, the same on every commit.
//!
//! A tick runs between two timed samples, never beside one on a thread of
//! its own, so what is timed cannot slow it down, with one exception: in
//! `serve_write`'s open loop the writer and its checkpointer run on while
//! the generator's thread ticks. A change that made them use far more
//! cache or memory bandwidth would slow those slices and hide part of its
//! own cost; `raw.*` would show it.

use crate::host::thread_cpu_s;
use std::time::Instant;

/// Table sizes in 8-byte words: 2 MiB and 8 MiB.
const SMALL_WORDS: usize = 1 << 18;
const LARGE_WORDS: usize = 1 << 20;
/// Dependent random accesses per table per slice.
const SLICE_ITERS: usize = 80_000;
/// What one slice takes on the calibration sandbox in a quiet spell. It
/// only fixes the scale of "reference milliseconds"; any constant would
/// make the metrics equally steady.
pub const NOMINAL_NS: f64 = 1_000_000.0;
/// A tick of at least this many slices drops its slowest one, so that one
/// rare 50 ms stall inside a slice does not decide the sample beside it.
const TRIM_FROM: usize = 4;

/// Which of a slice's two timings stands for the host's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceClock {
    /// Wall time: for an operation that has the process to itself,
    /// because the processor taken away mid-slice is taken away from the
    /// operation just the same.
    Wall,
    /// CPU time of the ticking thread: for a phase in which a server's own
    /// threads keep the processors busy, where a slice's wall time would
    /// mostly measure how often the scheduler put one of them in front of
    /// it. Wall time where the platform does not report it.
    ThreadCpu,
}

/// The mean slice of one tick, on both clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    pub wall_ns: f64,
    pub cpu_ns: f64,
}

/// How much slower than nominal the host ran around a sample bracketed by
/// the ticks `before` and `after`.
pub fn slowdown(before: Tick, after: Tick, clock: SliceClock) -> f64 {
    let ns = match clock {
        SliceClock::Wall => before.wall_ns + after.wall_ns,
        SliceClock::ThreadCpu => before.cpu_ns + after.cpu_ns,
    };
    ns / 2.0 / NOMINAL_NS
}

/// One thread's share of a slice: its own tables and random sequence.
struct Lane {
    small: Vec<u64>,
    large: Vec<u64>,
    x: u64,
}

impl Lane {
    fn new(i: u64) -> Lane {
        Lane {
            small: (0..SMALL_WORDS as u64).collect(),
            large: (0..LARGE_WORDS as u64).collect(),
            x: 0x9E37_79B9_7F4A_7C15 ^ (i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        }
    }

    fn walk(&mut self) {
        walk(&mut self.small, &mut self.x);
        walk(&mut self.large, &mut self.x);
    }
}

/// The reference loop and the ticks taken so far.
pub struct RefClock {
    /// One lane per thread a slice can keep busy. A slice over several
    /// lanes spawns scoped threads and waits for the slowest, as one round
    /// of a parallel push does: it then also tracks what thread start-up
    /// and a disturbed second processor cost at that moment.
    lanes: Vec<Lane>,
    ticks: Vec<(Instant, Tick)>,
}

fn walk(table: &mut [u64], x: &mut u64) {
    let mask = table.len() - 1;
    for i in 0..SLICE_ITERS {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let j = (*x as usize) & mask;
        let k = i & mask;
        table[k] = table[k].wrapping_add(table[j] ^ 3);
    }
}

/// The mean of `ns` without its largest entry once there are
/// [`TRIM_FROM`] of them.
fn trimmed_mean(ns: &mut [f64]) -> f64 {
    ns.sort_by(|a, b| a.total_cmp(b));
    let keep = if ns.len() >= TRIM_FROM {
        ns.len() - 1
    } else {
        ns.len()
    };
    ns[..keep].iter().sum::<f64>() / keep as f64
}

impl RefClock {
    /// A clock whose widest slices keep `width` threads busy (at least the
    /// calling one).
    pub fn new(width: usize) -> RefClock {
        RefClock {
            lanes: (0..width.max(1) as u64).map(Lane::new).collect(),
            ticks: Vec::with_capacity(4096),
        }
    }

    /// Runs and times `slices` slices (at least one) over the first
    /// `lanes` lanes: the first on the calling thread, every other on a
    /// scoped thread of its own.
    pub fn tick(&mut self, slices: usize, lanes: usize) -> Tick {
        let lanes = lanes.clamp(1, self.lanes.len());
        let at = Instant::now();
        let (mut wall, mut cpu) = (Vec::with_capacity(slices), Vec::with_capacity(slices));
        for _ in 0..slices.max(1) {
            let t = Instant::now();
            let cpu0 = thread_cpu_s();
            let (own, others) = self.lanes[..lanes]
                .split_first_mut()
                .expect("a clock has at least one lane");
            std::thread::scope(|s| {
                for lane in others {
                    s.spawn(|| lane.walk());
                }
                own.walk();
            });
            let wall_ns = t.elapsed().as_nanos() as f64;
            wall.push(wall_ns);
            cpu.push(match (cpu0, thread_cpu_s()) {
                (Some(a), Some(b)) => (b - a) * 1e9,
                _ => wall_ns,
            });
        }
        std::hint::black_box(&self.lanes);
        let tick = Tick {
            wall_ns: trimmed_mean(&mut wall),
            cpu_ns: trimmed_mean(&mut cpu),
        };
        self.ticks.push((at, tick));
        tick
    }

    /// The mean wall-time slowdown over the ticks taken since `since`; 1
    /// when there are none.
    pub fn slowdown_since(&self, since: Instant) -> f64 {
        let ns: Vec<f64> = self
            .ticks
            .iter()
            .filter(|(at, _)| *at >= since)
            .map(|(_, t)| t.wall_ns)
            .collect();
        if ns.is_empty() {
            1.0
        } else {
            ns.iter().sum::<f64>() / ns.len() as f64 / NOMINAL_NS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tick_is_the_mean_slice_without_its_slowest() {
        assert_eq!(trimmed_mean(&mut [1.0, 2.0, 3.0]), 2.0);
        // One slice caught a stall: it does not count.
        assert_eq!(trimmed_mean(&mut [2.0, 400.0, 1.0, 3.0]), 2.0);
        // Frequent slow slices do.
        assert_eq!(trimmed_mean(&mut [6.0, 6.0, 1.0, 1.0, 6.0]), 3.5);
        assert_eq!(trimmed_mean(&mut [5.0]), 5.0);
    }

    #[test]
    fn a_sample_is_rescaled_by_the_two_ticks_around_it() {
        let tick = |wall_ns, cpu_ns| Tick { wall_ns, cpu_ns };
        let (a, b) = (
            tick(NOMINAL_NS, NOMINAL_NS / 2.0),
            tick(2.0 * NOMINAL_NS, 1.5 * NOMINAL_NS),
        );
        assert_eq!(slowdown(a, b, SliceClock::Wall), 1.5);
        assert_eq!(slowdown(a, b, SliceClock::ThreadCpu), 1.0);
        assert_eq!(slowdown(a, a, SliceClock::Wall), 1.0);
    }

    #[test]
    fn ticks_are_timed_on_the_calling_thread() {
        let mut clock = RefClock::new(2);
        let t0 = Instant::now();
        let tick = clock.tick(3, 2);
        assert!(tick.wall_ns > 0.0 && tick.cpu_ns > 0.0);
        assert!(tick.cpu_ns <= tick.wall_ns * 1.5, "{tick:?}");
        let f = clock.slowdown_since(t0);
        assert!(f > 0.05 && f < 50.0, "factor {f}");
        assert_eq!(clock.slowdown_since(Instant::now()), 1.0);
    }
}
