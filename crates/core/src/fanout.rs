//! The workspace's one fork-join primitive: the paper's "parallel session,
//! then `synchronize`" (Algorithms 3–4), on scoped OS threads.
//!
//! A fan-out splits its input into `min(threads, n)` contiguous parts, runs
//! part 0 on the calling thread and the others on threads of one
//! [`std::thread::scope`] (whose join is the barrier), and folds the
//! per-part results **in part order**. With one part it is a plain call of
//! the body on the caller's stack — no thread, no scope, no allocation —
//! so `threads = 1` is an exact, deterministic schedule, not a slower
//! parallel one.

use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

/// Inputs shorter than this are not worth a thread spawn (tens of µs per
/// scope against ~10 ns per item): the default `PushOpts::seq_threshold`,
/// and the cut-off [`threads_for`] applies.
pub const FAN_OUT_MIN: usize = 4096;

/// The host's available parallelism, read once per process.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Thread count for a fan-out over `n` items by a caller with no knob of
/// its own: inline below [`FAN_OUT_MIN`], every core from there on.
pub fn threads_for(n: usize) -> usize {
    if n < FAN_OUT_MIN {
        1
    } else {
        default_threads()
    }
}

/// Merge for fan-outs that collect: `b`'s items after `a`'s.
pub fn concat<T>(mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
    a.append(&mut b);
    a
}

/// Runs `body` over `min(threads, n)` contiguous sub-ranges covering `0..n`
/// and merges the results in range order.
pub fn fan_out<R: Send>(
    n: usize,
    threads: usize,
    body: impl Fn(Range<usize>) -> R + Sync,
    merge: impl FnMut(R, R) -> R,
) -> R {
    let parts = threads.min(n);
    if parts <= 1 {
        return body(0..n);
    }
    let ranges = (0..parts).map(|i| i * n / parts..(i + 1) * n / parts);
    scoped(ranges, &body, merge)
}

/// [`fan_out`] over at most `min(threads, n)` equal-sized disjoint mutable
/// chunks of `data`; `body` also receives the index of its chunk's first
/// element.
pub fn fan_out_chunks<T: Send, R: Send>(
    data: &mut [T],
    threads: usize,
    body: impl Fn(usize, &mut [T]) -> R + Sync,
    merge: impl FnMut(R, R) -> R,
) -> R {
    let n = data.len();
    let parts = threads.min(n);
    if parts <= 1 {
        return body(0, data);
    }
    let size = n.div_ceil(parts);
    let chunks = data.chunks_mut(size).enumerate();
    scoped(chunks, &|(i, chunk)| body(i * size, chunk), merge)
}

/// First part on the caller, the others on scoped threads; a panic in any
/// part resurfaces on the caller once every thread has been joined.
fn scoped<P: Send, R: Send>(
    mut parts: impl Iterator<Item = P>,
    body: &(impl Fn(P) -> R + Sync),
    mut merge: impl FnMut(R, R) -> R,
) -> R {
    let first = parts.next().expect("a fan-out has at least one part");
    thread::scope(|s| {
        let spawned: Vec<_> = parts.map(|p| s.spawn(move || body(p))).collect();
        let head = body(first);
        spawned.into_iter().fold(head, |acc, handle| match handle.join() {
            Ok(r) => merge(acc, r),
            Err(payload) => std::panic::resume_unwind(payload),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn ranges_cover_the_input_once_and_in_order() {
        let threads = 4;
        for n in [0, 1, threads - 1, threads, 10 * threads + 3] {
            let seen = Mutex::new(Vec::new());
            let merged = fan_out(
                n,
                threads,
                |r| {
                    seen.lock()
                        .expect("no panic under the lock")
                        .push(r.clone());
                    r.collect::<Vec<usize>>()
                },
                concat,
            );
            assert_eq!(merged, (0..n).collect::<Vec<_>>(), "n = {n}");
            let seen = seen.into_inner().expect("no panic under the lock");
            assert_eq!(seen.len(), threads.min(n).max(1), "n = {n}");

            let mut data = vec![0usize; n];
            let offsets = fan_out_chunks(
                &mut data,
                threads,
                |offset, chunk| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot += offset + i + 1;
                    }
                    vec![(offset, chunk.len())]
                },
                concat,
            );
            assert_eq!(data, (1..=n).collect::<Vec<_>>(), "n = {n}");
            let mut next = 0;
            for (offset, len) in offsets {
                assert_eq!(offset, next, "n = {n}");
                next += len;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn one_part_runs_on_the_caller() {
        let me = thread::current().id();
        let on_caller =
            |n, threads| fan_out(n, threads, |_| thread::current().id() == me, |a, b| a && b);
        assert!(on_caller(100, 1));
        assert!(on_caller(100, 0));
        assert!(on_caller(1, 8));
        assert!(on_caller(0, 8));
        assert!(!on_caller(100, 2), "part 1 of 2 runs on a spawned thread");
        let mut one = [0u8];
        assert!(fan_out_chunks(
            &mut one,
            8,
            |_, _| thread::current().id() == me,
            |a, b| a && b
        ));
        // Part 0 stays on the caller when the rest fan out.
        let firsts = fan_out(100, 3, |r| vec![(r.start, thread::current().id())], concat);
        assert_eq!(firsts[0], (0, me));
        assert!(firsts[1..].iter().all(|&(_, id)| id != me));
    }

    #[test]
    fn results_merge_in_range_order() {
        // Ranges are made to finish last-first (each waits for its right
        // neighbour's turn); the fold still sees them first-last.
        let turn = AtomicUsize::new(30);
        let order = fan_out(
            40,
            4,
            |r| {
                while turn.load(Ordering::SeqCst) != r.start {
                    thread::yield_now();
                }
                turn.store(r.start.wrapping_sub(10), Ordering::SeqCst);
                vec![r.start]
            },
            concat,
        );
        assert_eq!(order, vec![0, 10, 20, 30]);
    }

    #[test]
    fn a_panicking_part_propagates() {
        for bad in [0usize, 25] {
            let r = std::panic::catch_unwind(|| {
                fan_out(100, 4, |r| assert!(!r.contains(&bad), "boom"), |(), ()| ())
            });
            assert!(r.is_err(), "panic in the part holding {bad} was swallowed");
        }
    }

    #[test]
    fn default_threads_is_positive_and_gates_on_size() {
        assert!(default_threads() >= 1);
        assert_eq!(threads_for(FAN_OUT_MIN - 1), 1);
        assert_eq!(threads_for(FAN_OUT_MIN), default_threads());
    }
}
