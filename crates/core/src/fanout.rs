//! The workspace's one fork-join primitive: the paper's "parallel session,
//! then `synchronize`" (Algorithms 3–4), on scoped OS threads.
//!
//! `with_crew` opens one [`std::thread::scope`] with `threads − 1`
//! helpers, a `Crew`. Each `Crew::run` splits its input into
//! `min(threads, n)` contiguous parts, runs part 0 on the calling thread,
//! hands the others to the helpers through a barrier, and folds the
//! per-part results **in part order**. A panic in any part resurfaces on
//! the caller once every part has finished. The helpers spin briefly, then
//! park, while the caller runs between fan-outs, and leave when the scope
//! closes, so none outlives the call that opened it.
//!
//! A push fans out once per round, and its rounds share one crew. A
//! [`fan_out`] is a one-shot crew: one split, one merge, then the scope
//! closes. With one part it is a plain call of the body on the caller's
//! stack — no thread, no scope, no allocation — so `threads = 1` is an
//! exact, deterministic schedule, not a slower parallel one.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

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

/// Whether a fan-out over `n` items on `threads` threads is one part: a
/// plain call of the body on the calling thread, which then owns whatever
/// the body touches until it returns.
pub(crate) fn one_part(n: usize, threads: usize) -> bool {
    threads.min(n) <= 1
}

/// Part `i` of `parts` contiguous ranges covering `0..n`: the split of
/// [`Crew::run`].
fn part(i: usize, n: usize, parts: usize) -> Range<usize> {
    i * n / parts..(i + 1) * n / parts
}

/// Runs `body` over `min(threads, n)` contiguous sub-ranges covering `0..n`
/// and merges the results in range order: the first range on the caller,
/// the others on the helpers of a one-shot `Crew`. A panic in any range
/// resurfaces on the caller once every range has finished.
pub fn fan_out<R: Send>(
    n: usize,
    threads: usize,
    body: impl Fn(Range<usize>) -> R + Sync,
    merge: impl FnMut(R, R) -> R,
) -> R {
    if one_part(n, threads) {
        return body(0..n);
    }
    with_crew(threads.min(n), |&(), r| body(r), |crew| crew.run((), n, merge))
}

/// Spawns `f` on `scope`, counting the spawn for this crate's tests.
fn spawn<'scope, T: Send + 'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> thread::ScopedJoinHandle<'scope, T> {
    #[cfg(test)]
    SPAWNED.with(|n| n.set(n.get() + 1));
    scope.spawn(f)
}

#[cfg(test)]
thread_local! {
    /// Threads that fan-outs called from this thread have spawned.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How long a waiter at a [`Crew`]'s barrier spins before it parks: above
/// the gap between two fan-outs of one push round, far below a session.
const SPIN: Duration = Duration::from_micros(50);

/// [`Crew`]'s `epoch` once its helpers are to leave.
const STOP: usize = usize::MAX;

/// Why a [`Crew`]'s slot and result locks are never poisoned: parts run
/// under `catch_unwind`, and nothing else that holds them can panic.
const SOUND: &str = "no panic escapes while a crew lock is held";

/// The helpers of one [`with_crew`] scope and the barrier through which
/// [`Crew::run`] hands them work.
pub(crate) struct Crew<'w, I, R> {
    work: &'w (dyn Fn(&I, Range<usize>) -> R + Sync),
    helpers: usize,
    /// The posted fan-out's input and item count. The caller writes it
    /// only while no helper is inside a fan-out.
    slot: RwLock<Option<(I, usize)>>,
    /// Bumped by each post (a Release store the helpers Acquire-load), or
    /// [`STOP`].
    epoch: AtomicUsize,
    /// Helpers yet to finish the posted fan-out; the last one's Release
    /// decrement is what the caller Acquire-waits for.
    pending: AtomicUsize,
    /// Helper `i`'s result for part `i + 1`, or its panic.
    results: Vec<Mutex<Option<thread::Result<R>>>>,
    lock: Mutex<()>,
    posted: Condvar,
    finished: Condvar,
}

/// Runs `body` with a [`Crew`] of `threads − 1` helpers (none for 0 or 1)
/// that run `work` over their parts of each [`Crew::run`]. The helpers
/// live in one [`std::thread::scope`], joined before this returns or
/// unwinds.
pub(crate) fn with_crew<I: Send + Sync, R: Send, T>(
    threads: usize,
    work: impl Fn(&I, Range<usize>) -> R + Sync,
    body: impl FnOnce(&Crew<'_, I, R>) -> T,
) -> T {
    let helpers = threads.max(1) - 1;
    let crew = Crew {
        work: &work,
        helpers,
        slot: RwLock::new(None),
        epoch: AtomicUsize::new(0),
        pending: AtomicUsize::new(0),
        results: (0..helpers).map(|_| Mutex::new(None)).collect(),
        lock: Mutex::new(()),
        posted: Condvar::new(),
        finished: Condvar::new(),
    };
    /// Sends the helpers home when `body` returns or unwinds, so that the
    /// scope's join does not wait on a parked helper.
    struct Dismiss<'c, 'w, I, R>(&'c Crew<'w, I, R>);
    impl<I, R> Drop for Dismiss<'_, '_, I, R> {
        fn drop(&mut self) {
            self.0.epoch.store(STOP, Ordering::Release);
            self.0.wake(&self.0.posted);
        }
    }
    thread::scope(|s| {
        for i in 0..helpers {
            let crew = &crew;
            spawn(s, move || crew.serve(i));
        }
        let _dismiss = Dismiss(&crew);
        body(&crew)
    })
}

impl<I: Send + Sync, R: Send> Crew<'_, I, R> {
    /// Runs the crew's `work` over `input`'s `n` items in
    /// `min(helpers + 1, n)` contiguous parts, part 0 on the caller and the
    /// others on the helpers, and merges the results in part order; a panic
    /// in any part resurfaces here once every part has finished.
    pub(crate) fn run(&self, input: I, n: usize, mut merge: impl FnMut(R, R) -> R) -> R {
        let parts = (self.helpers + 1).min(n).max(1);
        if parts == 1 {
            return (self.work)(&input, 0..n);
        }
        *self.slot.write().expect(SOUND) = Some((input, n));
        self.pending.store(self.helpers, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        self.wake(&self.posted);
        let head = {
            let slot = self.slot.read().expect(SOUND);
            let (input, _) = slot.as_ref().expect("posted above");
            catch_unwind(AssertUnwindSafe(|| (self.work)(input, part(0, n, parts))))
        };
        self.wait(&self.finished, || self.pending.load(Ordering::Acquire) == 0);
        drop(self.slot.write().expect(SOUND).take());
        let mut acc = head.unwrap_or_else(|payload| resume_unwind(payload));
        for result in &self.results[..parts - 1] {
            let r = result.lock().expect(SOUND).take();
            match r.expect("every helper with a part stores its result") {
                Ok(r) => acc = merge(acc, r),
                Err(payload) => resume_unwind(payload),
            }
        }
        acc
    }

    /// Helper `i`'s loop: wait for a post, run part `i + 1` if the post has
    /// one, report, until [`STOP`].
    fn serve(&self, i: usize) {
        let mut seen = 0;
        loop {
            self.wait(&self.posted, || self.epoch.load(Ordering::Acquire) != seen);
            seen = self.epoch.load(Ordering::Acquire);
            if seen == STOP {
                return;
            }
            {
                let slot = self.slot.read().expect(SOUND);
                let (input, n) = slot.as_ref().expect("a post fills the slot");
                let parts = (self.helpers + 1).min(*n);
                if i + 1 < parts {
                    let range = part(i + 1, *n, parts);
                    let r = catch_unwind(AssertUnwindSafe(|| (self.work)(input, range)));
                    *self.results[i].lock().expect(SOUND) = Some(r);
                }
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.wake(&self.finished);
            }
        }
    }

    /// Returns once `ready()`: spins for [`SPIN`], then parks on `cv`.
    fn wait(&self, cv: &Condvar, ready: impl Fn() -> bool) {
        let start = Instant::now();
        while start.elapsed() < SPIN {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !ready() {
            guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<I, R> Crew<'_, I, R> {
    /// Wakes the waiters parked on `cv` after a change to what they wait
    /// for. Taking the lock first means a waiter between its check and its
    /// park cannot miss the change. (The lock guards no data, so a poisoned
    /// one is as good as a sound one, and `Dismiss` cannot panic here.)
    fn wake(&self, cv: &Condvar) {
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        cv.notify_all();
    }
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
                    seen.lock().expect("no panic under the lock").push(r.clone());
                    r.collect::<Vec<usize>>()
                },
                concat,
            );
            assert_eq!(merged, (0..n).collect::<Vec<_>>(), "n = {n}");
            let seen = seen.into_inner().expect("no panic under the lock");
            assert_eq!(seen.len(), threads.min(n).max(1), "n = {n}");
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
        // `one_part` is the rule the schedule follows.
        for (n, threads) in [(100, 1), (100, 0), (1, 8), (0, 8), (100, 2), (2, 2)] {
            assert_eq!(one_part(n, threads), on_caller(n, threads), "n = {n}, {threads} threads");
        }
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

    /// What `f` returns, and the threads fan-outs spawned while it ran.
    fn spawned_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = SPAWNED.with(|n| n.get());
        let t = f();
        (t, SPAWNED.with(|n| n.get()) - before)
    }

    #[test]
    fn a_crew_splits_like_fan_out() {
        for threads in [0, 1, 2, 3, 4, 8] {
            for n in [0, 1, 2, 3, 7, 10, 103] {
                let want = fan_out(n, threads, |r| vec![r], concat);
                let got = with_crew(threads, |&(), r| vec![r], |crew| crew.run((), n, concat));
                assert_eq!(got, want, "n = {n}, {threads} threads");
            }
        }
    }

    #[test]
    fn a_crew_spawns_its_helpers_once_for_all_its_fan_outs() {
        let me = thread::current().id();
        let who = |_: &usize, _| vec![thread::current().id()];
        let (runs, spawned) = spawned_by(|| {
            with_crew(3, who, |crew| {
                (0..4)
                    .map(|i| {
                        // Long enough for the helpers to park in between.
                        thread::sleep(2 * SPIN);
                        crew.run(i, 30, concat)
                    })
                    .collect::<Vec<_>>()
            })
        });
        assert_eq!(spawned, 2);
        for ids in &runs {
            assert_eq!(ids.len(), 3);
            assert_eq!(ids[0], me, "part 0 runs on the caller");
            assert!(ids[1..].iter().all(|&id| id != me));
            assert_eq!(ids[1..], runs[0][1..], "the same helpers run every fan-out");
        }
    }

    #[test]
    fn a_panic_in_a_crew_resurfaces_on_the_caller() {
        // The second of three fan-outs panics in the part holding `bad`:
        // the caller's part 0, or a helper's. The test returning at all
        // shows that the barrier let everyone go.
        for bad in [0usize, 50, 99] {
            let r = std::panic::catch_unwind(|| {
                let work =
                    |&i: &usize, r: Range<usize>| assert!(i != 1 || !r.contains(&bad), "boom");
                with_crew(3, work, |crew| (0..3).for_each(|i| crew.run(i, 100, |(), ()| ())))
            });
            assert!(r.is_err(), "panic in the part holding {bad} was swallowed");
        }
        // So does one on the caller between fan-outs.
        let r = std::panic::catch_unwind(|| {
            with_crew(
                3,
                |&(), _| (),
                |crew| {
                    crew.run((), 100, |(), ()| ());
                    panic!("between fan-outs");
                },
            )
        });
        assert!(r.is_err());
    }

    /// A push starts a crew only at a round that fans out, and then one for
    /// all its rounds: with one thread, or every frontier under the
    /// threshold, it runs on the caller alone.
    #[test]
    fn a_push_spawns_one_crew_only_if_a_round_fans_out() {
        use crate::config::PprConfig;
        use crate::counters::Counters;
        use crate::par::{parallel_local_push_opts, ParPushBuffers, PushOpts};
        use crate::state::PprState;
        use crate::variants::PushVariant;
        use dppr_graph::{generators::erdos_renyi, DynamicGraph};

        let g = DynamicGraph::from_edges(erdos_renyi(2_000, 10_000, 3));
        let push = |variant, threads, seq_threshold| {
            let st = PprState::cold_start(PprConfig::new(0, 0.2, 1e-4), g.num_vertices());
            let (c, mut bufs) = (Counters::new(), ParPushBuffers::new());
            let opts = PushOpts { seq_threshold };
            let ((), spawned) = spawned_by(|| {
                parallel_local_push_opts(&g, &st, variant, &[0], &c, &mut bufs, opts, threads)
            });
            assert!(st.converged(), "{variant}");
            (spawned, c.snapshot().iterations)
        };
        for variant in PushVariant::ALL {
            assert_eq!(push(variant, 1, 0).0, 0, "{variant} on one thread");
            assert_eq!(push(variant, 4, usize::MAX).0, 0, "{variant} under the threshold");
            let (spawned, rounds) = push(variant, 3, 0);
            assert!(rounds > 2, "{variant}: {rounds} rounds");
            assert_eq!(spawned, 2, "{variant}: one crew of two helpers for {rounds} rounds");
        }
    }

    #[test]
    fn default_threads_is_positive_and_gates_on_size() {
        assert!(default_threads() >= 1);
        assert_eq!(threads_for(FAN_OUT_MIN - 1), 1);
        assert_eq!(threads_for(FAN_OUT_MIN), default_threads());
    }
}
