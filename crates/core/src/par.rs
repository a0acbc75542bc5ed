//! `ParallelLocalPush` (Algorithm 3) and `OptParallelPush` (Algorithm 4).
//!
//! One iteration of the push runs two parallel sessions separated by a
//! barrier (the join of a [`fan_out`] is the paper's `synchronize`):
//!
//! * **Vanilla order** (Algorithm 3): *self-update* first — every frontier
//!   vertex `u` atomically takes out its residual (`w = swap(Rs(u), 0)`) and
//!   banks `α·w` into the estimate — then *neighbor-propagation* of the
//!   stale snapshot `w` to the in-neighbors.
//! * **Eager order** (Algorithm 4): *neighbor-propagation* first, reading
//!   the freshest `ru = Rs(u)` at the moment `u` is processed (so residual
//!   that arrived from concurrently-pushing neighbors is propagated in the
//!   same iteration — this is *eager propagation*, §4.1), then a consistent
//!   *self-update* that subtracts exactly the `ru` that was propagated and
//!   re-enqueues `u` if what accumulated since still exceeds ε (the second
//!   frontier-generation pass, Algorithm 4 lines 22–23).
//!
//! Frontier generation is either **local duplicate detection** (§4.2): the
//! atomic add's before/after pair shows exactly one updater the crossing of
//! the ±ε threshold (residuals move monotonically within a phase), and only
//! that updater enqueues — or the baseline **atomic-flag dedup**: a shared
//! per-vertex claim bit, standing in for the synchronizing `UniqueEnqueue`
//! of Algorithm 3.

use crate::config::Phase;
use crate::counters::{Counters, LocalCounters};
use crate::fanout::{default_threads, fan_out, FAN_OUT_MIN};
use crate::seq::{dedup_seeds, LockstepTrace};
use crate::state::PprState;
use crate::variants::PushVariant;
use dppr_graph::{DynamicGraph, VertexId};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Tuning knobs for the parallel push.
#[derive(Debug, Clone, Copy)]
pub struct PushOpts {
    /// Frontiers smaller than this run the iteration on one thread — the
    /// same body on the calling thread, i.e. the one-worker schedule of the
    /// parallel push. CilkPlus gets this behaviour for free from lazy task
    /// stealing; with one `thread::scope` per session the explicit
    /// threshold is needed to avoid paying two barriers per iteration for
    /// a ten-vertex frontier. `0` fans every iteration out, `usize::MAX`
    /// none (the granularity ablation bench runs both).
    pub seq_threshold: usize,
}

impl Default for PushOpts {
    fn default() -> Self {
        PushOpts { seq_threshold: FAN_OUT_MIN }
    }
}

/// Reusable scratch for the parallel push: the claim-flag array used by the
/// non-`local_dup` variants.
#[derive(Debug, Default)]
pub struct ParPushBuffers {
    claimed: Vec<AtomicBool>,
}

impl ParPushBuffers {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.claimed.len() < n {
            self.claimed.resize_with(n, AtomicBool::default);
        }
    }
}

/// Per-range accumulator of a fanned-out session: thread-local
/// next-frontier buffer, the `(u, ru)` entry log `E` of Algorithm 4 (the
/// `(u, w)` snapshots of Algorithm 3), and local counters. Merging appends in range order, so frontier generation
/// itself never contends on shared state and a one-thread run enqueues in
/// frontier order.
struct SessAcc {
    next: Vec<VertexId>,
    entries: Vec<(VertexId, f64)>,
    lc: LocalCounters,
}

impl SessAcc {
    fn merge(mut self, mut other: SessAcc) -> SessAcc {
        self.next.append(&mut other.next);
        self.entries.append(&mut other.entries);
        self.lc.merge(&other.lc);
        self
    }
}

struct Ctx<'a> {
    g: &'a DynamicGraph,
    state: &'a PprState,
    alpha: f64,
    eps: f64,
    variant: PushVariant,
    claimed: &'a [AtomicBool],
}

impl Ctx<'_> {
    /// Neighbor-propagation for one frontier vertex: transfer
    /// `(1−α)·w / dout(v)` to every in-neighbor `v` and generate frontier
    /// candidates according to the variant's dedup scheme.
    #[inline]
    fn propagate(&self, u: VertexId, w: f64, phase: Phase, acc: &mut SessAcc) {
        acc.lc.pushes += 1;
        let scaled = (1.0 - self.alpha) * w;
        let r = self.state.r_atomics();
        // Division-free inner loop: multiply by the graph-maintained 1/dout
        // (v has the edge v→u, so dout(v) ≥ 1).
        for &v in self.g.in_neighbors(u) {
            acc.lc.edge_traversals += 1;
            let inc = scaled * self.g.inv_out_degree(v);
            let r_pre =
                r[v as usize].fetch_add_counting(inc, &mut acc.lc.cas_retries);
            acc.lc.atomic_adds += 1;
            let r_cur = r_pre + inc;
            if self.variant.local_dup {
                if phase.crossed(r_pre, r_cur, self.eps) {
                    acc.next.push(v);
                    acc.lc.enqueued += 1;
                } else if phase.active(r_pre, self.eps) {
                    // Someone else is responsible for v — the detection the
                    // shared-flag scheme would have paid an atomic for.
                    acc.lc.dup_avoided += 1;
                }
            } else if phase.active(r_cur, self.eps) {
                if !self.claimed[v as usize].swap(true, Ordering::Relaxed) {
                    acc.next.push(v);
                    acc.lc.enqueued += 1;
                } else {
                    acc.lc.dup_avoided += 1;
                }
            }
        }
    }

    /// Algorithm 4's self-update for one frontier vertex (lines 19–23):
    /// bank `α·ru`, subtract the consistent `ru`, and re-enqueue `u` if the
    /// residual that accumulated since the session-1 read still exceeds ε.
    ///
    /// Flag discipline in the eager+flags variant: `u`'s claim flag is set
    /// for as long as `u` is scheduled (in `FQ` or `FQ'`), which is what
    /// stops session 1 from re-enqueueing a vertex that is about to drain.
    /// Here the flag is kept if `u` re-enters the frontier and released
    /// otherwise.
    #[inline]
    fn eager_self_update(&self, u: VertexId, ru: f64, phase: Phase, acc: &mut SessAcc) {
        let p = &self.state.p_atomics()[u as usize];
        p.store(p.load() + self.alpha * ru);
        let r = &self.state.r_atomics()[u as usize];
        let after = r.fetch_add_counting(-ru, &mut acc.lc.cas_retries) - ru;
        acc.lc.atomic_adds += 1;
        if phase.active(after, self.eps) {
            acc.next.push(u);
            acc.lc.enqueued += 1;
        } else if !self.variant.local_dup {
            self.claimed[u as usize].store(false, Ordering::Relaxed);
        }
    }

    /// One session over `items` on `threads` threads, each with its own
    /// accumulator; the merged result is the session's barrier.
    fn session<T: Sync>(
        &self,
        items: &[T],
        threads: usize,
        each: impl Fn(&T, &mut SessAcc) + Sync,
    ) -> SessAcc {
        let fold = |range: Range<usize>| {
            // Room for one entry and one enqueue per item up front: growing
            // these by `realloc` from empty, iteration after iteration, is what
            // two pushes running side by side contend on (the allocator grows
            // and trims its heaps under one process-wide kernel lock).
            let mut acc = SessAcc {
                next: Vec::with_capacity(range.len()),
                entries: Vec::with_capacity(range.len()),
                lc: LocalCounters::default(),
            };
            for item in &items[range] {
                each(item, &mut acc);
            }
            acc
        };
        fan_out(items.len(), threads, fold, SessAcc::merge)
    }

    /// Algorithm 3: self-update (stale snapshot) then neighbor-propagation.
    fn vanilla_iteration(&self, frontier: &[VertexId], phase: Phase, threads: usize) -> SessAcc {
        // Session 1: take out residuals, bank α·w. Distinct vertices, so
        // the plain read-modify-write on P is race-free.
        let snapshots = self.session(frontier, threads, |&u, acc| {
            let w = self.state.r_atomics()[u as usize].swap(0.0);
            let p = &self.state.p_atomics()[u as usize];
            p.store(p.load() + self.alpha * w);
            acc.entries.push((u, w));
        });
        // Session 2: propagate the snapshots.
        self.session(&snapshots.entries, threads, |&(u, w), acc| {
            self.propagate(u, w, phase, acc)
        })
    }

    /// Algorithm 4: neighbor-propagation on fresh reads, then the
    /// consistent self-update with its second frontier-generation pass.
    fn eager_iteration(&self, frontier: &[VertexId], phase: Phase, threads: usize) -> SessAcc {
        // Session 1: read the *current* residual (it may keep growing under
        // us — whatever arrives after the read is handled by the consistent
        // subtraction below) and propagate it.
        let mut acc = self.session(frontier, threads, |&u, acc| {
            let ru = self.state.r_atomics()[u as usize].load();
            acc.entries.push((u, ru));
            self.propagate(u, ru, phase, acc);
        });
        // Session 2: banked estimate update and Rs(u) −= ru; a frontier
        // vertex that accumulated more than ε since its read goes straight
        // back into the frontier, after session 1's crossings. (With local
        // duplicate detection this enqueue cannot duplicate: session 1
        // never enqueues current members, whose before-values already
        // satisfy the push condition. With flags, the member's claim is
        // held until this very check.)
        let entries = std::mem::take(&mut acc.entries);
        let requeued = self.session(&entries, threads, |&(u, ru), acc| {
            self.eager_self_update(u, ru, phase, acc)
        });
        acc.merge(requeued)
    }
}

/// Runs the parallel local push to convergence from the given seed
/// vertices with default [`PushOpts`] on [`default_threads`] threads. On
/// return every residual lies within `[−ε, ε]`.
pub fn parallel_local_push(
    g: &DynamicGraph,
    state: &PprState,
    variant: PushVariant,
    seeds: &[VertexId],
    counters: &Counters,
    bufs: &mut ParPushBuffers,
) {
    let opts = PushOpts::default();
    parallel_local_push_opts(g, state, variant, seeds, counters, bufs, opts, default_threads())
}

/// [`parallel_local_push`] with explicit tuning options and thread count.
/// An iteration whose frontier is shorter than `opts.seq_threshold` runs on
/// one thread whatever `threads` says; with `threads = 1` every iteration
/// does, and the push is deterministic.
///
/// The positive phase runs first; because positive pushes only ever *add*
/// probability mass, the only candidates for the negative phase are the
/// seeds themselves, which is why it is seeded from the same list rather
/// than a full vertex scan (Algorithm 3 line 4 written work-efficiently).
pub fn parallel_local_push_opts(
    g: &DynamicGraph,
    state: &PprState,
    variant: PushVariant,
    seeds: &[VertexId],
    counters: &Counters,
    bufs: &mut ParPushBuffers,
    opts: PushOpts,
    threads: usize,
) {
    bufs.ensure(g.num_vertices());
    let ctx = Ctx {
        g,
        state,
        alpha: state.config().alpha,
        eps: state.config().epsilon,
        variant,
        claimed: &bufs.claimed,
    };
    let seeds = dedup_seeds(seeds);
    // Flag discipline differs by ordering (see `eager_self_update`):
    // * vanilla+flags: a member's flag is cleared when its frontier starts
    //   (it was zeroed, so any re-crossing is a genuine re-activation);
    // * eager+flags: a member's flag stays set while scheduled, so session
    //   1 cannot re-enqueue a vertex whose pending self-update is about to
    //   drain it — only session 2's re-check puts it back.
    let eager_flags = variant.eager && !variant.local_dup;
    let vanilla_flags = !variant.eager && !variant.local_dup;
    for phase in Phase::BOTH {
        let frontier: Vec<VertexId> = seeds
            .iter()
            .copied()
            .filter(|&u| phase.active(state.r(u), ctx.eps))
            .collect();
        if eager_flags {
            for &u in &frontier {
                ctx.claimed[u as usize].store(true, Ordering::Relaxed);
            }
        }
        let mut frontier = frontier;
        while !frontier.is_empty() {
            counters.record_iteration(frontier.len());
            let threads = if frontier.len() < opts.seq_threshold { 1 } else { threads };
            let acc = if variant.eager {
                ctx.eager_iteration(&frontier, phase, threads)
            } else {
                ctx.vanilla_iteration(&frontier, phase, threads)
            };
            acc.lc.flush(counters);
            frontier = acc.next;
            if vanilla_flags {
                // Release the claim flags so next iteration's members can
                // be re-enqueued if they re-activate.
                for &v in &frontier {
                    ctx.claimed[v as usize].store(false, Ordering::Relaxed);
                }
            }
        }
    }
    debug_assert!(state.max_abs_residual() <= ctx.eps + 1e-12);
}

/// Deterministic, single-threaded simulation of the **vanilla** parallel
/// push semantics (all frontier residuals snapshotted at iteration start),
/// recording `‖Rs‖₁` after every iteration. This is the `R^p` side of
/// Lemma 4's comparison; pair it with
/// [`crate::seq::sequential_push_lockstep`].
pub fn parallel_push_lockstep(
    g: &DynamicGraph,
    state: &PprState,
    seeds: &[VertexId],
) -> LockstepTrace {
    let alpha = state.config().alpha;
    let eps = state.config().epsilon;
    let mut trace = LockstepTrace {
        l1_after_iteration: Vec::new(),
        frontier_sizes: Vec::new(),
        pushes: 0,
    };
    let mut touched_flag = vec![false; g.num_vertices()];

    for phase in Phase::BOTH {
        let mut frontier: Vec<VertexId> = dedup_seeds(seeds)
            .into_iter()
            .filter(|&u| phase.active(state.r(u), eps))
            .collect();
        while !frontier.is_empty() {
            trace.frontier_sizes.push(frontier.len());
            // Session 1: snapshot + self-update for the whole frontier.
            let snapshots: Vec<f64> = frontier
                .iter()
                .map(|&u| {
                    let w = state.r(u);
                    state.set_p(u, state.p(u) + alpha * w);
                    state.set_r(u, 0.0);
                    w
                })
                .collect();
            // Session 2: propagate the stale snapshots.
            let mut touched: Vec<VertexId> = Vec::new();
            for (&u, &w) in frontier.iter().zip(&snapshots) {
                trace.pushes += 1;
                let scaled = (1.0 - alpha) * w;
                if !touched_flag[u as usize] {
                    touched_flag[u as usize] = true;
                    touched.push(u);
                }
                for &v in g.in_neighbors(u) {
                    state.set_r(v, state.r(v) + scaled * g.inv_out_degree(v));
                    if !touched_flag[v as usize] {
                        touched_flag[v as usize] = true;
                        touched.push(v);
                    }
                }
            }
            let mut next = Vec::new();
            for &v in &touched {
                touched_flag[v as usize] = false;
                if phase.active(state.r(v), eps) {
                    next.push(v);
                }
            }
            trace.l1_after_iteration.push(state.l1_residual());
            frontier = next;
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PprConfig;
    use crate::invariant::{apply_update, max_invariant_violation};
    use crate::seq::sequential_push_lockstep;
    use dppr_graph::EdgeUpdate;

    /// Figure 1/2/3 graph (paper ids −1): 2→1, 3→1, 3→2, 4→3, 1→4.
    fn figure_graph() -> DynamicGraph {
        DynamicGraph::from_edges([(1, 0), (2, 0), (2, 1), (3, 2), (0, 3)])
    }

    fn figure_state() -> PprState {
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        for (v, (p, r)) in [(0.5, 0.0625), (0.25, 0.0), (0.1875, 0.0), (0.0625, 0.0625)]
            .into_iter()
            .enumerate()
        {
            st.set_p(v as u32, p);
            st.set_r(v as u32, r);
        }
        st
    }

    #[test]
    fn figure2_batch_parallel_matches_paper() {
        // Batch {v1→v2, v4→v1}; Figure 2(d) expects (paper rounding):
        // P = [0.5781, 0.25, 0.1875, 0.1718], R = [0.0546, 0.0781, 0.039, 0.039].
        // The vanilla variant reproduces the figure exactly (the figure's
        // trace snapshots residuals at iteration start).
        let mut g = figure_graph();
        let mut st = figure_state();
        let c = Counters::new();
        assert!(apply_update(&mut g, &mut st, EdgeUpdate::insert(0, 1), &c));
        assert!(apply_update(&mut g, &mut st, EdgeUpdate::insert(3, 0), &c));
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::VANILLA, &[0, 3], &c, &mut bufs);

        assert!((st.p(0) - 0.578125).abs() < 1e-12);
        assert!((st.p(3) - 0.171875).abs() < 1e-12);
        assert!((st.r(0) - 0.0546875).abs() < 1e-12);
        assert!((st.r(1) - 0.078125).abs() < 1e-12);
        assert!((st.r(2) - 0.0390625).abs() < 1e-12);
        assert!((st.r(3) - 0.0390625).abs() < 1e-12);
        assert!(st.converged());
        assert!(max_invariant_violation(&g, &st) < 1e-12);
        // Convergence "in one iteration" (Example 2).
        assert_eq!(c.snapshot().iterations, 1);
        assert_eq!(c.snapshot().pushes, 2);
    }

    #[test]
    fn figure2_all_variants_converge_with_invariant() {
        for variant in PushVariant::ALL {
            let mut g = figure_graph();
            let mut st = figure_state();
            let c = Counters::new();
            apply_update(&mut g, &mut st, EdgeUpdate::insert(0, 1), &c);
            apply_update(&mut g, &mut st, EdgeUpdate::insert(3, 0), &c);
            let mut bufs = ParPushBuffers::new();
            parallel_local_push(&g, &st, variant, &[0, 3], &c, &mut bufs);
            assert!(st.converged(), "{variant} did not converge");
            assert!(
                max_invariant_violation(&g, &st) < 1e-12,
                "{variant} broke the invariant"
            );
        }
    }

    #[test]
    fn figure3_parallel_loss_is_one_extra_push() {
        // Figure 3: the parallel push spends 5 operations where the
        // sequential one needs 4 (v3 is pushed twice).
        let g = figure_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        st.set_p(0, 0.0);
        st.set_r(0, 1.0);
        let c = Counters::new();
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::VANILLA, &[0], &c, &mut bufs);
        assert_eq!(c.snapshot().pushes, 5);
        assert!((st.p(0) - 0.5).abs() < 1e-12);
        assert!((st.p(1) - 0.25).abs() < 1e-12);
        assert!((st.p(2) - 0.1875).abs() < 1e-12);
        assert!((st.p(3) - 0.0625).abs() < 1e-12);
        assert!((st.r(0) - 0.0625).abs() < 1e-12);
        assert!((st.r(3) - 0.0625).abs() < 1e-12);
        assert!(st.converged());
    }

    #[test]
    fn figure3_lockstep_traces_match_lemma4() {
        // ‖R^p(x)‖₁ ≥ ‖R^q(x)‖₁ for every common iteration (Lemma 4).
        let g = figure_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mk = || {
            let mut st = PprState::new(cfg);
            st.ensure_len(4);
            st.set_p(0, 0.0);
            st.set_r(0, 1.0);
            st
        };
        let sp = mk();
        let par_trace = parallel_push_lockstep(&g, &sp, &[0]);
        let sq = mk();
        let seq_trace = sequential_push_lockstep(&g, &sq, &[0]);
        assert_eq!(par_trace.pushes, 5);
        assert_eq!(seq_trace.pushes, 4);
        assert_eq!(par_trace.frontier_sizes, vec![1, 2, 2]);
        assert_eq!(seq_trace.frontier_sizes, vec![1, 2, 1]);
        for (i, (p, q)) in par_trace
            .l1_after_iteration
            .iter()
            .zip(&seq_trace.l1_after_iteration)
            .enumerate()
        {
            assert!(p >= q, "iteration {i}: parallel ‖R‖₁={p} < sequential {q}");
        }
    }

    #[test]
    fn eager_beats_vanilla_on_figure3_ops() {
        // Eager propagation exists precisely to reclaim Figure 3's lost
        // push: v2's contribution reaches v3 before v3's own push.
        // (Deterministic here: scheduling order does not
        // matter because the claim is about operation *counts* after
        // convergence, which are schedule-independent on this tiny DAG of
        // dependencies... they are not in general — so we assert only that
        // eager never does *more* pushes than vanilla on this instance.)
        let g = figure_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let run = |variant: PushVariant| {
            let mut st = PprState::new(cfg);
            st.ensure_len(4);
            st.set_p(0, 0.0);
            st.set_r(0, 1.0);
            let c = Counters::new();
            let mut bufs = ParPushBuffers::new();
            parallel_local_push(&g, &st, variant, &[0], &c, &mut bufs);
            assert!(st.converged());
            assert!(max_invariant_violation(&g, &st) < 1e-12);
            c.snapshot().pushes
        };
        assert!(run(PushVariant::OPT) <= run(PushVariant::VANILLA));
    }

    #[test]
    fn all_variants_agree_with_sequential_on_random_updates() {
        use crate::seq::{sequential_local_push, SeqPushBuffers};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let cfg = PprConfig::new(0, 0.15, 1e-3);
        let mut rng = SmallRng::seed_from_u64(5);
        // A shared random update script.
        let mut script: Vec<EdgeUpdate> = Vec::new();
        for _ in 0..400 {
            let u = rng.gen_range(0..40u32);
            let v = rng.gen_range(0..40u32);
            script.push(if rng.gen_bool(0.8) {
                EdgeUpdate::insert(u, v)
            } else {
                EdgeUpdate::delete(u, v)
            });
        }

        // Reference: sequential engine over 10-update batches.
        let mut g_ref = DynamicGraph::new();
        let mut st_ref = PprState::new(cfg);
        let c = Counters::new();
        let mut sbufs = SeqPushBuffers::new();
        for chunk in script.chunks(10) {
            let mut seeds = Vec::new();
            for &u in chunk {
                if apply_update(&mut g_ref, &mut st_ref, u, &c) {
                    seeds.push(u.src);
                }
            }
            sequential_local_push(&g_ref, &st_ref, &seeds, &c, &mut sbufs);
        }
        assert!(st_ref.converged());

        for variant in PushVariant::ALL {
            let mut g = DynamicGraph::new();
            let mut st = PprState::new(cfg);
            let mut bufs = ParPushBuffers::new();
            for chunk in script.chunks(10) {
                let mut seeds = Vec::new();
                for &u in chunk {
                    if apply_update(&mut g, &mut st, u, &c) {
                        seeds.push(u.src);
                    }
                }
                parallel_local_push(&g, &st, variant, &seeds, &c, &mut bufs);
                assert!(st.converged(), "{variant} left residuals over ε");
            }
            assert!(
                max_invariant_violation(&g, &st) < 1e-9,
                "{variant} broke the invariant"
            );
            // Both are ε-approximations of the same exact vector, so they
            // can differ by at most 2ε.
            for v in 0..40u32 {
                let d = (st.p(v) - st_ref.p(v)).abs();
                assert!(
                    d <= 2.0 * cfg.epsilon + 1e-12,
                    "{variant}: vertex {v} differs from sequential by {d}"
                );
            }
        }
    }

    #[test]
    fn empty_seed_push_is_noop() {
        let g = figure_graph();
        let st = figure_state();
        let c = Counters::new();
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::OPT, &[], &c, &mut bufs);
        assert_eq!(c.snapshot().pushes, 0);
    }

    #[test]
    fn negative_batch_drains() {
        // Delete-only batch drives residuals negative; the second phase
        // must drain them for every variant.
        for variant in PushVariant::ALL {
            let mut g = figure_graph();
            let mut st = figure_state();
            // Bring the state to convergence on a bigger residual first so
            // deletions have something to subtract.
            let c = Counters::new();
            let mut bufs = ParPushBuffers::new();
            apply_update(&mut g, &mut st, EdgeUpdate::insert(0, 1), &c);
            parallel_local_push(&g, &st, variant, &[0], &c, &mut bufs);
            let mut seeds = Vec::new();
            for upd in [EdgeUpdate::delete(2, 0), EdgeUpdate::delete(2, 1)] {
                if apply_update(&mut g, &mut st, upd, &c) {
                    seeds.push(upd.src);
                }
            }
            parallel_local_push(&g, &st, variant, &seeds, &c, &mut bufs);
            assert!(st.converged(), "{variant}");
            assert!(max_invariant_violation(&g, &st) < 1e-12, "{variant}");
        }
    }
}
