//! `SequentialLocalPush` (Algorithm 2) — the state-of-the-art sequential
//! baseline of Zhang et al. [49] that the paper parallelizes.
//!
//! Two forms are provided:
//!
//! * [`sequential_local_push`] — the practical worklist (FIFO) form used by
//!   the `CPU-Base` / `CPU-Seq` engines. Instead of re-scanning all of `V`
//!   for `max_u Rs(u) > ε` (Algorithm 2 line 1), it seeds a queue with the
//!   vertices whose residuals the batch's `RestoreInvariant` calls touched;
//!   every vertex activated later is discovered through propagation, so the
//!   two are equivalent (only restore calls and pushes move residuals).
//! * [`sequential_push_lockstep`] — the iteration-structured form that
//!   Lemma 4 compares against the parallel push: each "iteration" drains
//!   the current frontier serially (reading fresh residuals as it goes)
//!   and collects the next frontier. Used by the parallel-loss experiment.
//!   The one lock-step loop behind it also produces
//!   [`crate::par::parallel_push_lockstep`]'s trace, which differs only in
//!   reading every frontier residual before any propagation.

use crate::config::Phase;
use crate::counters::{CounterSnapshot, Counters};
use crate::state::PprState;
use dppr_graph::{DynamicGraph, VertexId};
use std::collections::VecDeque;

/// Reusable scratch space so repeated pushes do not reallocate (the
/// "workhorse collection" pattern).
#[derive(Debug, Default)]
pub struct SeqPushBuffers {
    queue: VecDeque<VertexId>,
    in_queue: Vec<bool>,
}

impl SeqPushBuffers {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.in_queue.len() < n {
            self.in_queue.resize(n, false);
        }
    }
}

/// `SeqPush(u)`'s take-out (Algorithm 2, lines 7–8): move `α·Rs(u)` into
/// the estimate, zero the residual, and return the residual taken.
#[inline]
fn take_out(state: &PprState, u: VertexId, alpha: f64) -> f64 {
    let w = state.r(u);
    state.set_p(u, state.p(u) + alpha * w);
    state.set_r(u, 0.0);
    w
}

/// The rest of a push of `w` at `u` (Algorithm 2, lines 9–10): propagate
/// `(1−α)·w` to the in-neighbors.
#[inline]
fn propagate(
    g: &DynamicGraph,
    state: &PprState,
    u: VertexId,
    w: f64,
    alpha: f64,
    work: &mut CounterSnapshot,
) {
    work.pushes += 1;
    let scaled = (1.0 - alpha) * w;
    // Division-free inner loop: `inv_out_degree` is the graph-maintained
    // 1/dout (see the dppr-graph docs); v has the edge v→u so dout(v) ≥ 1.
    for &v in g.in_neighbors(u) {
        work.edge_traversals += 1;
        state.set_r(v, state.r(v) + scaled * g.inv_out_degree(v));
    }
}

/// Runs the sequential local push to convergence, starting from the given
/// seed vertices (the sources touched by the batch's invariant repairs).
/// On return every residual lies within `[−ε, ε]`.
pub fn sequential_local_push(
    g: &DynamicGraph,
    state: &PprState,
    seeds: &[VertexId],
    counters: &Counters,
    bufs: &mut SeqPushBuffers,
) {
    let alpha = state.config().alpha;
    let eps = state.config().epsilon;
    bufs.ensure(g.num_vertices());
    let mut work = CounterSnapshot::default();

    for phase in Phase::BOTH {
        debug_assert!(bufs.queue.is_empty());
        for &u in seeds {
            let ui = u as usize;
            if phase.active(state.r(u), eps) && !bufs.in_queue[ui] {
                bufs.in_queue[ui] = true;
                bufs.queue.push_back(u);
            }
        }
        while let Some(u) = bufs.queue.pop_front() {
            bufs.in_queue[u as usize] = false;
            // The residual may have fallen back under the threshold since
            // enqueueing (possible only across phases); re-check.
            if !phase.active(state.r(u), eps) {
                continue;
            }
            let w = take_out(state, u, alpha);
            propagate(g, state, u, w, alpha, &mut work);
            for &v in g.in_neighbors(u) {
                let vi = v as usize;
                if phase.active(state.r(v), eps) && !bufs.in_queue[vi] {
                    bufs.in_queue[vi] = true;
                    bufs.queue.push_back(v);
                    work.enqueued += 1;
                }
            }
        }
    }
    // Each push is an iteration over a frontier of one vertex.
    work.iterations = work.pushes;
    work.max_frontier = work.pushes.min(1);
    counters.add(&work);
    debug_assert!(state.max_abs_residual() <= eps + 1e-12);
}

/// Per-iteration trace of the lock-step pushes (for Lemma 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepTrace {
    /// `‖Rs‖₁` after each iteration (index 0 = after the first frontier).
    pub l1_after_iteration: Vec<f64>,
    /// Frontier sizes per iteration.
    pub frontier_sizes: Vec<usize>,
    /// Total push operations performed.
    pub pushes: u64,
}

/// Lemma 4's `R^q`: the lock-step push with fresh residual reads, each
/// frontier member taking out its residual when its turn comes. Pair it
/// with [`crate::par::parallel_push_lockstep`].
pub fn sequential_push_lockstep(
    g: &DynamicGraph,
    state: &PprState,
    seeds: &[VertexId],
) -> LockstepTrace {
    lockstep(g, state, seeds, false)
}

/// The lock-step push behind both Lemma 4 traces: drains the whole current
/// frontier serially, records `‖Rs‖₁` after every iteration, and repeats
/// until convergence. The next frontier is the set of vertices active **at
/// the end of the iteration** — the semantics the parallel push realizes
/// through crossing detection plus the self-update re-check.
///
/// The traces differ in one read only. With `stale`, every frontier member
/// takes out its residual before any propagation, as Algorithm 3's
/// self-update session does; otherwise each takes it out when its turn
/// comes, with whatever earlier members have sent it.
pub(crate) fn lockstep(
    g: &DynamicGraph,
    state: &PprState,
    seeds: &[VertexId],
    stale: bool,
) -> LockstepTrace {
    let alpha = state.config().alpha;
    let eps = state.config().epsilon;
    let mut trace =
        LockstepTrace { l1_after_iteration: Vec::new(), frontier_sizes: Vec::new(), pushes: 0 };
    let mut work = CounterSnapshot::default();
    let mut touched_flag = vec![false; g.num_vertices()];

    for phase in Phase::BOTH {
        let mut frontier: Vec<VertexId> =
            dedup_seeds(seeds).into_iter().filter(|&u| phase.active(state.r(u), eps)).collect();
        while !frontier.is_empty() {
            trace.frontier_sizes.push(frontier.len());
            let early: Vec<Option<f64>> =
                frontier.iter().map(|&u| stale.then(|| take_out(state, u, alpha))).collect();
            // Candidates for the next frontier: everything this iteration
            // wrote to (frontier members and their in-neighbors).
            let mut touched: Vec<VertexId> = Vec::new();
            for (&u, early) in frontier.iter().zip(early) {
                let w = early.unwrap_or_else(|| take_out(state, u, alpha));
                propagate(g, state, u, w, alpha, &mut work);
                for v in std::iter::once(u).chain(g.in_neighbors(u).iter().copied()) {
                    if !touched_flag[v as usize] {
                        touched_flag[v as usize] = true;
                        touched.push(v);
                    }
                }
            }
            touched.retain(|&v| {
                touched_flag[v as usize] = false;
                phase.active(state.r(v), eps)
            });
            trace.l1_after_iteration.push(state.l1_residual());
            frontier = touched;
        }
    }
    trace.pushes = work.pushes;
    trace
}

/// Sorts and deduplicates a seed list (batch sources repeat).
pub fn dedup_seeds(seeds: &[VertexId]) -> Vec<VertexId> {
    let mut s = Vec::new();
    dedup_seeds_into(seeds, &mut s);
    s
}

/// [`dedup_seeds`] into `out`'s buffer (cleared first), for callers that
/// keep one across batches.
pub fn dedup_seeds_into(seeds: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    out.extend_from_slice(seeds);
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PprConfig;
    use crate::invariant::max_invariant_violation;
    use crate::invariant::{absorb_batch, Repairs};
    use dppr_graph::EdgeUpdate;

    /// Figure 1 graph (paper ids shifted by −1): 2→1, 3→1, 3→2, 4→3, 1→4.
    fn figure1_graph() -> DynamicGraph {
        DynamicGraph::from_edges([(1, 0), (2, 0), (2, 1), (3, 2), (0, 3)])
    }

    fn figure1_state() -> PprState {
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        for (v, (p, r)) in
            [(0.5, 0.0625), (0.25, 0.0), (0.1875, 0.0), (0.0625, 0.0625)].into_iter().enumerate()
        {
            st.set_p(v as u32, p);
            st.set_r(v as u32, r);
        }
        st
    }

    #[test]
    fn figure1_full_sequence_matches_paper() {
        // Insert e1 = v1→v2, restore, then push: Figure 1(d) expects
        // P(1)=0.5781(25), R(1)=0, R(2)=0.0781(25), R(3)=0.039(0625).
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &[EdgeUpdate::insert(0, 1)], &c, &mut r);
        assert_eq!(seeds, [0]);
        let mut bufs = SeqPushBuffers::new();
        sequential_local_push(&g, &st, &[0], &c, &mut bufs);

        assert!((st.p(0) - 0.578125).abs() < 1e-12);
        assert!((st.r(0) - 0.0).abs() < 1e-12);
        assert!((st.r(1) - 0.078125).abs() < 1e-12);
        assert!((st.r(2) - 0.0390625).abs() < 1e-12);
        assert!((st.r(3) - 0.0625).abs() < 1e-12);
        assert!(st.converged());
        assert!(max_invariant_violation(&g, &st) < 1e-12);
        // Exactly one push (v1); v2, v3 stay below ε.
        assert_eq!(c.snapshot().pushes, 1);
    }

    #[test]
    fn figure3_sequential_takes_four_pushes() {
        // Figure 3(b): from R(1)=1, everything else 0, the sequential push
        // converges in 4 pushes with P(4)=0.09375 and R(1)=0.09375.
        let g = figure1_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        st.set_p(0, 0.0); // the figure zeroes everything except R(1)
        st.set_r(0, 1.0);
        let c = Counters::new();
        let mut bufs = SeqPushBuffers::new();
        sequential_local_push(&g, &st, &[0], &c, &mut bufs);

        assert_eq!(c.snapshot().pushes, 4);
        assert!((st.p(0) - 0.5).abs() < 1e-12);
        assert!((st.p(1) - 0.25).abs() < 1e-12);
        assert!((st.p(2) - 0.1875).abs() < 1e-12);
        assert!((st.p(3) - 0.09375).abs() < 1e-12);
        assert!((st.r(0) - 0.09375).abs() < 1e-12);
        assert!(st.converged());
    }

    #[test]
    fn lockstep_matches_figure3_iterations() {
        let g = figure1_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        st.set_p(0, 0.0);
        st.set_r(0, 1.0);
        let trace = sequential_push_lockstep(&g, &st, &[0]);
        // Iterations: {v1}, {v2,v3}, {v3,v4} — wait, that is the *parallel*
        // schedule; the serial lock-step drains v2 then v3 with fresh
        // residuals, so v3's push already includes v2's contribution and
        // the third frontier is {v4} only: {v1}, {v2,v3}, {v4}.
        assert_eq!(trace.frontier_sizes, vec![1, 2, 1]);
        assert_eq!(trace.pushes, 4);
        assert!(st.converged());
    }

    /// Both Lemma 4 traces over a fixed BA graph, pinned to literals: the
    /// push counts, the frontier sizes and the bits of every `‖Rs‖₁`. The
    /// two differ only in when a frontier member takes out its residual,
    /// so a change to either moves these literals.
    #[test]
    fn lockstep_traces_are_pinned() {
        use crate::par::parallel_push_lockstep;
        use dppr_graph::generators::{barabasi_albert, undirected_to_directed};
        let g = DynamicGraph::from_edges(undirected_to_directed(&barabasi_albert(200, 3, 4)));
        let hub = g.top_out_degree_vertices(1)[0];
        let trace = |lockstep: fn(&DynamicGraph, &PprState, &[VertexId]) -> LockstepTrace| {
            let mut st = PprState::new(PprConfig::new(hub, 0.2, 1e-3));
            st.ensure_len(g.num_vertices());
            st.set_p(hub, 0.0);
            st.set_r(hub, 1.0);
            let t = lockstep(&g, &st, &[hub]);
            let bits: Vec<u64> = t.l1_after_iteration.iter().map(|l1| l1.to_bits()).collect();
            (t.pushes, t.frontier_sizes, bits)
        };
        let par = trace(parallel_push_lockstep);
        let seq = trace(sequential_push_lockstep);
        // The stale push's frontier saturates at every vertex.
        let stale_sizes: Vec<usize> = [1, 41, 161, 199].into_iter().chain([200; 12]).collect();
        #[rustfmt::skip]
        let stale_l1 = vec![
            4618478869501232220, 4616095403111277326, 4615308756265419779, 4613415044724566272,
            4612301920055039084, 4610787011122257464, 4609206180031410222, 4607887212101882527,
            4606521982471138589, 4604848275419433853, 4603515848955158195, 4602215404034515278,
            4600507273829795517, 4599140072461538894, 4597917620749466648, 4596167802209676504,
        ];
        #[rustfmt::skip]
        let fresh_sizes = vec![
            1, 41, 144, 139, 152, 137, 151, 134, 144, 124, 118, 103, 100, 87, 96, 59, 43, 17, 4, 1,
        ];
        #[rustfmt::skip]
        let fresh_l1 = vec![
            4618478869501232220, 4615911161788035637, 4614027742675559661, 4612323312502736594,
            4609570067906553662, 4608267676326761978, 4605572321402523035, 4604258710213925612,
            4601919587758083388, 4600439357917191463, 4598600393364195750, 4597300595718675176,
            4594927046667133930, 4594682768916828053, 4593016594523240034, 4592415760486770254,
            4591606973077876956, 4591477253512031692, 4591753557926174670, 4591706029011274947,
        ];
        assert_eq!(par, (2802, stale_sizes, stale_l1));
        assert_eq!(seq, (1795, fresh_sizes, fresh_l1));
    }

    #[test]
    fn negative_residuals_drain_in_second_phase() {
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        // Delete 3→2 (v4→v3): Figure-1 state has P(3) small, the deletion
        // swings R(3); whatever the sign, the push must converge.
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &[EdgeUpdate::delete(3, 2)], &c, &mut r);
        assert_eq!(seeds, [3]);
        let mut bufs = SeqPushBuffers::new();
        sequential_local_push(&g, &st, &[3], &c, &mut bufs);
        assert!(st.converged());
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    #[test]
    fn push_with_no_active_seeds_is_noop() {
        let g = figure1_graph();
        let st = figure1_state();
        let c = Counters::new();
        let before_p = st.estimates();
        let mut bufs = SeqPushBuffers::new();
        sequential_local_push(&g, &st, &[0, 1, 2, 3], &c, &mut bufs);
        assert_eq!(st.estimates(), before_p);
        assert_eq!(c.snapshot().pushes, 0);
    }

    #[test]
    fn dedup_seeds_sorts_and_dedups() {
        assert_eq!(dedup_seeds(&[3, 1, 3, 1, 0]), vec![0, 1, 3]);
        assert!(dedup_seeds(&[]).is_empty());
    }
}
