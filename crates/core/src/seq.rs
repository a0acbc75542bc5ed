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

/// One `SeqPush(u)` (Algorithm 2, lines 6–10): move `α·Rs(u)` into the
/// estimate and propagate the remaining `(1−α)·Rs(u)` to the in-neighbors.
#[inline]
fn seq_push(
    g: &DynamicGraph,
    state: &PprState,
    u: VertexId,
    alpha: f64,
    work: &mut CounterSnapshot,
) {
    let w = state.r(u);
    state.set_p(u, state.p(u) + alpha * w);
    state.set_r(u, 0.0);
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
            seq_push(g, state, u, alpha, &mut work);
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

/// Iteration-structured sequential push: drains the whole current frontier
/// serially (fresh residual reads, as Lemma 4 assumes), records `‖Rs‖₁`
/// after every iteration, and repeats until convergence. The next frontier
/// is the set of vertices active **at the end of the iteration** — the same
/// semantics the parallel push realizes through crossing detection plus the
/// self-update re-check.
pub fn sequential_push_lockstep(
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
    let mut work = CounterSnapshot::default();
    let mut touched_flag = vec![false; g.num_vertices()];

    for phase in Phase::BOTH {
        let mut frontier: Vec<VertexId> = dedup_seeds(seeds)
            .into_iter()
            .filter(|&u| phase.active(state.r(u), eps))
            .collect();
        while !frontier.is_empty() {
            trace.frontier_sizes.push(frontier.len());
            // Candidates for the next frontier: everything this iteration
            // wrote to (frontier members and their in-neighbors).
            let mut touched: Vec<VertexId> = Vec::new();
            let note = |v: VertexId, touched: &mut Vec<VertexId>, flags: &mut [bool]| {
                if !flags[v as usize] {
                    flags[v as usize] = true;
                    touched.push(v);
                }
            };
            for &u in &frontier {
                seq_push(g, state, u, alpha, &mut work);
                trace.pushes += 1;
                note(u, &mut touched, &mut touched_flag);
                for &v in g.in_neighbors(u) {
                    note(v, &mut touched, &mut touched_flag);
                }
            }
            let mut next: Vec<VertexId> = Vec::new();
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

/// Sorts and deduplicates a seed list (batch sources repeat).
pub fn dedup_seeds(seeds: &[VertexId]) -> Vec<VertexId> {
    let mut s = seeds.to_vec();
    s.sort_unstable();
    s.dedup();
    s
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
