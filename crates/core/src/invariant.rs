//! `RestoreInvariant` (Algorithm 1) and the Eq. 2 invariant checker.
//!
//! When the directed edge `u → v` is inserted or deleted, the invariant
//!
//! ```text
//! Ps(w) + α·Rs(w) = Σ_{x ∈ Nout(w)} (1−α)·Ps(x)/dout(w) + α·1{w=s}
//! ```
//!
//! breaks **only at `w = u`** (only `u`'s out-neighborhood changed), and is
//! repaired by a constant-time residual adjustment:
//!
//! ```text
//! Rs(u) ±= [(1−α)·Ps(v) − Ps(u) − α·Rs(u) + α·1{u=s}] / (α·dout(u))
//! ```
//!
//! with `+` for insertion and `−` for deletion, where `dout(u)` is the
//! **post-update** out-degree (this is the `d_j(u)` of Lemma 3; it also
//! matches the worked example of Figure 1 digit-for-digit — see the unit
//! tests). Deleting the last out-edge is the one degenerate case: the sum
//! side of the invariant becomes empty, so `Rs(u)` is set directly from
//! `Ps(u) + α·Rs(u) = α·1{u=s}`.
//!
//! Every engine absorbs a batch the same way, in two halves:
//! [`apply_to_graph`] mutates the graph once and records each applied
//! update with its `d_j(u)`, and its source (a seed of the push that
//! follows), into [`Repairs`]; [`replay_repairs`] then replays those
//! repairs, in order, against a state. [`absorb_batch`] is both halves
//! against one state. A repair writes only `Rs(u)` and reads `Ps`,
//! which no repair writes, so replaying after the whole batch gives the
//! bits interleaving would — for one state or for many against one graph.
//! The replay divides by the recorded degree per update: it is a historical
//! degree, which the graph's maintained `inv_out_degree` (the final one)
//! cannot supply.

use crate::counters::Counters;
use crate::state::PprState;
use dppr_graph::{DynamicGraph, EdgeOp, EdgeUpdate, VertexId};

/// The repairs one batch left to replay, and their sources: the seeds of
/// the push that follows. Kept across batches to reuse its buffers, which
/// [`apply_to_graph`] shrinks once a batch fills under a quarter of them,
/// so a bootstrap batch's memory is not held for the whole stream.
#[derive(Debug, Default)]
pub struct Repairs {
    /// Per update that changed the graph, in batch order: the update and
    /// `dout(u)` right after it (the `d_j(u)` of Lemma 3).
    pub list: Vec<(EdgeUpdate, usize)>,
    /// The repaired sources, in the same order (repeats kept; the push
    /// kernels deduplicate).
    pub seeds: Vec<VertexId>,
}

/// The graph half of absorbing a batch: applies `batch` to `g` in order
/// and records into `out` (cleared first) one repair per update that
/// changed the graph (a duplicate insert or an absent delete records
/// nothing).
pub fn apply_to_graph(g: &mut DynamicGraph, batch: &[EdgeUpdate], out: &mut Repairs) {
    out.list.clear();
    out.seeds.clear();
    for &upd in batch {
        if g.apply(upd) {
            out.list.push((upd, g.out_degree(upd.src)));
            out.seeds.push(upd.src);
        }
    }
    trim(&mut out.list);
    trim(&mut out.seeds);
}

/// Shrinks `v` to twice its length once its capacity passes four times
/// that: the gap between the two thresholds is the hysteresis that keeps
/// a stream of like-sized batches from reallocating every batch.
fn trim<T>(v: &mut Vec<T>) {
    if v.capacity() > 4 * v.len() {
        v.shrink_to(2 * v.len());
    }
}

/// The state half: grows `state` to cover `g`, which has absorbed the
/// batch, and replays `repairs` through [`restore_invariant_with_degree`]
/// in order, counting each one.
pub fn replay_repairs(
    g: &DynamicGraph,
    state: &mut PprState,
    repairs: &Repairs,
    counters: &Counters,
) {
    state.ensure_len(g.num_vertices());
    for &(upd, dout_after) in &repairs.list {
        restore_invariant_with_degree(state, upd.src, upd.dst, upd.op, dout_after);
    }
    counters.record_restores(repairs.list.len() as u64);
}

/// Both halves against one state, recording into `repairs`; returns the
/// seeds of the push that follows.
pub fn absorb_batch<'r>(
    g: &mut DynamicGraph,
    state: &mut PprState,
    batch: &[EdgeUpdate],
    counters: &Counters,
    repairs: &'r mut Repairs,
) -> &'r [VertexId] {
    apply_to_graph(g, batch, repairs);
    replay_repairs(g, state, repairs, counters);
    &repairs.seeds
}

/// Repairs the invariant for the update `(u, v, op)`, given `dout_after`,
/// `u`'s out-degree right after *this* update (not after the batch).
/// `state` must already cover `u` and `v`.
pub fn restore_invariant_with_degree(
    state: &PprState,
    u: VertexId,
    v: VertexId,
    op: EdgeOp,
    dout_after: usize,
) {
    let cfg = *state.config();
    let alpha = cfg.alpha;
    let indicator = if u == cfg.source { alpha } else { 0.0 };

    if dout_after == 0 {
        // Deleting u's last out-edge: invariant with an empty sum.
        debug_assert_eq!(op, EdgeOp::Delete);
        let r_new = (indicator - state.p(u)) / alpha;
        state.set_r(u, r_new);
        return;
    }

    let numerator = (1.0 - alpha) * state.p(v) - state.p(u) - alpha * state.r(u) + indicator;
    // A division by the recorded degree, not a multiply by the graph's
    // `inv_out_degree`: that holds the degree after the whole batch.
    let delta = numerator / (alpha * dout_after as f64);
    state.set_r(u, state.r(u) + op.sign() * delta);
}

/// Largest absolute violation of Eq. 2 over all vertices. Exactly zero only
/// in exact arithmetic; tests compare against a small tolerance. O(n + m).
pub fn max_invariant_violation(g: &DynamicGraph, state: &PprState) -> f64 {
    let cfg = *state.config();
    let alpha = cfg.alpha;
    let mut worst: f64 = 0.0;
    for w in 0..g.num_vertices() as VertexId {
        let indicator = if w == cfg.source { alpha } else { 0.0 };
        let rhs = if g.out_degree(w) == 0 {
            indicator
        } else {
            let sum: f64 = g.out_neighbors(w).iter().map(|&x| state.p(x)).sum();
            (1.0 - alpha) * sum * g.inv_out_degree(w) + indicator
        };
        let lhs = state.p(w) + alpha * state.r(w);
        worst = worst.max((lhs - rhs).abs());
    }
    worst
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::PprConfig;

    /// The 4-vertex graph of Figure 1: edges 1→4? No — the figure's
    /// topology (recovered from its arithmetic) is
    /// 2→1, 3→1, 3→2, 4→3, 1→4 with vertex ids 1..=4 (we use 0..=3 with
    /// the same numbering shifted by −1).
    fn figure1_graph() -> DynamicGraph {
        DynamicGraph::from_edges([(1, 0), (2, 0), (2, 1), (3, 2), (0, 3)])
    }

    fn figure1_state() -> PprState {
        // α = 0.5, ε = 0.1, source = vertex "1" (our id 0).
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        let p = [0.5, 0.25, 0.1875, 0.0625];
        let r = [0.0625, 0.0, 0.0, 0.0625];
        for v in 0..4u32 {
            st.set_p(v, p[v as usize]);
            st.set_r(v, r[v as usize]);
        }
        st
    }

    #[test]
    fn figure1_initial_state_satisfies_invariant() {
        let g = figure1_graph();
        let st = figure1_state();
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    #[test]
    fn figure1_insert_matches_paper() {
        // Figure 1(b): inserting e1 = v1→v2 (our 0→1) moves R(v1) from
        // 0.0625 to 0.15625 (the figure prints 0.1562).
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &[EdgeUpdate::insert(0, 1)], &c, &mut r);
        assert_eq!(seeds, [0]);
        assert!((st.r(0) - 0.15625).abs() < 1e-12);
        // Only u's residual changes; estimates are untouched.
        assert_eq!(st.p(0), 0.5);
        assert_eq!(st.r(1), 0.0);
        assert!(max_invariant_violation(&g, &st) < 1e-12);
        assert_eq!(c.snapshot().restore_ops, 1);
    }

    #[test]
    fn figure2_batch_matches_paper() {
        // Figure 2(b): inserting e1 = v1→v2 and e2 = v4→v1 moves R(v1) to
        // 0.1562 and R(v4) to 0.2187 (paper's rounding of 0.21875).
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        let batch = [EdgeUpdate::insert(0, 1), EdgeUpdate::insert(3, 0)];
        assert_eq!(absorb_batch(&mut g, &mut st, &batch, &c, &mut Repairs::default()), [0, 3]);
        assert!((st.r(0) - 0.15625).abs() < 1e-12);
        assert!((st.r(3) - 0.21875).abs() < 1e-12);
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    #[test]
    fn insert_then_delete_restores_residual() {
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        let r0 = st.r(0);
        let batch = [EdgeUpdate::insert(0, 1), EdgeUpdate::delete(0, 1)];
        absorb_batch(&mut g, &mut st, &batch, &c, &mut Repairs::default());
        assert!((st.r(0) - r0).abs() < 1e-12);
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    /// The graph half records `d_j(u)`, the degree right after each update,
    /// not the batch's final one, and skips the updates that change nothing.
    #[test]
    fn graph_half_records_each_updates_own_degree() {
        let mut g = DynamicGraph::new();
        let batch = [
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(0, 2),
            EdgeUpdate::insert(0, 2), // duplicate
            EdgeUpdate::delete(0, 1),
            EdgeUpdate::delete(0, 5), // absent
        ];
        let want = [(batch[0], 1), (batch[1], 2), (batch[3], 1)];
        let mut r = Repairs::default();
        apply_to_graph(&mut g, &batch, &mut r);
        assert_eq!(r.list, want);
        assert_eq!(r.seeds, [0, 0, 0]);
        assert_eq!(g.out_degree(0), 1);
    }

    /// A 10k-update bootstrap batch grows the buffers; the first 100-update
    /// batch after it gives most of that back, and later batches of about
    /// that size reallocate nothing.
    #[test]
    fn repairs_shrink_after_a_much_larger_batch_then_stay_put() {
        let inserts = |from: u32, n: u32| -> Vec<EdgeUpdate> {
            (from..from + n).map(|i| EdgeUpdate::insert(i % 500, 500 + i)).collect()
        };
        let mut g = DynamicGraph::new();
        let mut r = Repairs::default();
        apply_to_graph(&mut g, &inserts(0, 10_000), &mut r);
        assert_eq!(r.list.len(), 10_000);
        let big = (r.list.capacity(), r.seeds.capacity());
        apply_to_graph(&mut g, &inserts(10_000, 100), &mut r);
        let small = (r.list.capacity(), r.seeds.capacity());
        assert!(small.0 <= 400 && small.1 <= 400, "kept {small:?} of {big:?}");
        for k in 1..20 {
            // Batches of 60 to 100 updates, the smaller ones half deletes.
            let mut batch = inserts(10_000 + 100 * k, 60 + 2 * k);
            let deletes = inserts(400 * k, 40 - 2 * k);
            batch.extend(deletes.iter().map(|u| EdgeUpdate::delete(u.src, u.dst)));
            apply_to_graph(&mut g, &batch, &mut r);
            assert_eq!(r.list.len(), 100);
            assert_eq!((r.list.capacity(), r.seeds.capacity()), small, "batch {k}");
        }
    }

    #[test]
    fn deleting_last_out_edge() {
        // Vertex 0 (the source) has the single out-edge 0→3; removing it
        // leaves dout(0)=0 and the invariant P(0) + α·R(0) = α.
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &[EdgeUpdate::delete(0, 3)], &c, &mut r);
        assert_eq!(seeds, [0]);
        assert_eq!(g.out_degree(0), 0);
        let cfg = *st.config();
        assert!(
            (st.p(0) + cfg.alpha * st.r(0) - cfg.alpha).abs() < 1e-12,
            "empty-sum invariant must hold"
        );
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    #[test]
    fn noop_updates_leave_state_alone() {
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        let before = st.residuals();
        // Duplicate insert and missing delete must not touch the state.
        let batch = [EdgeUpdate::insert(1, 0), EdgeUpdate::delete(0, 1)];
        assert!(absorb_batch(&mut g, &mut st, &batch, &c, &mut Repairs::default()).is_empty());
        assert_eq!(st.residuals(), before);
        assert_eq!(c.snapshot().restore_ops, 0);
    }

    #[test]
    fn new_vertex_via_insert() {
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        // Vertex 9 did not exist; the edge 9→0 materializes it.
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &[EdgeUpdate::insert(9, 0)], &c, &mut r);
        assert_eq!(seeds, [9]);
        assert_eq!(st.len(), 10);
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    /// Random inserts and deletes keep the invariant, and replaying a
    /// batch after the graph absorbed all of it leaves the residuals'
    /// bits equal to absorbing the same updates one at a time.
    #[test]
    fn invariant_holds_under_random_updates() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        let updates: Vec<EdgeUpdate> = (0..500)
            .map(|_| {
                let u = rng.gen_range(0..20u32);
                let v = rng.gen_range(0..20u32);
                if rng.gen_bool(0.7) {
                    EdgeUpdate::insert(u, v)
                } else {
                    EdgeUpdate::delete(u, v)
                }
            })
            .collect();
        let run = |chunk: usize| {
            let mut st = PprState::new(PprConfig::new(0, 0.15, 0.01));
            let mut g = DynamicGraph::new();
            let c = Counters::new();
            for batch in updates.chunks(chunk) {
                absorb_batch(&mut g, &mut st, batch, &c, &mut Repairs::default());
                g.check_consistency().unwrap();
            }
            assert!(max_invariant_violation(&g, &st) < 1e-9);
            let bits: Vec<u64> = st.residuals().iter().map(|r| r.to_bits()).collect();
            (bits, c.snapshot().restore_ops)
        };
        assert_eq!(run(25), run(1));
    }
}
