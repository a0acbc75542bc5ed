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


use crate::counters::Counters;
use crate::state::PprState;
use dppr_graph::{DynamicGraph, EdgeOp, EdgeUpdate, VertexId};

/// Repairs the invariant for the update `(u, v, op)`. Must be called
/// **after** the edge change has been applied to `g`, with `state` already
/// grown to cover `g`'s vertices.
pub fn restore_invariant(
    g: &DynamicGraph,
    state: &PprState,
    u: VertexId,
    v: VertexId,
    op: EdgeOp,
) {
    restore_invariant_with_degree(state, u, v, op, g.out_degree(u));
}

/// [`restore_invariant`] with the post-update out-degree supplied by the
/// caller. This is what makes *replaying* a batch of repairs against
/// several states possible after the graph has already absorbed the whole
/// batch (`dout(u)` must be the degree right after *this* update — the
/// `d_j(u)` of Lemma 3 — not the final one).
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

    let numerator =
        (1.0 - alpha) * state.p(v) - state.p(u) - alpha * state.r(u) + indicator;
    // This division is per-*update*, not per-edge, and `dout_after` is a
    // historical degree (the d_j(u) of Lemma 3) that the graph's maintained
    // `inv_out_degree` cannot supply mid-replay. It also keeps the serial
    // and parallel restore paths bit-identical — do not rewrite it as a
    // multiply by a cached reciprocal.
    let delta = numerator / (alpha * dout_after as f64);
    state.set_r(u, state.r(u) + op.sign() * delta);
}

/// Applies one update end-to-end: mutates the graph, grows the state, and
/// repairs the invariant. Returns `false` (leaving everything unchanged)
/// if the graph mutation was a no-op (duplicate insert / absent delete).
pub fn apply_update(
    g: &mut DynamicGraph,
    state: &mut PprState,
    upd: EdgeUpdate,
    counters: &Counters,
) -> bool {
    if !g.apply(upd) {
        return false;
    }
    state.ensure_len(g.num_vertices());
    restore_invariant(g, state, upd.src, upd.dst, upd.op);
    counters.record_restore();
    true
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
            let sum: f64 = g
                .out_neighbors(w)
                .iter()
                .map(|&x| state.p(x))
                .sum();
            (1.0 - alpha) * sum * g.inv_out_degree(w) + indicator
        };
        let lhs = state.p(w) + alpha * state.r(w);
        worst = worst.max((lhs - rhs).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
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
        assert!(apply_update(&mut g, &mut st, EdgeUpdate::insert(0, 1), &c));
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
        assert!(apply_update(&mut g, &mut st, EdgeUpdate::insert(0, 1), &c));
        assert!(apply_update(&mut g, &mut st, EdgeUpdate::insert(3, 0), &c));
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
        apply_update(&mut g, &mut st, EdgeUpdate::insert(0, 1), &c);
        apply_update(&mut g, &mut st, EdgeUpdate::delete(0, 1), &c);
        assert!((st.r(0) - r0).abs() < 1e-12);
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    #[test]
    fn deleting_last_out_edge() {
        // Vertex 0 (the source) has the single out-edge 0→3; removing it
        // leaves dout(0)=0 and the invariant P(0) + α·R(0) = α.
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        assert!(apply_update(&mut g, &mut st, EdgeUpdate::delete(0, 3), &c));
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
        assert!(!apply_update(&mut g, &mut st, EdgeUpdate::insert(1, 0), &c));
        assert!(!apply_update(&mut g, &mut st, EdgeUpdate::delete(0, 1), &c));
        assert_eq!(st.residuals(), before);
        assert_eq!(c.snapshot().restore_ops, 0);
    }

    #[test]
    fn new_vertex_via_insert() {
        let mut g = figure1_graph();
        let mut st = figure1_state();
        let c = Counters::new();
        // Vertex 9 did not exist; the edge 9→0 materializes it.
        assert!(apply_update(&mut g, &mut st, EdgeUpdate::insert(9, 0), &c));
        assert_eq!(st.len(), 10);
        assert!(max_invariant_violation(&g, &st) < 1e-12);
    }

    #[test]
    fn invariant_holds_under_random_updates() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        let cfg = PprConfig::new(0, 0.15, 0.01);
        let mut st = PprState::new(cfg);
        let mut g = DynamicGraph::new();
        let c = Counters::new();
        for _ in 0..500 {
            let u = rng.gen_range(0..20u32);
            let v = rng.gen_range(0..20u32);
            let upd = if rng.gen_bool(0.7) {
                EdgeUpdate::insert(u, v)
            } else {
                EdgeUpdate::delete(u, v)
            };
            apply_update(&mut g, &mut st, upd, &c);
            g.check_consistency().unwrap();
        }
        assert!(max_invariant_violation(&g, &st) < 1e-9);
    }
}
