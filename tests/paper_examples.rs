//! The paper's worked examples (Figures 1–3), checked end-to-end through
//! the public facade API.
//!
//! Paper ids `v1..v4` map to our `0..3`. The figure graph (recovered from
//! the figure's arithmetic) is 2→1, 3→1, 3→2, 4→3, 1→4, with
//! α = 0.5 and ε = 0.1, source `v1`.

use dppr::core::seq::{sequential_local_push, SeqPushBuffers};
use dppr::core::{
    absorb_batch, max_invariant_violation, Counters, ParallelEngine, PprConfig, PprState,
    PushVariant, Repairs, SeqEngine, UpdateMode,
};
use dppr::core::{exact_ppr, DynamicPprEngine};
use dppr::graph::{DynamicGraph, EdgeUpdate};

fn figure_graph() -> DynamicGraph {
    DynamicGraph::from_edges([(1, 0), (2, 0), (2, 1), (3, 2), (0, 3)])
}

fn figure_state() -> PprState {
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
fn figure1_sequential_single_update() {
    let mut g = figure_graph();
    let mut st = figure_state();
    let c = Counters::new();
    let mut r = Repairs::default();
    absorb_batch(&mut g, &mut st, &[EdgeUpdate::insert(0, 1)], &c, &mut r);
    assert_eq!(r.list.len(), 1);
    assert!((st.r(0) - 0.15625).abs() < 1e-12, "Figure 1(b)");
    let mut bufs = SeqPushBuffers::new();
    sequential_local_push(&g, &st, &[0], &c, &mut bufs);
    // Figure 1(d).
    assert!((st.p(0) - 0.578125).abs() < 1e-12);
    assert!((st.r(1) - 0.078125).abs() < 1e-12);
    assert!((st.r(2) - 0.0390625).abs() < 1e-12);
    assert!(max_invariant_violation(&g, &st) < 1e-12);
}

#[test]
fn figure2_parallel_batch_update() {
    // Drive the same batch through the public ParallelEngine (vanilla
    // variant reproduces the figure's stale-snapshot trace exactly).
    // The engine starts from the empty graph, so first bring it to the
    // figure's initial state by replaying the base edges and pushing.
    let cfg = PprConfig::new(0, 0.5, 0.1);
    let mut engine = ParallelEngine::new(cfg, PushVariant::VANILLA);
    let mut g = DynamicGraph::new();
    let base: Vec<EdgeUpdate> = [(1, 0), (2, 0), (2, 1), (3, 2), (0, 3)]
        .into_iter()
        .map(|(u, v)| EdgeUpdate::insert(u, v))
        .collect();
    engine.apply_batch(&mut g, &base);
    // The figure's initial state is one ε-approximation of this graph;
    // ours may differ in residual placement but both satisfy Eq. 2 and
    // ε-accuracy. Now the batch of Figure 2:
    let batch = vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(3, 0)];
    engine.apply_batch(&mut g, &batch);
    assert!(max_invariant_violation(&g, engine.state()) < 1e-12);
    let truth = exact_ppr(&g, 0, 0.5, 1e-14);
    for v in 0..4u32 {
        assert!((engine.estimate(v) - truth[v as usize]).abs() <= 0.1 + 1e-12, "vertex {v}");
    }
}

#[test]
fn figure3_parallel_loss_account() {
    // Both pushes start from R(v1)=1; the parallel (vanilla) push costs 5
    // operations, the sequential 4 — the extra push on v3 is the paper's
    // parallel loss.
    let g = figure_graph();
    let cfg = PprConfig::new(0, 0.5, 0.1);

    let c_seq = Counters::new();
    let st = PprState::new(cfg);
    let mut stq = st;
    stq.ensure_len(4);
    stq.set_p(0, 0.0);
    stq.set_r(0, 1.0);
    let mut bufs = SeqPushBuffers::new();
    sequential_local_push(&g, &stq, &[0], &c_seq, &mut bufs);
    assert_eq!(c_seq.snapshot().pushes, 4);

    let c_par = Counters::new();
    let mut stp = PprState::new(cfg);
    stp.ensure_len(4);
    stp.set_p(0, 0.0);
    stp.set_r(0, 1.0);
    let mut pbufs = dppr::core::par::ParPushBuffers::new();
    dppr::core::par::parallel_local_push(&g, &stp, PushVariant::VANILLA, &[0], &c_par, &mut pbufs);
    assert_eq!(c_par.snapshot().pushes, 5);

    // Both converge to ε-equivalent states.
    for v in 0..4u32 {
        assert!((stp.p(v) - stq.p(v)).abs() <= 0.2 + 1e-12);
    }
}

#[test]
fn example1_and_2_prose_claims() {
    // Example 1: after the single insert, only v1 is pushed and
    // convergence is reached with no further activation.
    let mut g = figure_graph();
    let mut st = figure_state();
    let c = Counters::new();
    let mut r = Repairs::default();
    absorb_batch(&mut g, &mut st, &[EdgeUpdate::insert(0, 1)], &c, &mut r);
    assert!(st.r(0) > 0.1, "v1 must be activated");
    assert!(st.r(1) <= 0.1 && st.r(2) <= 0.1 && st.r(3) <= 0.1);

    // Example 2: with the batch {e1, e2}, both v1 and v4 are activated and
    // the parallel push converges in one iteration.
    let mut g = figure_graph();
    let mut st = figure_state();
    let batch = [EdgeUpdate::insert(0, 1), EdgeUpdate::insert(3, 0)];
    absorb_batch(&mut g, &mut st, &batch, &c, &mut r);
    assert!(st.r(0) > 0.1 && st.r(3) > 0.1);
    let c2 = Counters::new();
    let mut bufs = dppr::core::par::ParPushBuffers::new();
    dppr::core::par::parallel_local_push(&g, &st, PushVariant::VANILLA, &[0, 3], &c2, &mut bufs);
    assert_eq!(c2.snapshot().iterations, 1);
}

#[test]
fn cpu_base_equals_cpu_seq_on_single_updates() {
    // With |ΔE| = 1 the batched and per-update engines are the same
    // algorithm; check they produce identical states on a shared script.
    let cfg = PprConfig::new(0, 0.5, 0.1);
    let script = [
        EdgeUpdate::insert(0, 1),
        EdgeUpdate::insert(1, 2),
        EdgeUpdate::insert(2, 0),
        EdgeUpdate::delete(0, 1),
        EdgeUpdate::insert(0, 3),
        EdgeUpdate::insert(3, 1),
    ];
    let mut base = SeqEngine::new(cfg, UpdateMode::PerUpdate);
    let mut seq = SeqEngine::new(cfg, UpdateMode::Batched);
    let mut g1 = DynamicGraph::new();
    let mut g2 = DynamicGraph::new();
    for upd in script {
        base.apply_batch(&mut g1, &[upd]);
        seq.apply_batch(&mut g2, &[upd]);
    }
    assert_eq!(base.estimates(), seq.estimates());
}
