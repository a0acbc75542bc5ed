//! Empirical validation of Lemma 4 (parallel loss): with the same initial
//! residual distribution, the lock-step *parallel* push carries at least as
//! much total residual as the lock-step *sequential* push at every
//! iteration — and consequently performs at least as many operations.
//!
//! The lemma is an ε→0 statement on graphs satisfying the friendship-
//! paradox condition; we test on scale-free (BA) graphs with a small ε and
//! allow the documented O(ε) slack.

use dppr::core::par::parallel_push_lockstep;
use dppr::core::seq::sequential_push_lockstep;
use dppr::core::{PprConfig, PprState};
use dppr::graph::generators::{barabasi_albert, undirected_to_directed};
use dppr::graph::DynamicGraph;

fn ba_graph(n: u32, m: usize, seed: u64) -> DynamicGraph {
    DynamicGraph::from_edges(undirected_to_directed(&barabasi_albert(n, m, seed)))
}

/// Runs both lock-step pushes from a unit residual at `hub` and compares
/// the per-iteration ‖R‖₁ traces.
fn compare(g: &DynamicGraph, hub: u32, eps: f64) -> (Vec<f64>, Vec<f64>, u64, u64) {
    let cfg = PprConfig::new(hub, 0.2, eps);
    let mk = || {
        let mut st = PprState::new(cfg);
        st.ensure_len(g.num_vertices());
        st.set_p(hub, 0.0);
        st.set_r(hub, 1.0);
        st
    };
    let stp = mk();
    let tp = parallel_push_lockstep(g, &stp, &[hub]);
    let stq = mk();
    let tq = sequential_push_lockstep(g, &stq, &[hub]);
    (tp.l1_after_iteration, tq.l1_after_iteration, tp.pushes, tq.pushes)
}

#[test]
fn lemma4_l1_dominance_on_scale_free_graphs() {
    for seed in [1u64, 2, 3] {
        let g = ba_graph(300, 4, seed);
        let hub = g.top_out_degree_vertices(1)[0];
        let eps = 1e-6;
        let (lp, lq, pp, pq) = compare(&g, hub, eps);
        // Parallel performs at least as many pushes (parallel loss).
        assert!(pp >= pq, "seed {seed}: parallel pushes {pp} < sequential {pq}");
        // Per-iteration dominance with O(ε)-scale slack. Traces can have
        // different lengths; compare the common prefix.
        let slack = 64.0 * eps * g.num_vertices() as f64;
        for (i, (p, q)) in lp.iter().zip(&lq).enumerate() {
            assert!(*p >= *q - slack, "seed {seed} iteration {i}: ‖R^p‖₁ = {p} < ‖R^q‖₁ = {q}");
        }
    }
}

#[test]
fn parallel_loss_shrinks_with_eager_propagation() {
    // The operational claim behind §4.1: across random workloads, the
    // eager variant needs no more pushes than vanilla in aggregate.
    use dppr::core::par::{parallel_local_push, ParPushBuffers};
    use dppr::core::Counters;
    use dppr::core::PushVariant;

    let mut vanilla_total = 0u64;
    let mut eager_total = 0u64;
    for seed in 0..5u64 {
        let g = ba_graph(300, 4, seed + 10);
        let hub = g.top_out_degree_vertices(1)[0];
        for variant in [PushVariant::VANILLA, PushVariant::OPT] {
            let cfg = PprConfig::new(hub, 0.2, 1e-6);
            let mut st = PprState::new(cfg);
            st.ensure_len(g.num_vertices());
            st.set_p(hub, 0.0);
            st.set_r(hub, 1.0);
            let c = Counters::new();
            let mut bufs = ParPushBuffers::new();
            parallel_local_push(&g, &st, variant, &[hub], &c, &mut bufs);
            assert!(st.converged());
            if variant == PushVariant::VANILLA {
                vanilla_total += c.snapshot().pushes;
            } else {
                eager_total += c.snapshot().pushes;
            }
        }
    }
    assert!(eager_total <= vanilla_total, "eager {eager_total} pushes vs vanilla {vanilla_total}");
}

#[test]
fn lockstep_traces_converge_to_same_estimates() {
    let g = ba_graph(200, 3, 77);
    let hub = g.top_out_degree_vertices(1)[0];
    let cfg = PprConfig::new(hub, 0.2, 1e-5);
    let mk = || {
        let mut st = PprState::new(cfg);
        st.ensure_len(g.num_vertices());
        st.set_p(hub, 0.0);
        st.set_r(hub, 1.0);
        st
    };
    let stp = mk();
    parallel_push_lockstep(&g, &stp, &[hub]);
    let stq = mk();
    sequential_push_lockstep(&g, &stq, &[hub]);
    for v in 0..g.num_vertices() as u32 {
        assert!((stp.p(v) - stq.p(v)).abs() <= 2e-5 + 1e-12, "vertex {v}");
    }
}
