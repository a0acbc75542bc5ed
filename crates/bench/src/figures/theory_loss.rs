//! Lemma 4 — parallel loss, measured.
//!
//! Runs the lock-step parallel and sequential pushes from a unit residual
//! at a hub vertex and reports, per graph: iterations, push counts, the
//! push-count ratio (the loss), and the fraction of iterations where the
//! parallel residual mass dominates the sequential one (Lemma 4 predicts
//! 100% as ε→0).
//!
//! Usage: `figures theory_loss [--full]`

use crate::ExperimentScale;
use dppr_core::par::parallel_push_lockstep;
use dppr_core::seq::sequential_push_lockstep;
use dppr_core::{PprConfig, PprState};
use dppr_graph::generators::{barabasi_albert, undirected_to_directed};
use dppr_graph::DynamicGraph;

pub fn run(scale: ExperimentScale) {
    let sizes: &[(u32, usize)] = match scale {
        ExperimentScale::Quick => &[(500, 3), (1_000, 4), (2_000, 5)],
        ExperimentScale::Full => &[(2_000, 4), (10_000, 5), (50_000, 7)],
    };
    println!("# Lemma 4: parallel loss on BA graphs (unit residual at top hub)");
    println!(
        "n\tm_per_node\teps\tpushes_par\tpushes_seq\tloss_ratio\titers_par\titers_seq\tl1_dominance_frac"
    );
    for &(n, m) in sizes {
        for eps_exp in [4, 6, 8] {
            let eps = 10f64.powi(-eps_exp);
            let g =
                DynamicGraph::from_edges(undirected_to_directed(&barabasi_albert(n, m, n as u64)));
            let hub = g.top_out_degree_vertices(1)[0];
            let cfg = PprConfig::new(hub, 0.15, eps);
            let mk = || {
                let mut st = PprState::new(cfg);
                st.ensure_len(g.num_vertices());
                st.set_p(hub, 0.0);
                st.set_r(hub, 1.0);
                st
            };
            let stp = mk();
            let tp = parallel_push_lockstep(&g, &stp, &[hub]);
            let stq = mk();
            let tq = sequential_push_lockstep(&g, &stq, &[hub]);
            let common = tp.l1_after_iteration.len().min(tq.l1_after_iteration.len());
            let dominated = tp
                .l1_after_iteration
                .iter()
                .zip(&tq.l1_after_iteration)
                .filter(|(p, q)| p >= q)
                .count();
            println!(
                "{n}\t{m}\t{eps:.0e}\t{}\t{}\t{:.4}\t{}\t{}\t{:.3}",
                tp.pushes,
                tq.pushes,
                tp.pushes as f64 / tq.pushes.max(1) as f64,
                tp.frontier_sizes.len(),
                tq.frontier_sizes.len(),
                if common == 0 { 1.0 } else { dominated as f64 / common as f64 },
            );
        }
    }
}
