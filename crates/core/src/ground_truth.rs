//! Exact solver for the fix-point the local update approximates.
//!
//! With `Rs ≡ 0`, Eq. 2 pins the exact vector:
//!
//! ```text
//! π(v) = α·1{v=s} + (1−α)/dout(v) · Σ_{x ∈ Nout(v)} π(x)      (dout(v) > 0)
//! π(v) = α·1{v=s}                                             (dout(v) = 0)
//! ```
//!
//! The Jacobi operator behind this recurrence is an ∞-norm contraction with
//! factor `(1−α)`, so plain iteration converges geometrically from any
//! start, and a sweep's sup-norm step `δ` bounds what is left to go by
//! `(1−α)/α · δ`. We iterate until that bound falls below `tol`, or until
//! `(1−α)^k < tol`, which bounds it too: the iterates rise monotonically
//! from `α·e_s` towards `π ≤ 1`.
//!
//! Each sweep fans out over [`fan_out`]'s ranges: every part reads the
//! current iterate and writes only its own range of the next one, so the
//! result does not depend on the thread count.

use crate::atomic::AtomicF64;
use crate::fanout::{fan_out, threads_for};
use dppr_graph::{DynamicGraph, VertexId};
use std::ops::Range;

/// Solves the Eq. 2 fix-point to sup-norm accuracy `tol`, each Jacobi sweep
/// fanned out over every core once the graph is large enough to pay for it.
///
/// The returned vector is what a converged local-update state approximates:
/// `|π(v) − Ps(v)| ≤ ε` for every `v`.
pub fn exact_ppr(g: &DynamicGraph, source: VertexId, alpha: f64, tol: f64) -> Vec<f64> {
    solve(g, source, alpha, tol, threads_for(g.num_vertices()))
}

/// [`exact_ppr`] on the calling thread only — for callers that must leave
/// the cores to someone else, e.g. the serve-side accuracy auditor, which
/// runs on a single background thread next to the write loop. Identical
/// math and iteration cap, so the two agree bit for bit.
pub fn exact_ppr_seq(g: &DynamicGraph, source: VertexId, alpha: f64, tol: f64) -> Vec<f64> {
    solve(g, source, alpha, tol, 1)
}

fn solve(g: &DynamicGraph, source: VertexId, alpha: f64, tol: f64, threads: usize) -> Vec<f64> {
    assert!(alpha > 0.0 && alpha < 1.0);
    assert!(tol > 0.0);
    let n = g.num_vertices().max(source as usize + 1);
    // The two iterates are atomic rows, as `PprState` holds its vectors, so
    // that every part of a sweep can share them. Relaxed loads and stores
    // suffice: a sweep's parts write disjoint ranges of `next`, and
    // `fan_out`'s barrier orders every store before the next sweep's loads.
    let row = || (0..n).map(|_| AtomicF64::default()).collect::<Vec<_>>();
    let (mut cur, mut next) = (row(), row());
    cur[source as usize].store(alpha);
    // Eq. 2's right-hand side at `v`, read off the iterate `cur`.
    let value_at = |v: usize, cur: &[AtomicF64]| {
        let teleport = if v == source as usize { alpha } else { 0.0 };
        if v < g.num_vertices() && g.out_degree(v as VertexId) > 0 {
            let sum: f64 =
                g.out_neighbors(v as VertexId).iter().map(|&x| cur[x as usize].load()).sum();
            teleport + (1.0 - alpha) * sum / g.out_degree(v as VertexId) as f64
        } else {
            teleport
        }
    };
    // After k sweeps the error is at most (1−α)^k; this cap makes it < tol.
    let max_iters = ((tol.ln() / (1.0 - alpha).ln()).ceil() as usize + 2).max(8);
    for _ in 0..max_iters {
        // One Jacobi sweep: each part reads `cur` and overwrites only its
        // own range of `next`; the sup-norm change folds by max.
        let sweep = |range: Range<usize>| {
            range.fold(0.0f64, |delta, v| {
                let value = value_at(v, &cur);
                let delta = delta.max((value - next[v].load()).abs());
                next[v].store(value);
                delta
            })
        };
        let delta = fan_out(n, threads, sweep, f64::max);
        std::mem::swap(&mut cur, &mut next);
        if (1.0 - alpha) * delta < alpha * tol {
            break;
        }
    }
    cur.iter().map(AtomicF64::load).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_graph::generators::{barabasi_albert, erdos_renyi, undirected_to_directed};

    #[test]
    fn empty_graph_is_teleport_only() {
        let g = DynamicGraph::with_vertices(3);
        let p = exact_ppr(&g, 1, 0.15, 1e-12);
        assert_eq!(p, vec![0.0, 0.15, 0.0]);
    }

    #[test]
    fn source_beyond_graph_is_materialized() {
        let g = DynamicGraph::new();
        let p = exact_ppr(&g, 4, 0.5, 1e-12);
        assert_eq!(p.len(), 5);
        assert_eq!(p[4], 0.5);
    }

    #[test]
    fn two_cycle_closed_form() {
        // 0 ⇄ 1, source 0: π(0) = α + (1−α)·π(1), π(1) = (1−α)·π(0)
        // ⇒ π(0) = α / (1 − (1−α)²), π(1) = (1−α)·π(0).
        let g = DynamicGraph::from_edges([(0, 1), (1, 0)]);
        let a = 0.15f64;
        let p = exact_ppr(&g, 0, a, 1e-14);
        let pi0 = a / (1.0 - (1.0 - a) * (1.0 - a));
        assert!((p[0] - pi0).abs() < 1e-10);
        assert!((p[1] - (1.0 - a) * pi0).abs() < 1e-10);
    }

    #[test]
    fn figure1_initial_state_is_exact() {
        // The paper's Figure 1 initial state has residuals ≈ 0 only at some
        // vertices; instead check that the exact solution satisfies Eq. 2
        // and lies within ε=0.1 of the printed estimates.
        let g = DynamicGraph::from_edges([(1, 0), (2, 0), (2, 1), (3, 2), (0, 3)]);
        let p = exact_ppr(&g, 0, 0.5, 1e-14);
        let printed = [0.5, 0.25, 0.1875, 0.0625];
        for v in 0..4 {
            assert!(
                (p[v] - printed[v]).abs() <= 0.1,
                "vertex {v}: exact {} vs printed {}",
                p[v],
                printed[v]
            );
        }
    }

    #[test]
    fn values_are_probabilities() {
        let edges = undirected_to_directed(&barabasi_albert(300, 3, 9));
        let g = DynamicGraph::from_edges(edges);
        let p = exact_ppr(&g, 5, 0.15, 1e-12);
        for (v, &x) in p.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-12).contains(&x), "π({v}) = {x} out of range");
        }
        // π(s) ≥ α always (the walk can stop immediately).
        assert!(p[5] >= 0.15 - 1e-12);
    }

    #[test]
    fn sequential_solver_matches_parallel() {
        let edges = undirected_to_directed(&barabasi_albert(200, 3, 11));
        let g = DynamicGraph::from_edges(edges);
        for &(source, alpha, tol) in &[(0u32, 0.15, 1e-10), (7, 0.5, 1e-8), (150, 0.2, 1e-12)] {
            // Per-vertex arithmetic does not depend on the chunking, and
            // the sup-norm fold is a max: nothing is order-sensitive.
            let seq = exact_ppr_seq(&g, source, alpha, tol);
            assert_eq!(solve(&g, source, alpha, tol, 3), seq);
            assert_eq!(exact_ppr(&g, source, alpha, tol), seq);
        }
    }

    #[test]
    fn sequential_solver_edge_cases() {
        let g = DynamicGraph::with_vertices(3);
        assert_eq!(exact_ppr_seq(&g, 1, 0.15, 1e-12), vec![0.0, 0.15, 0.0]);
        let g = DynamicGraph::new();
        let p = exact_ppr_seq(&g, 4, 0.5, 1e-12);
        assert_eq!(p.len(), 5);
        assert_eq!(p[4], 0.5);
    }

    #[test]
    fn audited_replay_respects_epsilon_contract() {
        // The oracle the serve-side auditor trusts: maintained estimates
        // after a mixed insert/delete stream must stay within ε of the
        // sequential exact solve on the final graph — for every source.
        use crate::multi::MultiSourcePpr;
        use dppr_graph::EdgeUpdate;
        let (alpha, eps) = (0.2, 1e-3);
        let mut g = DynamicGraph::new();
        let mut multi = MultiSourcePpr::new(&[0, 5, 17], alpha, eps);
        let edges = undirected_to_directed(&barabasi_albert(120, 3, 5));
        for chunk in edges.chunks(150) {
            let batch: Vec<EdgeUpdate> =
                chunk.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
            multi.apply_batch(&mut g, &batch);
        }
        // Retract an early slice, as a sliding window would.
        let dels: Vec<EdgeUpdate> =
            edges.iter().take(80).map(|&(u, v)| EdgeUpdate::delete(u, v)).collect();
        multi.apply_batch(&mut g, &dels);
        for i in 0..multi.num_sources() {
            let s = multi.source(i);
            let exact = exact_ppr_seq(&g, s, alpha, eps * 1e-3);
            let est = multi.state(i).estimates();
            let linf = (0..exact.len().max(est.len()))
                .map(|v| {
                    (exact.get(v).copied().unwrap_or(0.0) - est.get(v).copied().unwrap_or(0.0))
                        .abs()
                })
                .fold(0.0f64, f64::max);
            assert!(linf <= eps + 1e-9, "source {s}: audited error {linf} > eps {eps}");
        }
    }

    /// The returned vector is within `tol` of the fix-point, whatever α:
    /// a stop on the step alone would leave up to `(1−α)/α · tol` to go.
    #[test]
    fn error_is_within_tolerance() {
        let g = DynamicGraph::from_edges(undirected_to_directed(&barabasi_albert(2_000, 3, 1)));
        let s = g.top_out_degree_vertices(1)[0];
        for alpha in [0.5, 0.15, 0.05, 0.01] {
            let fine = exact_ppr(&g, s, alpha, 1e-15);
            for tol in [1e-4, 1e-6] {
                let p = exact_ppr(&g, s, alpha, tol);
                let err = p.iter().zip(&fine).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
                assert!(err <= tol, "α {alpha}, tol {tol}: error {err:.3e}");
            }
        }
    }

    #[test]
    fn tighter_tolerance_refines() {
        let g = DynamicGraph::from_edges(erdos_renyi(40, 200, 4));
        let coarse = exact_ppr(&g, 0, 0.15, 1e-3);
        let fine = exact_ppr(&g, 0, 0.15, 1e-13);
        let diff = coarse.iter().zip(&fine).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(diff < 1e-2);
        assert!(diff > 0.0 || coarse == fine);
    }
}
