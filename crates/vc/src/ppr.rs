//! The batched dynamic-PPR push expressed **only** through the
//! vertex-centric abstraction — the paper's `Ligra` baseline.
//!
//! Deliberate limitations, mirroring §5.3's explanation of why the generic
//! system loses to the specialized kernels:
//!
//! * Bulk-synchronous `vertexMap` + `edgeMap` force Algorithm 3's stale
//!   snapshot order; *eager propagation* ("active vertices … absorb
//!   incoming messages") cannot be expressed.
//! * Frontier dedup must go through the generic CAS-claim contract of
//!   `edgeMap`'s update function; *local duplicate detection* needs the
//!   before-value of the residual add, which the abstraction does not
//!   surface.

use crate::edge_map::{edge_map, vertex_map, Direction, EdgeMapOptions};
use crate::subset::VertexSubset;
use dppr_core::{
    absorb_batch, AtomicF64, BatchStats, CounterSnapshot, Counters, DynamicPprEngine, Phase,
    PprConfig, PprState, Repairs,
};
use dppr_graph::{DynamicGraph, EdgeUpdate, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Dynamic PPR maintained through the vertex-centric engine.
pub struct LigraEngine {
    state: PprState,
    counters: Counters,
    repairs: Repairs,
    /// Residual snapshots taken during self-update, read by propagation.
    ws: Vec<AtomicF64>,
    /// CAS-claim flags for frontier dedup.
    claimed: Vec<AtomicBool>,
    opts: EdgeMapOptions,
}

impl LigraEngine {
    /// Creates an engine with Ligra's default dense/sparse threshold.
    pub fn new(cfg: PprConfig) -> Self {
        LigraEngine {
            state: PprState::new(cfg),
            counters: Counters::new(),
            repairs: Repairs::default(),
            ws: Vec::new(),
            claimed: Vec::new(),
            opts: EdgeMapOptions::default(),
        }
    }

    /// Overrides the edge-map options (used by the frontier-generation
    /// ablation benchmarks).
    pub fn with_options(cfg: PprConfig, opts: EdgeMapOptions) -> Self {
        let mut e = Self::new(cfg);
        e.opts = opts;
        e
    }

    /// Direct access to the maintained state.
    pub fn state(&self) -> &PprState {
        &self.state
    }

    fn ensure(&mut self, n: usize) {
        if self.ws.len() < n {
            self.ws.resize_with(n, AtomicF64::default);
            self.claimed.resize_with(n, AtomicBool::default);
        }
    }

    /// Pushes from the sources of the batch's repairs, and publishes the
    /// work counted once it converges.
    fn push(&mut self, g: &DynamicGraph) {
        let n = g.num_vertices();
        self.ensure(n);
        let cfg = *self.state.config();
        let alpha = cfg.alpha;
        let eps = cfg.epsilon;
        let state = &self.state;
        let ws = &self.ws;
        let claimed = &self.claimed;
        let mut work = CounterSnapshot::default();

        for phase in Phase::BOTH {
            let mut seed_ids: Vec<VertexId> = self.repairs.seeds.clone();
            seed_ids.sort_unstable();
            seed_ids.dedup();
            seed_ids.retain(|&u| phase.active(state.r(u), eps));
            let mut frontier = VertexSubset::from_sparse(n, seed_ids);
            while !frontier.is_empty() {
                work.iterations += 1;
                work.max_frontier = work.max_frontier.max(frontier.len() as u64);
                // vertexMap: take out residuals (stale snapshots).
                let mut fq = vertex_map(&mut frontier, |u| {
                    let w = state.r_atomics()[u as usize].swap(0.0);
                    let p = &state.p_atomics()[u as usize];
                    p.store(p.load() + alpha * w);
                    ws[u as usize].store(w);
                    true
                });
                // Every member pushes once, along each of its in-edges.
                let ids = fq.ids();
                work.pushes += ids.len() as u64;
                work.edge_traversals += ids.iter().map(|&u| g.in_degree(u) as u64).sum::<u64>();
                // edgeMap along in-edges: propagate, claim-dedup.
                let mut next = edge_map(
                    g,
                    &mut fq,
                    Direction::In,
                    self.opts,
                    |u, v| {
                        // Division-free: multiply by the graph-maintained
                        // 1/dout (v has the edge v→u, so dout(v) ≥ 1).
                        let inc = (1.0 - alpha) * ws[u as usize].load() * g.inv_out_degree(v);
                        let r_cur = state.r_atomics()[v as usize].fetch_add(inc) + inc;
                        phase.active(r_cur, eps)
                            && !claimed[v as usize].swap(true, Ordering::Relaxed)
                    },
                    |u, v| {
                        // Dense: one task owns v, plain update is fine.
                        let inc = (1.0 - alpha) * ws[u as usize].load() * g.inv_out_degree(v);
                        let r = &state.r_atomics()[v as usize];
                        let r_cur = r.load() + inc;
                        r.store(r_cur);
                        phase.active(r_cur, eps)
                            && !claimed[v as usize].swap(true, Ordering::Relaxed)
                    },
                    |_| true,
                );
                for &v in next.ids() {
                    claimed[v as usize].store(false, Ordering::Relaxed);
                }
                frontier = next;
            }
        }
        debug_assert!(state.max_abs_residual() <= eps + 1e-12);
        self.counters.add(&work);
    }
}

impl DynamicPprEngine for LigraEngine {
    fn name(&self) -> String {
        "Ligra".into()
    }

    fn config(&self) -> &PprConfig {
        self.state.config()
    }

    fn apply_batch(&mut self, g: &mut DynamicGraph, batch: &[EdgeUpdate]) -> BatchStats {
        let before = self.counters.snapshot();
        let start = Instant::now();
        absorb_batch(g, &mut self.state, batch, &self.counters, &mut self.repairs);
        self.push(g);
        self.counters.record_batch();
        BatchStats {
            latency: start.elapsed(),
            applied: self.repairs.list.len(),
            counters: self.counters.snapshot() - before,
        }
    }

    fn estimate(&self, v: VertexId) -> f64 {
        self.state.p(v)
    }

    fn estimates(&self) -> Vec<f64> {
        self.state.estimates()
    }

    fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_core::exact_ppr;
    use dppr_core::invariant::max_invariant_violation;
    use dppr_graph::generators::erdos_renyi;

    #[test]
    fn ligra_engine_is_epsilon_accurate() {
        let cfg = PprConfig::new(0, 0.2, 1e-3);
        let mut eng = LigraEngine::new(cfg);
        let mut g = DynamicGraph::new();
        for chunk in erdos_renyi(60, 600, 21).chunks(50) {
            let batch: Vec<EdgeUpdate> =
                chunk.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
            eng.apply_batch(&mut g, &batch);
        }
        assert!(max_invariant_violation(&g, eng.state()) < 1e-9);
        let truth = exact_ppr(&g, 0, 0.2, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            assert!((eng.estimate(v) - truth[v as usize]).abs() <= 1e-3 + 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn ligra_handles_deletions() {
        let cfg = PprConfig::new(1, 0.15, 1e-3);
        let mut eng = LigraEngine::new(cfg);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(40, 300, 8);
        let ins: Vec<EdgeUpdate> = edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        eng.apply_batch(&mut g, &ins);
        let del: Vec<EdgeUpdate> =
            edges[..150].iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect();
        let stats = eng.apply_batch(&mut g, &del);
        assert_eq!(stats.applied, 150);
        let truth = exact_ppr(&g, 1, 0.15, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            assert!((eng.estimate(v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
        }
    }

    /// Each frontier member is one push, and the pushes walk edges.
    #[test]
    fn ligra_counts_its_pushes_and_edge_traversals() {
        let mut eng = LigraEngine::new(PprConfig::new(0, 0.2, 1e-4));
        let mut g = DynamicGraph::new();
        for chunk in erdos_renyi(200, 2_000, 7).chunks(500) {
            let batch: Vec<EdgeUpdate> =
                chunk.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
            eng.apply_batch(&mut g, &batch);
        }
        let c = eng.counters();
        assert!(c.pushes > 0);
        // One push per member of each iteration's frontier.
        assert!(c.iterations <= c.pushes && c.pushes <= c.iterations * c.max_frontier, "{c}");
        assert!(c.edge_traversals >= c.pushes, "{c}");
    }

    #[test]
    fn forced_dense_mode_agrees_with_sparse() {
        use crate::edge_map::Mode;
        let run = |force: Option<Mode>| {
            let cfg = PprConfig::new(0, 0.3, 1e-3);
            let mut eng =
                LigraEngine::with_options(cfg, EdgeMapOptions { force, ..Default::default() });
            let mut g = DynamicGraph::new();
            let batch: Vec<EdgeUpdate> = erdos_renyi(30, 200, 4)
                .into_iter()
                .map(|(u, v)| EdgeUpdate::insert(u, v))
                .collect();
            eng.apply_batch(&mut g, &batch);
            (eng.estimates(), g)
        };
        let (dense, g) = run(Some(Mode::Dense));
        let (sparse, _) = run(Some(Mode::Sparse));
        let truth = exact_ppr(&g, 0, 0.3, 1e-12);
        for v in 0..truth.len() {
            assert!((dense[v] - truth[v]).abs() <= 1e-3 + 1e-9, "dense {v}");
            assert!((sparse[v] - truth[v]).abs() <= 1e-3 + 1e-9, "sparse {v}");
        }
    }
}
