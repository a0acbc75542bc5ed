//! Incremental Monte-Carlo PPR — the `Monte-Carlo` baseline of Figure 5.
//!
//! Implements the random-walk maintenance scheme of Bahmani, Chowdhury &
//! Goel, *Fast incremental and personalized PageRank* (PVLDB 4(3), 2010),
//! reference [10] of the paper:
//!
//! * `w` independent α-terminating random walks are simulated from the
//!   source; the PPR estimate of `v` is the fraction of walks that *stop*
//!   at `v`.
//! * Every vertex keeps an inverted index of the walks that visit it. When
//!   an edge `(u, v)` is inserted or deleted, the transition distribution
//!   at `u` changes, so every walk visiting `u` is re-simulated from its
//!   first visit to `u` (a fresh suffix is distributionally exact on the
//!   new graph; Bahmani et al. show only `O(w·log k / k)`-ish walks are
//!   touched per update in expectation).
//! * Re-simulation fans out across affected walks
//!   (`dppr_core::fanout`) once there are enough of them — matching the paper's setup, which parallelized this baseline with
//!   CilkPlus to keep the comparison fair.
//!
//! The inverted index uses **lazy deletion**: stale entries are filtered on
//! read against the walk's current trace and periodically compacted. This
//! mirrors the paper's observation that "the incremental maintenance of
//! random walk samples needs to track some auxiliary data structures …
//! these auxiliary data structures are large and the maintenance incurs a
//! huge cost" — the cost is the point of the comparison.
//!
//! Note on semantics: this engine estimates the *forward* endpoint
//! distribution from the source (walks stop at dangling vertices), which is
//! the quantity [10] maintains. The throughput comparison with the
//! local-update engines is about *maintenance cost per update*, not about
//! agreeing on the same vector (`dppr_core`'s "Semantics" section defines
//! the one the push engines maintain).

pub mod walks;

pub use walks::{endpoint_distribution, MonteCarloPpr};

use dppr_core::{BatchStats, CounterSnapshot, DynamicPprEngine, PprConfig};
use dppr_graph::{DynamicGraph, EdgeUpdate, VertexId};
use std::time::Instant;

/// [`DynamicPprEngine`] adapter for [`MonteCarloPpr`].
pub struct MonteCarloEngine {
    cfg: PprConfig,
    inner: MonteCarloPpr,
    restores: u64,
    batches_seen: u64,
}

impl MonteCarloEngine {
    /// Creates an engine maintaining `num_walks` walks. The paper sets
    /// `w = 6·|V|`; anything smaller trades accuracy for speed.
    pub fn new(cfg: PprConfig, num_walks: usize, seed: u64) -> Self {
        MonteCarloEngine {
            cfg,
            inner: MonteCarloPpr::new(cfg.source, cfg.alpha, num_walks, seed),
            restores: 0,
            batches_seen: 0,
        }
    }

    /// The underlying walk store.
    pub fn walks(&self) -> &MonteCarloPpr {
        &self.inner
    }
}

impl DynamicPprEngine for MonteCarloEngine {
    fn name(&self) -> String {
        "Monte-Carlo".into()
    }

    fn config(&self) -> &PprConfig {
        &self.cfg
    }

    fn apply_batch(&mut self, g: &mut DynamicGraph, batch: &[EdgeUpdate]) -> BatchStats {
        let start = Instant::now();
        self.batches_seen += 1;
        let mut applied = 0usize;
        if self.batches_seen == 1 {
            // Bootstrap batch: build the graph, then simulate all walks
            // once on the finished topology (offline initialization), like
            // [10] does before switching to incremental maintenance.
            for &upd in batch {
                if g.apply(upd) {
                    applied += 1;
                }
            }
            self.inner.rebuild(g);
            return BatchStats {
                latency: start.elapsed(),
                applied,
                counters: CounterSnapshot { batches: 1, ..Default::default() },
            };
        }
        for &upd in batch {
            // Like [10], Monte-Carlo synchronizes per update: the walk
            // index must reflect each graph change before the next.
            if g.apply(upd) {
                applied += 1;
                self.restores += 1;
                self.inner.on_update(g, upd.src);
            }
        }
        BatchStats {
            latency: start.elapsed(),
            applied,
            counters: CounterSnapshot {
                restore_ops: applied as u64,
                batches: 1,
                ..Default::default()
            },
        }
    }

    fn estimate(&self, v: VertexId) -> f64 {
        self.inner.estimate(v)
    }

    fn estimates(&self) -> Vec<f64> {
        self.inner.estimates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_graph::generators::erdos_renyi;

    #[test]
    fn engine_tracks_endpoint_distribution() {
        let cfg = PprConfig::new(0, 0.2, 0.05);
        let mut eng = MonteCarloEngine::new(cfg, 60_000, 7);
        let mut g = DynamicGraph::new();
        let batch: Vec<EdgeUpdate> = erdos_renyi(30, 200, 3)
            .into_iter()
            .map(|(u, v)| EdgeUpdate::insert(u, v))
            .collect();
        let stats = eng.apply_batch(&mut g, &batch);
        assert_eq!(stats.applied, 200);
        let truth = endpoint_distribution(&g, 0, 0.2, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            let err = (eng.estimate(v) - truth[v as usize]).abs();
            assert!(err < 0.02, "vertex {v}: MC {} vs exact {}", eng.estimate(v), truth[v as usize]);
        }
    }

    #[test]
    fn deletions_update_walks() {
        let cfg = PprConfig::new(0, 0.3, 0.05);
        let mut eng = MonteCarloEngine::new(cfg, 40_000, 11);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(20, 120, 9);
        let ins: Vec<EdgeUpdate> =
            edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        eng.apply_batch(&mut g, &ins);
        let del: Vec<EdgeUpdate> = edges[..60]
            .iter()
            .map(|&(u, v)| EdgeUpdate::delete(u, v))
            .collect();
        eng.apply_batch(&mut g, &del);
        let truth = endpoint_distribution(&g, 0, 0.3, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            let err = (eng.estimate(v) - truth[v as usize]).abs();
            assert!(err < 0.025, "vertex {v} after deletions: err {err}");
        }
    }
}
