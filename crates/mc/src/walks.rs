//! Walk storage, inverted index, and incremental maintenance.

use dppr_core::fanout::{concat, fan_out, threads_for};
use dppr_graph::{DynamicGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// `w` α-terminating random walks from one source, with the auxiliary
/// structures needed to maintain them under edge updates: per-walk traces,
/// a per-vertex inverted index of visiting walks (lazily cleaned), and
/// endpoint counts for O(1) estimates.
pub struct MonteCarloPpr {
    source: VertexId,
    alpha: f64,
    seed: u64,
    /// Walk traces; `walks[i][0] == source` always.
    walks: Vec<Vec<VertexId>>,
    /// Per-walk re-simulation epoch, so every re-simulation draws fresh,
    /// reproducible randomness.
    epochs: Vec<u64>,
    /// vertex → ids of walks that visit it. May contain stale or duplicate
    /// entries; reads validate against the trace, and the index is
    /// compacted when more than half its entries are dead weight.
    index: Vec<Vec<u32>>,
    /// Number of walks whose endpoint is each vertex.
    end_counts: Vec<u64>,
    /// Upper bound on dead index entries, for the compaction trigger.
    stale_entries: usize,
    /// Total index entries ever written since the last compaction.
    live_entries: usize,
}

impl MonteCarloPpr {
    /// Creates `num_walks` walks on the empty graph (every walk is the
    /// single vertex `source`). The first insertions touching the source
    /// will re-simulate them.
    pub fn new(source: VertexId, alpha: f64, num_walks: usize, seed: u64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0);
        assert!(num_walks > 0, "need at least one walk");
        let n = source as usize + 1;
        let mut index = vec![Vec::new(); n];
        index[source as usize] = (0..num_walks as u32).collect();
        let mut end_counts = vec![0u64; n];
        end_counts[source as usize] = num_walks as u64;
        MonteCarloPpr {
            source,
            alpha,
            seed,
            walks: vec![vec![source]; num_walks],
            epochs: vec![0; num_walks],
            index,
            end_counts,
            stale_entries: 0,
            live_entries: num_walks,
        }
    }

    /// Number of maintained walks.
    pub fn num_walks(&self) -> usize {
        self.walks.len()
    }

    /// Estimated PPR of `v`: the fraction of walks stopping at `v`.
    pub fn estimate(&self, v: VertexId) -> f64 {
        self.end_counts.get(v as usize).copied().unwrap_or(0) as f64 / self.walks.len() as f64
    }

    /// The full estimate vector.
    pub fn estimates(&self) -> Vec<f64> {
        let w = self.walks.len() as f64;
        self.end_counts.iter().map(|&c| c as f64 / w).collect()
    }

    fn ensure(&mut self, n: usize) {
        if self.index.len() < n {
            self.index.resize_with(n, Vec::new);
            self.end_counts.resize(n, 0);
        }
    }

    /// Reacts to one applied edge update whose tail is `u`: every walk
    /// visiting `u` gets a fresh suffix from its first visit (the
    /// transition distribution at `u` changed; everything before the first
    /// visit is unaffected). Suffix simulation runs in parallel.
    pub fn on_update(&mut self, g: &DynamicGraph, u: VertexId) {
        self.ensure(g.num_vertices().max(u as usize + 1));
        // Validated, deduplicated set of affected walks.
        let mut affected = std::mem::take(&mut self.index[u as usize]);
        affected.sort_unstable();
        affected.dedup();
        let before = affected.len();
        affected.retain(|&id| self.walks[id as usize].contains(&u));
        self.stale_entries = self.stale_entries.saturating_sub(before - affected.len());
        // The retained ids stay indexed at u (their new suffix starts there).
        self.index[u as usize] = affected.clone();

        if affected.is_empty() {
            return;
        }

        // Parallel: draw each walk's new suffix.
        let alpha = self.alpha;
        let seed = self.seed;
        let walks = &self.walks;
        let epochs = &self.epochs;
        let resimulate = |&id: &u32| {
            let trace = &walks[id as usize];
            let pos = trace.iter().position(|&x| x == u).expect("validated above");
            let mut rng = SmallRng::seed_from_u64(mix(seed, id as u64, epochs[id as usize] + 1));
            (id, pos, simulate_walk(g, u, alpha, &mut rng))
        };
        let resimulate_all = |range: Range<usize>| affected[range].iter().map(resimulate).collect();
        let new_suffixes: Vec<(u32, usize, Vec<VertexId>)> =
            fan_out(affected.len(), threads_for(affected.len()), resimulate_all, concat);

        // Serial: splice the suffixes into the stores.
        for (id, pos, suffix) in new_suffixes {
            let idu = id as usize;
            let old_end = *self.walks[idu].last().expect("walks are non-empty");
            self.end_counts[old_end as usize] -= 1;
            // Entries for the replaced tail become stale in the index.
            self.stale_entries += self.walks[idu].len() - pos;
            self.walks[idu].truncate(pos);
            // Index the new suffix; its head `u` is already indexed.
            for &v in &suffix[1..] {
                self.index[v as usize].push(id);
                self.live_entries += 1;
            }
            let new_end = *suffix.last().expect("suffix starts at u");
            self.end_counts[new_end as usize] += 1;
            self.walks[idu].extend_from_slice(&suffix);
            self.epochs[idu] += 1;
        }

        if self.stale_entries * 2 > self.live_entries.max(64) {
            self.compact();
        }
    }

    /// Re-simulates **every** walk from scratch on the current graph and
    /// rebuilds all auxiliary structures. This is the offline
    /// initialization path: `O(w/α)` expected work, parallel across walks.
    /// Used to bootstrap on a pre-built graph instead of paying the
    /// per-update maintenance cost for every initial edge.
    pub fn rebuild(&mut self, g: &DynamicGraph) {
        self.ensure(g.num_vertices());
        let alpha = self.alpha;
        let seed = self.seed;
        let source = self.source;
        let epochs = &self.epochs;
        let simulate = |id: usize| {
            let mut rng = SmallRng::seed_from_u64(mix(seed, id as u64, epochs[id] + 1));
            simulate_walk(g, source, alpha, &mut rng)
        };
        let n = self.walks.len();
        let simulate_all = |range: Range<usize>| range.map(simulate).collect();
        let traces: Vec<Vec<VertexId>> = fan_out(n, threads_for(n), simulate_all, concat);
        self.walks = traces;
        for e in &mut self.epochs {
            *e += 1;
        }
        self.end_counts.iter_mut().for_each(|c| *c = 0);
        for trace in &self.walks {
            self.end_counts[*trace.last().unwrap() as usize] += 1;
        }
        self.compact();
    }

    /// Rebuilds the inverted index from the walk traces, dropping all stale
    /// and duplicate entries.
    pub fn compact(&mut self) {
        for list in &mut self.index {
            list.clear();
        }
        let mut live = 0usize;
        for (id, trace) in self.walks.iter().enumerate() {
            for &v in trace {
                let list = &mut self.index[v as usize];
                if list.last() != Some(&(id as u32)) {
                    list.push(id as u32);
                    live += 1;
                }
            }
        }
        self.stale_entries = 0;
        self.live_entries = live;
    }

    /// Internal consistency check for tests: endpoint counts match traces,
    /// and the index covers every visit.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut counts = vec![0u64; self.end_counts.len()];
        for trace in &self.walks {
            if trace.first() != Some(&self.source) {
                return Err("walk does not start at source".into());
            }
            counts[*trace.last().unwrap() as usize] += 1;
        }
        if counts != self.end_counts {
            return Err("endpoint counts drifted".into());
        }
        for (id, trace) in self.walks.iter().enumerate() {
            for &v in trace {
                if !self.index[v as usize].contains(&(id as u32)) {
                    return Err(format!("walk {id} visit to {v} missing from index"));
                }
            }
        }
        Ok(())
    }
}

/// One α-terminating walk from `start` (inclusive): at each vertex the walk
/// stops with probability α (or when dangling) and otherwise moves to a
/// uniform out-neighbor.
fn simulate_walk(
    g: &DynamicGraph,
    start: VertexId,
    alpha: f64,
    rng: &mut SmallRng,
) -> Vec<VertexId> {
    let mut trace = vec![start];
    let mut cur = start;
    loop {
        if rng.gen::<f64>() < alpha {
            break;
        }
        let d = g.out_degree(cur);
        if d == 0 {
            break;
        }
        cur = g.out_neighbors(cur)[rng.gen_range(0..d)];
        trace.push(cur);
    }
    trace
}

/// SplitMix64-style mixing for reproducible per-(walk, epoch) streams.
fn mix(seed: u64, id: u64, epoch: u64) -> u64 {
    let mut z =
        seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact endpoint distribution of the α-terminating walk (the quantity the
/// Monte-Carlo engine estimates), by mass propagation until the residual
/// walking mass drops below `tol`.
pub fn endpoint_distribution(g: &DynamicGraph, source: VertexId, alpha: f64, tol: f64) -> Vec<f64> {
    let n = g.num_vertices().max(source as usize + 1);
    let mut walking = vec![0.0f64; n];
    walking[source as usize] = 1.0;
    let mut stopped = vec![0.0f64; n];
    let mut remaining = 1.0f64;
    while remaining > tol {
        let mut next = vec![0.0f64; n];
        for u in 0..n {
            let m = walking[u];
            if m == 0.0 {
                continue;
            }
            let d = g.out_degree(u as VertexId);
            if d == 0 {
                stopped[u] += m;
                remaining -= m;
            } else {
                stopped[u] += alpha * m;
                remaining -= alpha * m;
                let share = (1.0 - alpha) * m * g.inv_out_degree(u as VertexId);
                for &v in g.out_neighbors(u as VertexId) {
                    next[v as usize] += share;
                }
            }
        }
        walking = next;
    }
    stopped
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_graph::generators::erdos_renyi;

    #[test]
    fn empty_graph_walks_stay_home() {
        let mc = MonteCarloPpr::new(2, 0.15, 100, 1);
        assert_eq!(mc.estimate(2), 1.0);
        assert_eq!(mc.estimate(0), 0.0);
        mc.check_consistency().unwrap();
    }

    #[test]
    fn estimates_sum_to_one() {
        let mut mc = MonteCarloPpr::new(0, 0.2, 5_000, 3);
        let mut g = DynamicGraph::new();
        for (u, v) in erdos_renyi(25, 120, 8) {
            g.insert_edge(u, v);
            mc.on_update(&g, u);
        }
        mc.check_consistency().unwrap();
        let total: f64 = mc.estimates().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_exact_endpoint_distribution() {
        let mut mc = MonteCarloPpr::new(0, 0.25, 80_000, 5);
        let mut g = DynamicGraph::new();
        for (u, v) in erdos_renyi(15, 60, 2) {
            g.insert_edge(u, v);
            mc.on_update(&g, u);
        }
        let exact = endpoint_distribution(&g, 0, 0.25, 1e-13);
        for v in 0..g.num_vertices() as VertexId {
            let err = (mc.estimate(v) - exact[v as usize]).abs();
            assert!(err < 0.015, "vertex {v}: {} vs {}", mc.estimate(v), exact[v as usize]);
        }
    }

    #[test]
    fn resimulation_is_deterministic_given_seed() {
        let build = || {
            let mut mc = MonteCarloPpr::new(0, 0.3, 500, 42);
            let mut g = DynamicGraph::new();
            for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 2)] {
                g.insert_edge(u, v);
                mc.on_update(&g, u);
            }
            mc.estimates()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn deletion_reroutes_walks() {
        let mut mc = MonteCarloPpr::new(0, 0.2, 20_000, 17);
        let mut g = DynamicGraph::new();
        // A path 0 → 1 → 2 plus a detour 0 → 3.
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 3)] {
            g.insert_edge(u, v);
            mc.on_update(&g, u);
        }
        let before_3 = mc.estimate(3);
        // Remove 0 → 1: all mass beyond the source must now flow through 3.
        g.delete_edge(0, 1);
        mc.on_update(&g, 0);
        mc.check_consistency().unwrap();
        assert!(mc.estimate(1) == 0.0);
        assert!(mc.estimate(2) == 0.0);
        assert!(mc.estimate(3) > before_3);
        let exact = endpoint_distribution(&g, 0, 0.2, 1e-13);
        assert!((mc.estimate(3) - exact[3]).abs() < 0.02);
    }

    #[test]
    fn compaction_preserves_semantics() {
        let mut mc = MonteCarloPpr::new(0, 0.3, 2_000, 9);
        let mut g = DynamicGraph::new();
        for (u, v) in erdos_renyi(10, 40, 4) {
            g.insert_edge(u, v);
            mc.on_update(&g, u);
        }
        let before = mc.estimates();
        mc.compact();
        mc.check_consistency().unwrap();
        assert_eq!(mc.estimates(), before);
    }

    #[test]
    fn endpoint_distribution_simple_chain() {
        // 0 → 1: stop at 0 w.p. α; else move to 1 and stop there (dangling).
        let g = DynamicGraph::from_edges([(0, 1)]);
        let e = endpoint_distribution(&g, 0, 0.4, 1e-15);
        assert!((e[0] - 0.4).abs() < 1e-12);
        assert!((e[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn mix_streams_are_distinct() {
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 3));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }
}
