//! R-MAT (recursive matrix) generator, the Graph500 workhorse for
//! power-law directed graphs.

use crate::types::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Quadrant probabilities of the recursive partition. Must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl Default for RmatParams {
    /// The Graph500 parameterization `(0.57, 0.19, 0.19, 0.05)`, which
    /// yields degree skew comparable to large social networks such as the
    /// paper's Twitter graph.
    fn default() -> Self {
        RmatParams { a: 0.57, b: 0.19, c: 0.19, d: 0.05 }
    }
}

/// Samples `m` distinct directed edges (self-loops rejected) on
/// `n = 2^scale` vertices from the R-MAT distribution.
///
/// Noise is added to the quadrant probabilities per recursion level (the
/// standard "smoothing" that avoids the pathological staircase degree
/// distribution of pure R-MAT).
pub fn rmat(scale: u32, m: usize, params: RmatParams, seed: u64) -> Vec<(VertexId, VertexId)> {
    assert!((1..=31).contains(&scale), "scale must be in 1..=31");
    let sum = params.a + params.b + params.c + params.d;
    assert!((sum - 1.0).abs() < 1e-9, "quadrant probabilities must sum to 1");
    let n = 1u64 << scale;
    let max_edges = (n * (n - 1)) as usize;
    let m = m.min(max_edges);

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = sample_edge(scale, params, &mut rng);
        if u != v && seen.insert((u, v)) {
            edges.push((u, v));
        }
    }
    edges
}

/// Samples `m` raw directed edges (self-loops rejected, **duplicates
/// kept**) from the R-MAT distribution — an edge *stream* rather than an
/// edge *set*. Real ingestion workloads present repeated edges (the
/// paper's update model treats a re-inserted edge as a no-op), and on a
/// skewed stream those repeats concentrate on the hubs, which is exactly
/// what duplicate-checked ingest has to absorb. Used by the
/// `graph_ingest` benchmark and the `dppr_bench` workload inputs.
pub fn rmat_stream(
    scale: u32,
    m: usize,
    params: RmatParams,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    assert!((1..=31).contains(&scale), "scale must be in 1..=31");
    let sum = params.a + params.b + params.c + params.d;
    assert!((sum - 1.0).abs() < 1e-9, "quadrant probabilities must sum to 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = sample_edge(scale, params, &mut rng);
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

fn sample_edge(scale: u32, p: RmatParams, rng: &mut SmallRng) -> (VertexId, VertexId) {
    let mut u: u64 = 0;
    let mut v: u64 = 0;
    for _ in 0..scale {
        u <<= 1;
        v <<= 1;
        // ±10% multiplicative noise per level, renormalized.
        let noise = |x: f64, rng: &mut SmallRng| x * (0.9 + 0.2 * rng.gen::<f64>());
        let a = noise(p.a, rng);
        let b = noise(p.b, rng);
        let c = noise(p.c, rng);
        let d = noise(p.d, rng);
        let total = a + b + c + d;
        let r = rng.gen::<f64>() * total;
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            v |= 1;
        } else if r < a + b + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as VertexId, v as VertexId)
}
