//! Degree-distribution statistics.
//!
//! Used to validate that the synthetic presets reproduce the *shape* of
//! the paper's SNAP graphs (heavy-tailed degree distributions — the
//! property driving frontier growth, parallel loss, and duplicate
//! generation), and by the CLI's `info` subcommand.

use crate::dynamic::DynamicGraph;
use crate::types::VertexId;

/// Summary statistics of an out-degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices considered.
    pub vertices: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Maximum out-degree.
    pub max: usize,
    /// Median out-degree.
    pub p50: usize,
    /// 99th-percentile out-degree.
    pub p99: usize,
    /// Log-binned histogram: `(upper_bound, count)` for bins
    /// (0,1], (1,2], (2,4], (4,8], …
    pub log_histogram: Vec<(usize, usize)>,
    /// Hill estimator of the power-law tail exponent over the top decile
    /// (`None` when the graph is too small or degenerate). BA graphs give
    /// ≈ 2–3; ER graphs give much larger values (no heavy tail).
    pub tail_exponent: Option<f64>,
}

/// Computes out-degree statistics for `g`.
pub fn degree_stats(g: &DynamicGraph) -> DegreeStats {
    let n = g.num_vertices();
    let mut degrees: Vec<usize> = (0..n as VertexId).map(|v| g.out_degree(v)).collect();
    degrees.sort_unstable();
    let max = degrees.last().copied().unwrap_or(0);
    let pick = |q: f64| -> usize {
        if degrees.is_empty() {
            0
        } else {
            degrees[((degrees.len() - 1) as f64 * q) as usize]
        }
    };

    let mut log_histogram = Vec::new();
    let mut bound = 1usize;
    loop {
        let lo = bound / 2;
        let count = degrees.iter().filter(|&&d| d > lo && d <= bound).count();
        if count > 0 {
            log_histogram.push((bound, count));
        }
        if bound >= max.max(1) {
            break;
        }
        bound *= 2;
    }

    DegreeStats {
        vertices: n,
        edges: g.num_edges(),
        mean: if n == 0 { 0.0 } else { g.num_edges() as f64 / n as f64 },
        max,
        p50: pick(0.5),
        p99: pick(0.99),
        log_histogram,
        tail_exponent: hill_estimator(&degrees),
    }
}

/// Hill estimator of the tail index over the top 10% of non-zero degrees:
/// `α̂ = 1 + k / Σ ln(d_i / d_min)`.
fn hill_estimator(sorted_degrees: &[usize]) -> Option<f64> {
    let nonzero: Vec<f64> = sorted_degrees.iter().filter(|&&d| d > 0).map(|&d| d as f64).collect();
    if nonzero.len() < 50 {
        return None;
    }
    let k = (nonzero.len() / 10).max(10);
    let tail = &nonzero[nonzero.len() - k..];
    let d_min = tail[0];
    if d_min <= 0.0 || tail.last().copied() == Some(d_min) {
        return None; // degenerate (uniform) tail
    }
    let log_sum: f64 = tail.iter().map(|&d| (d / d_min).ln()).sum();
    if log_sum <= 0.0 {
        None
    } else {
        Some(1.0 + k as f64 / log_sum)
    }
}

impl std::fmt::Display for DegreeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "vertices\t{}", self.vertices)?;
        writeln!(f, "arcs\t{}", self.edges)?;
        writeln!(f, "mean_out_degree\t{:.3}", self.mean)?;
        writeln!(f, "max_out_degree\t{}", self.max)?;
        writeln!(f, "p50_out_degree\t{}", self.p50)?;
        writeln!(f, "p99_out_degree\t{}", self.p99)?;
        if let Some(a) = self.tail_exponent {
            writeln!(f, "tail_exponent\t{a:.2}")?;
        }
        writeln!(f, "degree_histogram (log bins)")?;
        for &(bound, count) in &self.log_histogram {
            writeln!(f, "  deg ({},{}]\t{}", bound / 2, bound, count)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi, undirected_to_directed};

    #[test]
    fn empty_graph() {
        let s = degree_stats(&DynamicGraph::new());
        assert_eq!(s.vertices, 0);
        assert_eq!(s.max, 0);
        assert!(s.tail_exponent.is_none());
    }

    #[test]
    fn histogram_partitions_nonzero_degrees() {
        let g = DynamicGraph::from_edges(erdos_renyi(200, 2_000, 3));
        let s = degree_stats(&g);
        let hist_total: usize = s.log_histogram.iter().map(|&(_, c)| c).sum();
        let nonzero = (0..200u32).filter(|&v| g.out_degree(v) > 0).count();
        assert_eq!(hist_total, nonzero);
        // Bounds are increasing powers of two.
        for w in s.log_histogram.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn ba_tail_is_heavier_than_er() {
        let ba = DynamicGraph::from_edges(undirected_to_directed(&barabasi_albert(3_000, 4, 7)));
        let ba_stats = degree_stats(&ba);
        let er = DynamicGraph::from_edges(erdos_renyi(3_000, ba.num_edges(), 7));
        let er_stats = degree_stats(&er);
        // Similar mean degree by construction…
        assert!((ba_stats.mean - er_stats.mean).abs() / er_stats.mean < 0.1);
        // …but the BA max degree dwarfs ER's, and its tail exponent is in
        // the scale-free band while ER's is much larger (or undefined).
        assert!(ba_stats.max > 3 * er_stats.max);
        let ba_alpha = ba_stats.tail_exponent.expect("BA tail");
        assert!(
            (1.5..4.0).contains(&ba_alpha),
            "BA tail exponent {ba_alpha} outside scale-free band"
        );
        if let Some(er_alpha) = er_stats.tail_exponent {
            assert!(er_alpha > ba_alpha, "ER {er_alpha} vs BA {ba_alpha}");
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let g = DynamicGraph::from_edges(erdos_renyi(500, 3_000, 11));
        let s = degree_stats(&g);
        assert!(s.p50 <= s.p99);
        assert!(s.p99 <= s.max);
        assert!(s.mean > 0.0);
    }
}
