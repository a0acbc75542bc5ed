//! Source-vertex selection (paper Table 2: "randomly chosen vertices with
//! Top-10, Top-1K and Top-1M out-degrees").

use dppr_graph::{DynamicGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Picks a uniformly random vertex among the `bucket` highest-out-degree
/// vertices of `g` (e.g. `bucket = 10` for the paper's "Top-10" setting).
///
/// # Panics
/// If the graph has no vertices.
pub fn pick_top_degree_source(g: &DynamicGraph, bucket: usize, seed: u64) -> VertexId {
    assert!(g.num_vertices() > 0, "cannot pick a source from an empty graph");
    let top = g.top_out_degree_vertices(bucket.max(1));
    let mut rng = SmallRng::seed_from_u64(seed);
    top[rng.gen_range(0..top.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> DynamicGraph {
        // Vertex 0 has out-degree 5, vertex 1 has 2, the rest ≤ 1.
        let mut g = DynamicGraph::new();
        for v in 1..=5 {
            g.insert_edge(0, v);
        }
        g.insert_edge(1, 2);
        g.insert_edge(1, 3);
        g.insert_edge(2, 0);
        g
    }

    #[test]
    fn bucket_one_is_the_max_degree_vertex() {
        let g = star();
        assert_eq!(pick_top_degree_source(&g, 1, 99), 0);
    }

    #[test]
    fn bucket_two_picks_among_top_two() {
        let g = star();
        for seed in 0..20 {
            let s = pick_top_degree_source(&g, 2, seed);
            assert!(s == 0 || s == 1, "unexpected source {s}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = star();
        assert_eq!(pick_top_degree_source(&g, 3, 5), pick_top_degree_source(&g, 3, 5));
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_panics() {
        pick_top_degree_source(&DynamicGraph::new(), 10, 0);
    }
}
