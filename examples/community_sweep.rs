//! Local community detection via PPR + sweep cut (the application of
//! Andersen, Chung & Lang, FOCS'06 — reference [6] of the paper).
//!
//! Plants four communities, finds the one around a query vertex with a
//! forward push + conductance sweep, then shows the community surviving
//! structural drift as edges stream in and out.
//!
//! ```text
//! cargo run --release --example community_sweep
//! ```

use dppr::core::forward::{forward_push, sweep_cut};
use dppr::graph::generators::undirected_to_directed;
use dppr::graph::DynamicGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A planted-partition graph: `k` groups of `size` vertices, dense inside
/// (probability `p_in`), sparse across (`p_out`). Returns undirected edges.
fn planted_partition(k: usize, size: usize, p_in: f64, p_out: f64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = (k * size) as u32;
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let same = (a as usize / size) == (b as usize / size);
            let p = if same { p_in } else { p_out };
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    edges
}

fn community_of(g: &DynamicGraph, query: u32) -> (Vec<u32>, f64) {
    let fp = forward_push(g, query, 0.1, 1e-6);
    let cut = sweep_cut(g, &fp.p).expect("graph is non-empty");
    let mut members = cut.community;
    members.sort_unstable();
    (members, cut.conductance)
}

fn main() {
    let size = 30;
    let und = planted_partition(4, size, 0.4, 0.01, 2024);
    let mut g = DynamicGraph::from_edges(undirected_to_directed(&und));
    println!(
        "planted-partition graph: {} vertices, {} arcs, 4 communities of {size}",
        g.num_vertices(),
        g.num_edges()
    );

    let query = 7u32; // inside community 0 (vertices 0..30)
    let (members, phi) = community_of(&g, query);
    let inside = members.iter().filter(|&&v| (v as usize) < size).count();
    println!("\nsweep cut around vertex {query}: {} members, conductance {phi:.4}", members.len());
    println!("  {inside}/{} members belong to the planted community", members.len());
    assert!(inside * 10 >= members.len() * 9, "community should be >90% pure");

    // The graph drifts: community 0 and 1 merge through new bridges.
    let mut rng = SmallRng::seed_from_u64(7);
    let mut added = 0;
    for _ in 0..200 {
        let a = rng.gen_range(0..size as u32);
        let b = rng.gen_range(size as u32..(2 * size) as u32);
        if g.insert_edge(a, b) {
            g.insert_edge(b, a);
            added += 1;
        }
    }
    println!("\nafter inserting {added} bridge edges between communities 0 and 1:");
    let (members, phi) = community_of(&g, query);
    let in_01 = members.iter().filter(|&&v| (v as usize) < 2 * size).count();
    println!(
        "  sweep cut now has {} members (conductance {phi:.4}), {in_01} inside 0∪1",
        members.len()
    );
    assert!(members.len() > size, "the merged community should outgrow a single block");
}
