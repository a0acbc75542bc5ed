//! "Who to follow": PPR-based user recommendation on an evolving social
//! network (the application of Gupta et al., WWW'13 — reference [19] of the
//! paper — reproduced at laptop scale).
//!
//! Maintains PPR vectors for a handful of hub users while follow/unfollow
//! events stream in, and recommends the highest-PPR non-neighbors.
//!
//! ```text
//! cargo run --release --example who_to_follow
//! ```

use dppr::core::multi::MultiSourcePpr;
use dppr::graph::generators::{barabasi_albert, undirected_to_directed};
use dppr::graph::{DynamicGraph, EdgeUpdate, GraphStream, SlidingWindow};

fn recommend(
    multi: &MultiSourcePpr,
    idx: usize,
    user: u32,
    g: &DynamicGraph,
    k: usize,
) -> Vec<(u32, f64)> {
    // Highest-PPR vertices the user does not already follow.
    multi
        .top_k(idx, k + 1 + g.out_degree(user))
        .into_iter()
        .filter(|&(v, _)| v != user && !g.has_edge(user, v))
        .take(k)
        .collect()
}

fn main() {
    // A follower graph: preferential attachment gives the usual celebrity
    // hubs. Undirected friendship edges become two follow arcs.
    // DPPR_EXAMPLE_N shrinks the graph (the CI smoke test runs tiny).
    let n: u32 = match std::env::var("DPPR_EXAMPLE_N") {
        Ok(s) => s.parse().expect("DPPR_EXAMPLE_N must be a vertex count"),
        Err(_) => 3_000,
    };
    let edges = undirected_to_directed(&barabasi_albert(n, 5, 99));
    let stream = GraphStream::directed(edges).permuted(1);
    let mut window = SlidingWindow::new(stream, 0.2);

    let mut graph = DynamicGraph::new();
    // Warm the graph with the initial window (no PPR yet — we choose the
    // tracked users from the warmed topology).
    let init = window.initial_updates();
    for upd in &init {
        graph.apply(*upd);
    }
    let hubs = graph.top_out_degree_vertices(3);
    println!("tracking PPR for hub users {hubs:?}");

    // Track the hubs' PPR vectors; replay the window so their state covers
    // the current graph (bootstrapping from an empty graph is exact).
    let mut fresh = DynamicGraph::new();
    let mut multi = MultiSourcePpr::new(&hubs, 0.15, 1e-5);
    multi.apply_batch(&mut fresh, &init);
    let mut graph = fresh;

    // Follow/unfollow events arrive in batches of 200.
    let mut slides = 0;
    while let Some(batch) = window.slide(200) {
        multi.apply_batch(&mut graph, &batch);
        slides += 1;
        if slides == 10 {
            break;
        }
    }
    println!(
        "processed {slides} batches; graph now has {} arcs over {} vertices\n",
        graph.num_edges(),
        graph.num_vertices()
    );

    for (idx, &user) in hubs.iter().enumerate() {
        let recs = recommend(&multi, idx, user, &graph, 5);
        println!("user {user} (follows {}):", graph.out_degree(user));
        for (v, score) in recs {
            println!("  follow {v:>5}?  ppr {score:.6}");
        }
    }

    // Events keep arriving: a burst of unfollows for the top hub, then
    // fresh recommendations — all incremental, no recomputation.
    let top_hub = hubs[0];
    let victims: Vec<EdgeUpdate> = graph
        .out_neighbors(top_hub)
        .iter()
        .take(10)
        .map(|&v| EdgeUpdate::delete(top_hub, v))
        .collect();
    multi.apply_batch(&mut graph, &victims);
    println!("\nafter user {top_hub} unfollowed {} accounts:", victims.len());
    for (v, score) in recommend(&multi, 0, top_hub, &graph, 5) {
        println!("  follow {v:>5}?  ppr {score:.6}");
    }
}
