//! Integration coverage for the extension layers: ε-aware queries and
//! multi-source maintenance, driven through the public facade over a
//! live stream.

use dppr::core::multi::MultiSourcePpr;
use dppr::core::queries::{above_threshold, compare, top_k};
use dppr::core::{exact_ppr, ParallelEngine, PprConfig, PushVariant};
use dppr::graph::generators::{barabasi_albert, undirected_to_directed};
use dppr::graph::{DynamicGraph, GraphStream};
use dppr::stream::StreamDriver;

fn stream() -> GraphStream {
    let edges = undirected_to_directed(&barabasi_albert(500, 4, 9));
    GraphStream::directed(edges).permuted(2)
}

#[test]
fn query_verdicts_are_sound_against_ground_truth() {
    let eps = 1e-4;
    let cfg = PprConfig::new(0, 0.15, eps);
    let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut driver = StreamDriver::new(stream(), 0.1);
    driver.bootstrap(&mut engine);
    driver.run_slides(&mut engine, 100, 10);
    let truth = exact_ppr(driver.graph(), 0, 0.15, 1e-13);

    // Every interval must contain the truth.
    let ans = top_k(engine.state(), 20);
    for b in &ans.ranking {
        let t = truth.get(b.vertex as usize).copied().unwrap_or(0.0);
        assert!(b.lo <= t + 1e-12 && t <= b.hi + 1e-12, "vertex {}", b.vertex);
    }
    // If the set is certain, it must equal the exact top-k set.
    if ans.set_is_certain {
        let mut exact_top: Vec<(u32, f64)> =
            truth.iter().enumerate().map(|(v, &t)| (v as u32, t)).collect();
        exact_top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let want: std::collections::HashSet<u32> =
            exact_top.iter().take(20).map(|&(v, _)| v).collect();
        let got: std::collections::HashSet<u32> = ans.ranking.iter().map(|b| b.vertex).collect();
        assert_eq!(want, got);
    }

    // Threshold certainty: every "certain" vertex truly qualifies, and no
    // qualifying vertex is missed by certain ∪ possible.
    let delta = 0.002;
    let t_ans = above_threshold(engine.state(), delta);
    for b in &t_ans.certain {
        assert!(truth[b.vertex as usize] >= delta - 1e-12);
    }
    let covered: std::collections::HashSet<u32> =
        t_ans.certain.iter().chain(&t_ans.possible).map(|b| b.vertex).collect();
    for (v, &t) in truth.iter().enumerate() {
        if t >= delta {
            assert!(covered.contains(&(v as u32)), "missed qualifying vertex {v}");
        }
    }

    // Decidable comparisons must agree with the truth.
    for a in 0..20u32 {
        for b in 0..20u32 {
            if let Some(ord) = compare(engine.state(), a, b) {
                let want = truth[a as usize].partial_cmp(&truth[b as usize]).unwrap();
                if ord != std::cmp::Ordering::Equal {
                    assert_eq!(ord, want, "compare({a},{b})");
                }
            }
        }
    }
}

#[test]
fn multi_source_tracks_each_hub_through_slides() {
    let sources = [0u32, 1, 2];
    let mut multi = MultiSourcePpr::new(&sources, 0.15, 1e-4);
    let mut g = DynamicGraph::new();
    let mut window = dppr::graph::SlidingWindow::new(stream(), 0.1);
    multi.apply_batch(&mut g, &window.initial_updates());
    for _ in 0..8 {
        let Some(batch) = window.slide(100) else { break };
        multi.apply_batch(&mut g, &batch);
    }
    for (i, &s) in sources.iter().enumerate() {
        let truth = exact_ppr(&g, s, 0.15, 1e-13);
        for (v, &t) in truth.iter().enumerate() {
            assert!(
                (multi.estimate(i, v as u32) - t).abs() <= 1e-4 + 1e-10,
                "source {s} vertex {v}"
            );
        }
        // Top-k through the bundle agrees with a fresh ranking.
        let top = multi.top_k(i, 5);
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
