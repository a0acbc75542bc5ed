//! `edgeMap` / `vertexMap` with Ligra's sparse/dense direction switching.

use crate::subset::VertexSubset;
use dppr_core::fanout::{concat, fan_out, threads_for};
use dppr_graph::{DynamicGraph, VertexId};
use std::ops::Range;

/// Which adjacency the traversal follows from a frontier vertex `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Traverse `u → v` for `v ∈ Nout(u)`.
    Out,
    /// Traverse `u → v` for `v ∈ Nin(u)` (the residual-push direction).
    In,
}

/// Tuning knobs for [`edge_map`].
#[derive(Debug, Clone, Copy)]
pub struct EdgeMapOptions {
    /// Dense (pull) mode is used when `|frontier| + Σ deg(frontier)`
    /// exceeds `m / dense_threshold_divisor` (Ligra uses 20).
    pub dense_threshold_divisor: usize,
    /// Force a representation regardless of the heuristic.
    pub force: Option<Mode>,
}

/// Traversal mode chosen by (or forced upon) `edge_map`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Iterate frontier vertices, push to their neighbors (needs atomics).
    Sparse,
    /// Iterate all destinations, pull from frontier members (no atomics).
    Dense,
}

impl Default for EdgeMapOptions {
    fn default() -> Self {
        EdgeMapOptions { dense_threshold_divisor: 20, force: None }
    }
}

/// Ligra's `edgeMap(G, U, F, C)`.
///
/// For every edge `(u, v)` with `u ∈ U` (along `direction`) and `C(v)`
/// true, applies the update function; `v` joins the output subset iff some
/// application returns `true`.
///
/// * `f_sparse(u, v)` runs in push mode: concurrent per destination, so it
///   must use atomics and return `true` **at most once** per `v` (the
///   CAS-claim contract of Ligra's `F`).
/// * `f_dense(u, v)` runs in pull mode: all sources of a given `v` are
///   applied by one task, so plain updates are fine; `v` joins the output
///   iff any application returns `true`.
pub fn edge_map<FS, FD, C>(
    g: &DynamicGraph,
    frontier: &mut VertexSubset,
    direction: Direction,
    opts: EdgeMapOptions,
    f_sparse: FS,
    f_dense: FD,
    cond: C,
) -> VertexSubset
where
    FS: Fn(VertexId, VertexId) -> bool + Sync,
    FD: Fn(VertexId, VertexId) -> bool + Sync,
    C: Fn(VertexId) -> bool + Sync,
{
    let n = g.num_vertices().max(frontier.universe());
    if frontier.is_empty() {
        return VertexSubset::empty(n);
    }
    let mode = opts.force.unwrap_or_else(|| {
        let ids = frontier.collect_ids();
        let work: usize = ids.len()
            + ids
                .iter()
                .map(|&u| match direction {
                    Direction::Out => g.out_degree(u),
                    Direction::In => g.in_degree(u),
                })
                .sum::<usize>();
        if work * opts.dense_threshold_divisor.max(1) > g.num_edges().max(1) {
            Mode::Dense
        } else {
            Mode::Sparse
        }
    });
    match mode {
        Mode::Sparse => edge_map_sparse(g, frontier, direction, f_sparse, cond, n),
        Mode::Dense => edge_map_dense(g, frontier, direction, f_dense, cond, n),
    }
}

fn edge_map_sparse<F, C>(
    g: &DynamicGraph,
    frontier: &mut VertexSubset,
    direction: Direction,
    f: F,
    cond: C,
    n: usize,
) -> VertexSubset
where
    F: Fn(VertexId, VertexId) -> bool + Sync,
    C: Fn(VertexId) -> bool + Sync,
{
    let ids = frontier.ids();
    let push = |range: Range<usize>| {
        let mut acc = Vec::new();
        for &u in &ids[range] {
            let neighbors = match direction {
                Direction::Out => g.out_neighbors(u),
                Direction::In => g.in_neighbors(u),
            };
            for &v in neighbors {
                if cond(v) && f(u, v) {
                    acc.push(v);
                }
            }
        }
        acc
    };
    VertexSubset::from_sparse(n, fan_out(ids.len(), threads_for(ids.len()), push, concat))
}

fn edge_map_dense<F, C>(
    g: &DynamicGraph,
    frontier: &mut VertexSubset,
    direction: Direction,
    f: F,
    cond: C,
    n: usize,
) -> VertexSubset
where
    F: Fn(VertexId, VertexId) -> bool + Sync,
    C: Fn(VertexId) -> bool + Sync,
{
    frontier.to_dense();
    let frontier = &*frontier;
    let pull = |v: VertexId| {
        if !cond(v) {
            return false;
        }
        // Sources of v along `direction`: the reverse adjacency.
        let sources = match direction {
            Direction::Out => g.in_neighbors(v),
            Direction::In => g.out_neighbors(v),
        };
        let mut added = false;
        for &u in sources {
            if frontier.contains(u) && f(u, v) {
                added = true;
            }
        }
        added
    };
    let pull_all = |range: Range<usize>| range.map(|v| pull(v as VertexId)).collect::<Vec<bool>>();
    VertexSubset::from_dense(fan_out(n, threads_for(n), pull_all, concat))
}

/// Ligra's `vertexMap(U, F)`: applies `f` to every member; the output
/// subset keeps the members for which `f` returned `true`.
pub fn vertex_map<F>(subset: &mut VertexSubset, f: F) -> VertexSubset
where
    F: Fn(VertexId) -> bool + Sync,
{
    let n = subset.universe();
    let ids = subset.ids();
    let keep = |range: Range<usize>| ids[range].iter().copied().filter(|&v| f(v)).collect::<Vec<_>>();
    VertexSubset::from_sparse(n, fan_out(ids.len(), threads_for(ids.len()), keep, concat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    fn diamond() -> DynamicGraph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        DynamicGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    /// Parallel BFS on edge_map — exercises the abstraction the way
    /// Ligra's flagship example does.
    fn bfs(g: &DynamicGraph, root: VertexId, force: Option<Mode>) -> Vec<u32> {
        let n = g.num_vertices();
        let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
        let claimed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        dist[root as usize].store(0, Ordering::Relaxed);
        claimed[root as usize].store(true, Ordering::Relaxed);
        let mut frontier = VertexSubset::from_sparse(n, vec![root]);
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let lvl = level;
            let next = edge_map(
                g,
                &mut frontier,
                Direction::Out,
                EdgeMapOptions { force, ..Default::default() },
                |_u, v| {
                    // sparse: claim exactly once
                    if !claimed[v as usize].swap(true, Ordering::Relaxed) {
                        dist[v as usize].store(lvl, Ordering::Relaxed);
                        true
                    } else {
                        false
                    }
                },
                |_u, v| {
                    // dense: single task per v
                    if !claimed[v as usize].load(Ordering::Relaxed) {
                        claimed[v as usize].store(true, Ordering::Relaxed);
                        dist[v as usize].store(lvl, Ordering::Relaxed);
                        true
                    } else {
                        false
                    }
                },
                |v| !claimed[v as usize].load(Ordering::Relaxed),
            );
            frontier = next;
        }
        dist.iter().map(|d| d.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn bfs_sparse_matches_dense() {
        let g = diamond();
        let sparse = bfs(&g, 0, Some(Mode::Sparse));
        let dense = bfs(&g, 0, Some(Mode::Dense));
        let auto = bfs(&g, 0, None);
        assert_eq!(sparse, vec![0, 1, 1, 2]);
        assert_eq!(sparse, dense);
        assert_eq!(sparse, auto);
    }

    #[test]
    fn in_direction_traverses_reverse_edges() {
        let g = diamond();
        let n = g.num_vertices();
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let mut frontier = VertexSubset::from_sparse(n, vec![3]);
        let out = edge_map(
            &g,
            &mut frontier,
            Direction::In,
            EdgeMapOptions { force: Some(Mode::Sparse), ..Default::default() },
            |_u, v| {
                hits[v as usize].fetch_add(1, Ordering::Relaxed);
                true
            },
            |_u, _v| unreachable!("forced sparse"),
            |_| true,
        );
        // In-neighbors of 3 are 1 and 2.
        let mut ids = out.collect_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(hits[1].load(Ordering::Relaxed), 1);
        assert_eq!(hits[2].load(Ordering::Relaxed), 1);
        assert_eq!(hits[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cond_filters_destinations() {
        let g = diamond();
        let mut frontier = VertexSubset::from_sparse(g.num_vertices(), vec![0]);
        let out = edge_map(
            &g,
            &mut frontier,
            Direction::Out,
            EdgeMapOptions { force: Some(Mode::Sparse), ..Default::default() },
            |_u, _v| true,
            |_u, _v| true,
            |v| v != 2,
        );
        assert_eq!(out.collect_ids(), vec![1]);
    }

    #[test]
    fn vertex_map_filters() {
        let mut s = VertexSubset::from_sparse(6, vec![0, 1, 2, 3, 4, 5]);
        let evens = vertex_map(&mut s, |v| v % 2 == 0);
        assert_eq!(evens.collect_ids(), vec![0, 2, 4]);
    }

    #[test]
    fn empty_frontier_short_circuits() {
        let g = diamond();
        let mut empty = VertexSubset::empty(g.num_vertices());
        let out = edge_map(
            &g,
            &mut empty,
            Direction::Out,
            EdgeMapOptions::default(),
            |_u, _v| panic!("must not run"),
            |_u, _v| panic!("must not run"),
            |_| true,
        );
        assert!(out.is_empty());
    }
}
