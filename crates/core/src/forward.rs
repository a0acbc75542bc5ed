//! Forward (source-side) local push and the conductance sweep cut.
//!
//! The paper's Algorithms 1–4 maintain the *reverse* formulation (see the
//! crate docs). Two of its motivating applications — community detection
//! and graph partitioning [6] — consume the *forward* vector `πs`, the
//! stationary distribution of an α-teleporting walk from `s` (Eq. 1):
//!
//! ```text
//! πs(v) = α·1{v=s} + (1−α) · Σ_{u: u→v} πs(u)/dout(u)
//! ```
//!
//! This module implements the classic Andersen–Chung–Lang forward push for
//! a static snapshot, plus the sweep cut used by the community-detection
//! example. On undirected graphs the two formulations are related by
//! `πs(v)·d(s) = πv(s)·d(v)`, which the tests exploit to cross-validate the
//! reverse engines.

use dppr_graph::{DynamicGraph, VertexId};
use std::collections::VecDeque;

/// Result of a forward push: estimates `p` and residuals `r` with the ACL
/// guarantee `r(v) < ε·dout(v)` for all `v`.
#[derive(Debug, Clone)]
pub struct ForwardPush {
    /// Approximate forward PPR values.
    pub p: Vec<f64>,
    /// Leftover residuals.
    pub r: Vec<f64>,
    /// Push operations performed.
    pub pushes: u64,
}

/// Andersen–Chung–Lang forward push from `source` on the current graph.
/// `epsilon` is the per-degree residual threshold: vertex `u` is pushed
/// while `r(u) ≥ ε·dout(u)`.
pub fn forward_push(g: &DynamicGraph, source: VertexId, alpha: f64, epsilon: f64) -> ForwardPush {
    assert!(alpha > 0.0 && alpha < 1.0);
    assert!(epsilon > 0.0);
    let n = g.num_vertices().max(source as usize + 1);
    let mut p = vec![0.0f64; n];
    let mut r = vec![0.0f64; n];
    r[source as usize] = 1.0;
    let mut pushes = 0u64;

    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut in_queue = vec![false; n];
    if g.out_degree(source) > 0 && r[source as usize] >= epsilon * g.out_degree(source) as f64 {
        queue.push_back(source);
        in_queue[source as usize] = true;
    } else {
        // Degenerate source: all mass stays local.
        p[source as usize] = r[source as usize];
        r[source as usize] = 0.0;
    }

    while let Some(u) = queue.pop_front() {
        in_queue[u as usize] = false;
        let dout = g.out_degree(u);
        if dout == 0 {
            continue;
        }
        let ru = r[u as usize];
        if ru < epsilon * dout as f64 {
            continue;
        }
        pushes += 1;
        p[u as usize] += alpha * ru;
        r[u as usize] = 0.0;
        // dout > 0 was checked above, so the maintained 1/dout is non-zero.
        let share = (1.0 - alpha) * ru * g.inv_out_degree(u);
        for &v in g.out_neighbors(u) {
            r[v as usize] += share;
            let dv = g.out_degree(v);
            if dv > 0 && r[v as usize] >= epsilon * dv as f64 && !in_queue[v as usize] {
                in_queue[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    ForwardPush { p, r, pushes }
}

/// A sweep-cut result: the prefix of the degree-normalized PPR ordering
/// with the smallest conductance.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCut {
    /// Vertices of the best community, in sweep order.
    pub community: Vec<VertexId>,
    /// Conductance of that community.
    pub conductance: f64,
}

/// Sweep cut over a forward-PPR vector on an **undirected** graph (arcs in
/// both directions): sorts vertices by `p(v)/deg(v)`, scans prefixes, and
/// returns the one minimizing conductance `cut(S)/min(vol(S), vol(V∖S))`.
/// Prefixes are capped at half the total volume.
pub fn sweep_cut(g: &DynamicGraph, p: &[f64]) -> Option<SweepCut> {
    let total_vol: usize = (0..g.num_vertices() as VertexId).map(|v| g.out_degree(v)).sum();
    if total_vol == 0 {
        return None;
    }
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| p.get(v as usize).copied().unwrap_or(0.0) > 0.0 && g.out_degree(v) > 0)
        .collect();
    if order.is_empty() {
        return None;
    }
    order.sort_by(|&a, &b| {
        let ka = p[a as usize] * g.inv_out_degree(a);
        let kb = p[b as usize] * g.inv_out_degree(b);
        kb.partial_cmp(&ka).unwrap().then(a.cmp(&b))
    });

    let mut in_set = vec![false; g.num_vertices()];
    let mut cut = 0i64; // edges crossing the boundary
    let mut vol = 0usize;
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in order.iter().enumerate() {
        in_set[v as usize] = true;
        vol += g.out_degree(v);
        // Adding v: every incident edge flips its crossing status.
        for &w in g.out_neighbors(v) {
            if in_set[w as usize] {
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        // (On an undirected graph in/out neighbor sets coincide; using the
        // out-direction for both endpoints counts each undirected edge once
        // from each side, consistently.)
        if 2 * vol > total_vol {
            break;
        }
        let denom = vol.min(total_vol - vol).max(1) as f64;
        let phi = cut.max(0) as f64 / denom;
        if best.is_none_or(|(_, b)| phi < b) {
            best = Some((i, phi));
        }
    }
    best.map(|(i, phi)| SweepCut { community: order[..=i].to_vec(), conductance: phi })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_graph::generators::undirected_to_directed;

    #[test]
    fn forward_push_conserves_mass() {
        let g = DynamicGraph::from_edges([(0, 1), (1, 2), (2, 0), (1, 0)]);
        let fp = forward_push(&g, 0, 0.15, 1e-6);
        let total: f64 = fp.p.iter().sum::<f64>() + fp.r.iter().sum::<f64>();
        // p absorbs α of each pushed residual; (1−α) is passed on, so
        // p + r accounts only for... actually mass is conserved in the
        // sense Σp/α·... — the simple conserved quantity is Σp + Σr ≤ 1
        // with equality iff no mass is lost; forward push loses nothing.
        assert!(total <= 1.0 + 1e-12);
        assert!(fp.p[0] > 0.0);
        for (v, &r) in fp.r.iter().enumerate() {
            let dv = g.out_degree(v as VertexId) as f64;
            assert!(r < 1e-6 * dv.max(1.0) + 1e-15, "residual guarantee at {v}");
        }
    }

    #[test]
    fn dangling_source_keeps_all_mass() {
        let g = DynamicGraph::with_vertices(3);
        let fp = forward_push(&g, 1, 0.15, 1e-4);
        assert_eq!(fp.p[1], 1.0);
        assert_eq!(fp.pushes, 0);
    }

    #[test]
    fn undirected_duality_links_forward_and_reverse() {
        // On an undirected graph: πs(v)·d(s) = πv(s)·d(v). The reverse
        // vector for target s (what the paper's engines maintain) gives
        // πv(s) for all v; check against an accurate forward push.
        use crate::ground_truth::exact_ppr;
        let und = vec![(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)];
        let g = DynamicGraph::from_edges(undirected_to_directed(&und));
        let s: VertexId = 2;
        let alpha = 0.3;
        let reverse = exact_ppr(&g, s, alpha, 1e-14); // reverse[v] = πv(s)
        let fwd = forward_push(&g, s, alpha, 1e-10).p; // ≈ πs(v)
        let ds = g.out_degree(s) as f64;
        for v in 0..g.num_vertices() as VertexId {
            let dv = g.out_degree(v) as f64;
            let lhs = fwd[v as usize] * ds;
            let rhs = reverse[v as usize] * dv;
            assert!((lhs - rhs).abs() < 1e-5, "duality failed at {v}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn sweep_cut_finds_planted_community() {
        // Two 6-cliques joined by a single bridge edge: the sweep from
        // inside one clique must recover (a superset of) that clique with
        // low conductance.
        let mut und = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                und.push((a, b));
                und.push((a + 6, b + 6));
            }
        }
        und.push((0, 6)); // bridge
        let g = DynamicGraph::from_edges(undirected_to_directed(&und));
        let fp = forward_push(&g, 3, 0.1, 1e-7);
        let cut = sweep_cut(&g, &fp.p).expect("community expected");
        let mut community = cut.community.clone();
        community.sort_unstable();
        assert_eq!(community, vec![0, 1, 2, 3, 4, 5]);
        // One bridge edge over volume 5·6+1 = 31.
        assert!((cut.conductance - 1.0 / 31.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_cut_empty_graph() {
        let g = DynamicGraph::with_vertices(4);
        assert!(sweep_cut(&g, &[0.0; 4]).is_none());
    }
}
