//! The mutable directed graph all engines run on.
//!
//! `DynamicGraph` maintains *both* adjacency directions because the local
//! push of the paper walks **in-neighbors** (`Nin(u)` in Algorithms 2–4)
//! while `RestoreInvariant` and the random-walk baseline need out-degrees and
//! out-neighbors.
//!
//! # Storage layout: the adjacency pool
//!
//! Each direction is an [`AdjPool`]: one contiguous arena of `VertexId`
//! slots holding a `(offset, len, capacity)` span per vertex. Neighbor
//! iteration is a single flat-slice read — no per-vertex heap allocation,
//! no double indirection, and spans touched together tend to sit together,
//! which is what the push kernels' memory behaviour lives on. Insertion
//! appends into the span's slack and is amortized O(1): a full span is
//! relocated to the end of the arena with doubled capacity (the old slots
//! become garbage) and the arena is compacted in O(n + m) once garbage
//! slots outnumber live ones. Deletion is O(deg) via `swap_remove`, the standard
//! trade-off for streaming graph stores (cf. STINGER [14]).
//!
//! # Duplicate detection
//!
//! The paper's graphs are simple, so `insert_edge` must reject duplicates.
//! Membership has one implementation: a scan of `u`'s out-span, O(dout(u)).
//! A per-hub hash set would make an insert's check O(1), but it cannot
//! help the matching delete, which must find the edge's position in both
//! spans anyway. On a sliding window every inserted edge is deleted one
//! window later, so the scan is paid either way; measured on R-MAT
//! windows, a hash index bought no time and cost memory.
//!
//! # Maintained aggregates
//!
//! * `inv_dout[u] = 1 / dout(u)` (0 for dangling vertices), updated on
//!   every insert/delete. This array is the **single source of truth** for
//!   `1/dout` in the push kernels: they multiply by
//!   [`DynamicGraph::inv_out_degree`] instead of dividing per edge.
//! * `active` — the number of vertices with non-zero (in+out) degree (the
//!   paper's `|V^t|`), maintained incrementally so
//!   [`DynamicGraph::active_vertices`] is O(1) instead of an O(n) scan.

use crate::types::{EdgeOp, EdgeUpdate, VertexId};

/// Observability snapshot of the adjacency-pool substrate
/// ([`DynamicGraph::substrate_stats`]): arena occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Total arena slots across both directions (live + slack + garbage).
    pub arena_slots: usize,
    /// Live neighbor slots: `2·m` (each edge occupies one out- and one
    /// in-slot).
    pub live_slots: usize,
    /// Garbage slots abandoned by span relocation, awaiting compaction.
    pub dead_slots: usize,
}

impl SubstrateStats {
    /// Live fraction of the arena: `live_slots / arena_slots` (1.0 for
    /// an empty arena, so a fresh graph reads as fully utilized rather
    /// than NaN).
    pub fn utilization(&self) -> f64 {
        if self.arena_slots == 0 {
            1.0
        } else {
            self.live_slots as f64 / self.arena_slots as f64
        }
    }
}

/// One adjacency direction: per-vertex spans in a shared flat arena with
/// amortized-doubling slack.
#[derive(Debug, Clone, Default)]
struct AdjPool {
    /// The arena. Slots outside live spans are garbage (relocation leaves
    /// the old copy behind) or slack (allocated but unused capacity).
    data: Vec<VertexId>,
    /// Span start per vertex.
    off: Vec<usize>,
    /// Live neighbors per vertex.
    len: Vec<u32>,
    /// Allocated slots per vertex (`len ≤ cap`).
    cap: Vec<u32>,
    /// Garbage slots abandoned by relocations; drives compaction.
    dead: usize,
    /// Total live slots (`Σ len`), maintained so the compaction trigger
    /// can compare garbage against live data in O(1).
    live: usize,
}

impl AdjPool {
    fn num_vertices(&self) -> usize {
        self.off.len()
    }

    fn ensure(&mut self, n: usize) {
        if self.off.len() < n {
            self.off.resize(n, 0);
            self.len.resize(n, 0);
            self.cap.resize(n, 0);
        }
    }

    #[inline]
    fn degree(&self, u: usize) -> usize {
        self.len.get(u).map_or(0, |&l| l as usize)
    }

    #[inline]
    fn neighbors(&self, u: usize) -> &[VertexId] {
        match self.len.get(u) {
            Some(&l) => &self.data[self.off[u]..self.off[u] + l as usize],
            None => &[],
        }
    }

    /// Appends `v` to `u`'s span, growing it on overflow. Amortized O(1).
    #[inline]
    fn push(&mut self, u: usize, v: VertexId) {
        if self.len[u] == self.cap[u] {
            // Compact once garbage outnumbers live data (with a floor so
            // tiny graphs never churn), and do it BEFORE growing `u`'s
            // span: compaction resets empty spans to zero capacity, so
            // compacting after the allocation would throw the fresh span
            // away and the write below would land out of bounds.
            // (Comparing `dead` against the arena length instead of `live`
            // would be wrong: every relocation grows the arena by at least
            // twice the garbage it creates, so such a trigger never fires.)
            if self.dead > self.live.max(1024) {
                self.compact();
            }
            // Compaction leaves non-empty spans with free slots; grow only
            // if the span is still full (or was empty all along).
            if self.len[u] == self.cap[u] {
                self.grow(u);
            }
        }
        let end = self.off[u] + self.len[u] as usize;
        self.data[end] = v;
        self.len[u] += 1;
        self.live += 1;
    }

    /// Doubles `u`'s span capacity: in place when the span already sits at
    /// the arena tail (no copy, no garbage — the common case for the
    /// hottest hub), otherwise by relocating it to the end of the arena
    /// and abandoning the old slots.
    #[cold]
    fn grow(&mut self, u: usize) {
        let old_off = self.off[u];
        let old_cap = self.cap[u] as usize;
        let live = self.len[u] as usize;
        let new_cap = (old_cap * 2).max(4);
        if old_cap > 0 && old_off + old_cap == self.data.len() {
            self.data.resize(old_off + new_cap, 0);
            self.cap[u] = new_cap as u32;
            return;
        }
        let new_off = self.data.len();
        self.data.reserve(new_cap);
        self.data.extend_from_within(old_off..old_off + live);
        self.data.resize(new_off + new_cap, 0);
        self.off[u] = new_off;
        self.cap[u] = new_cap as u32;
        self.dead += old_cap;
    }

    /// Rebuilds the arena in vertex order, dropping garbage and resetting
    /// each span's slack to the next power of two above its length.
    fn compact(&mut self) {
        let total: usize = self.len.iter().map(|&l| Self::compact_cap(l as usize)).sum();
        let mut data = Vec::with_capacity(total);
        for u in 0..self.off.len() {
            let live = self.len[u] as usize;
            let cap = Self::compact_cap(live);
            let off = data.len();
            data.extend_from_slice(&self.data[self.off[u]..self.off[u] + live]);
            data.resize(off + cap, 0);
            self.off[u] = off;
            self.cap[u] = cap as u32;
        }
        self.data = data;
        self.dead = 0;
    }

    /// Post-compaction capacity: at least one free slot so the next push
    /// does not immediately relocate again.
    fn compact_cap(live: usize) -> usize {
        if live == 0 {
            0
        } else {
            (live + 1).next_power_of_two().max(4)
        }
    }

    /// Removes the neighbor at `pos` within `u`'s span (order not
    /// preserved).
    #[inline]
    fn swap_remove(&mut self, u: usize, pos: usize) {
        let off = self.off[u];
        let last = off + self.len[u] as usize - 1;
        self.data.swap(off + pos, last);
        self.len[u] -= 1;
        self.live -= 1;
    }

    /// Internal structural validation, used by `check_consistency`.
    fn validate(&self) -> Result<(), String> {
        if self.off.len() != self.len.len() || self.off.len() != self.cap.len() {
            return Err("span array length mismatch".into());
        }
        for u in 0..self.off.len() {
            if self.len[u] > self.cap[u] {
                return Err(format!("vertex {u}: len {} > cap {}", self.len[u], self.cap[u]));
            }
            if self.off[u] + self.cap[u] as usize > self.data.len() {
                return Err(format!("vertex {u}: span exceeds arena"));
            }
        }
        let live: usize = self.len.iter().map(|&l| l as usize).sum();
        if live != self.live {
            return Err(format!("live counter {} != recount {live}", self.live));
        }
        Ok(())
    }
}

/// An in-memory directed graph supporting the dynamic update model of §2.2.
///
/// Vertices are dense `u32` ids `0..num_vertices()`. Inserting an edge whose
/// endpoint exceeds the current vertex count grows the vertex set (the
/// paper: "an edge insertion may introduce new vertices"); deleting an edge
/// never shrinks ids, but [`DynamicGraph::active_vertices`] reports how many
/// vertices currently have non-zero degree (the paper's `|V^t|` accounting).
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    out: AdjPool,
    inn: AdjPool,
    num_edges: usize,
    /// Vertices with non-zero (in+out) degree, maintained incrementally.
    active: usize,
    /// `1 / dout(u)`, or 0 when `dout(u) = 0`. See the module docs.
    inv_dout: Vec<f64>,
}

impl DynamicGraph {
    /// Creates an empty graph with no vertices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        let mut g = DynamicGraph::new();
        g.ensure_capacity(n);
        g
    }

    /// Builds a graph from a list of directed edges, inserting each with
    /// [`DynamicGraph::insert_edge`] (duplicates and self-loops are skipped).
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = DynamicGraph::new();
        for (u, v) in edges {
            g.insert_edge(u, v);
        }
        g
    }

    fn ensure_capacity(&mut self, n: usize) {
        self.out.ensure(n);
        self.inn.ensure(n);
        if self.inv_dout.len() < n {
            self.inv_dout.resize(n, 0.0);
        }
    }

    /// Number of vertex ids allocated (isolated vertices included).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of vertices with non-zero (in+out) degree. O(1): the count
    /// is maintained across updates.
    #[inline]
    pub fn active_vertices(&self) -> usize {
        self.active
    }

    /// Grows the vertex set so `v` is a valid id.
    #[inline]
    pub fn ensure_vertex(&mut self, v: VertexId) {
        let need = v as usize + 1;
        if need > self.num_vertices() {
            self.ensure_capacity(need);
        }
    }

    /// Out-degree `dout(u)`; zero for ids outside the current vertex set.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out.degree(u as usize)
    }

    /// `1 / dout(u)` as maintained by the graph (0 when `dout(u) = 0` or
    /// `u` is outside the vertex set). The push kernels multiply by this
    /// instead of dividing per edge; it is recomputed — not incrementally
    /// adjusted — on every degree change, so it is always exactly
    /// `1.0 / dout(u) as f64`.
    #[inline]
    pub fn inv_out_degree(&self, u: VertexId) -> f64 {
        self.inv_dout.get(u as usize).copied().unwrap_or(0.0)
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: VertexId) -> usize {
        self.inn.degree(u as usize)
    }

    /// The out-neighbor set `Nout(u)` (unsorted) — one flat-slice read.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        self.out.neighbors(u as usize)
    }

    /// The in-neighbor set `Nin(u)` (unsorted) — the direction the local
    /// push propagates residuals along. One flat-slice read.
    #[inline]
    pub fn in_neighbors(&self, u: VertexId) -> &[VertexId] {
        self.inn.neighbors(u as usize)
    }

    /// Where `u`'s in-span header lives — its offset and length slots —
    /// for a kernel that prefetches them some pushes ahead of
    /// [`DynamicGraph::in_neighbors`] (whose first slot is the span's
    /// address to hint at); `None` outside the vertex set. The references
    /// are only addresses: the pool stays private.
    #[inline]
    pub fn in_header_hint(&self, u: VertexId) -> Option<(&usize, &u32)> {
        let u = u as usize;
        Some((self.inn.off.get(u)?, self.inn.len.get(u)?))
    }

    /// Whether the directed edge `u → v` is present. O(dout(u)): a scan
    /// of `u`'s out-span.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).contains(&v)
    }

    #[inline]
    fn total_degree(&self, u: usize) -> usize {
        self.out.degree(u) + self.inn.degree(u)
    }

    /// Inserts the directed edge `u → v`. Returns `false` (and leaves the
    /// graph unchanged) for self-loops and already-present edges — the
    /// paper's graphs are simple. O(dout(u)) for the duplicate check
    /// ([`DynamicGraph::has_edge`]), then an amortized O(1) append.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.ensure_vertex(u.max(v));
        let (ui, vi) = (u as usize, v as usize);
        if self.total_degree(ui) == 0 {
            self.active += 1;
        }
        if self.total_degree(vi) == 0 {
            self.active += 1;
        }
        self.out.push(ui, v);
        self.inn.push(vi, u);
        self.num_edges += 1;
        let dout = self.out.len[ui] as usize;
        self.inv_dout[ui] = 1.0 / dout as f64;
        true
    }

    /// Deletes the directed edge `u → v`. Returns `false` if absent.
    /// Adjacency order is not preserved (`swap_remove`). O(deg).
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let ui = u as usize;
        if ui >= self.num_vertices() {
            return false;
        }
        let Some(pos) = self.out.neighbors(ui).iter().position(|&x| x == v) else {
            return false;
        };
        self.out.swap_remove(ui, pos);
        let vi = v as usize;
        let pos_in = self
            .inn
            .neighbors(vi)
            .iter()
            .position(|&x| x == u)
            .expect("in/out adjacency desynchronized");
        self.inn.swap_remove(vi, pos_in);
        self.num_edges -= 1;
        let dout = self.out.len[ui] as usize;
        self.inv_dout[ui] = if dout == 0 { 0.0 } else { 1.0 / dout as f64 };
        if self.total_degree(ui) == 0 {
            self.active -= 1;
        }
        if vi != ui && self.total_degree(vi) == 0 {
            self.active -= 1;
        }
        true
    }

    /// Applies one [`EdgeUpdate`]; returns whether the graph changed.
    pub fn apply(&mut self, upd: EdgeUpdate) -> bool {
        match upd.op {
            EdgeOp::Insert => self.insert_edge(upd.src, upd.dst),
            EdgeOp::Delete => self.delete_edge(upd.src, upd.dst),
        }
    }

    /// Iterates over all directed edges `(u, v)` in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices())
            .flat_map(move |u| self.out.neighbors(u).iter().map(move |&v| (u as VertexId, v)))
    }

    /// The ids of the `k` vertices with the largest out-degree, sorted by
    /// descending degree (ties by ascending id). This is how the paper picks
    /// source vertices ("top-10, top-1K and top-1M out-degrees", Table 2).
    ///
    /// O(n + k log k): the degrees are materialized once and the top `k`
    /// selected with `select_nth_unstable_by` instead of sorting all `n`
    /// ids with a comparator that re-derives degrees per comparison.
    pub fn top_out_degree_vertices(&self, k: usize) -> Vec<VertexId> {
        let n = self.num_vertices();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        let mut keyed: Vec<(usize, VertexId)> =
            (0..n as VertexId).map(|v| (self.out.degree(v as usize), v)).collect();
        let by_degree_desc =
            |a: &(usize, VertexId), b: &(usize, VertexId)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        if k < n {
            keyed.select_nth_unstable_by(k - 1, by_degree_desc);
            keyed.truncate(k);
        }
        keyed.sort_unstable_by(by_degree_desc);
        keyed.into_iter().map(|(_, v)| v).collect()
    }

    /// Introspection of the pool substrate (see [`SubstrateStats`]).
    pub fn substrate_stats(&self) -> SubstrateStats {
        SubstrateStats {
            arena_slots: self.out.data.len() + self.inn.data.len(),
            live_slots: 2 * self.num_edges,
            dead_slots: self.out.dead + self.inn.dead,
        }
    }

    /// Checks internal consistency: the two adjacency directions agree,
    /// the edge count matches, the pool spans are structurally valid, the
    /// maintained `inv_dout` / `active_vertices` aggregates match a
    /// recount.
    /// O(n + m log m); intended for tests and debug assertions.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.out.num_vertices() != self.inn.num_vertices() {
            return Err("vertex array length mismatch".into());
        }
        self.out.validate()?;
        self.inn.validate()?;
        if self.inv_dout.len() != self.num_vertices() {
            return Err("inv_dout length mismatch".into());
        }
        let mut fwd: Vec<(VertexId, VertexId)> = self.edges().collect();
        let mut bwd: Vec<(VertexId, VertexId)> = (0..self.num_vertices())
            .flat_map(|v| self.inn.neighbors(v).iter().map(move |&u| (u, v as VertexId)))
            .collect();
        if fwd.len() != self.num_edges {
            return Err(format!(
                "edge count {} != out-adjacency total {}",
                self.num_edges,
                fwd.len()
            ));
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        if fwd != bwd {
            return Err("in/out adjacency disagree".into());
        }
        let mut active = 0usize;
        for u in 0..self.num_vertices() {
            let dout = self.out.degree(u);
            let expect = if dout == 0 { 0.0 } else { 1.0 / dout as f64 };
            if self.inv_dout[u] != expect {
                return Err(format!("inv_dout[{u}] = {} but dout = {dout}", self.inv_dout[u]));
            }
            if self.total_degree(u) > 0 {
                active += 1;
            }
        }
        if active != self.active {
            return Err(format!("active_vertices counter {} != recount {active}", self.active));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DynamicGraph::new();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(7), 0);
        assert_eq!(g.in_degree(7), 0);
        assert_eq!(g.inv_out_degree(7), 0.0);
        assert!(g.out_neighbors(7).is_empty());
        assert!(!g.has_edge(0, 1));
        g.check_consistency().unwrap();
    }

    #[test]
    fn insert_grows_vertex_set() {
        let mut g = DynamicGraph::new();
        assert!(g.insert_edge(2, 5));
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(2), 1);
        assert_eq!(g.in_degree(5), 1);
        assert_eq!(g.out_neighbors(2), &[5]);
        assert_eq!(g.in_neighbors(5), &[2]);
        g.check_consistency().unwrap();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut g = DynamicGraph::new();
        assert!(g.insert_edge(0, 1));
        assert!(!g.insert_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DynamicGraph::new();
        assert!(!g.insert_edge(3, 3));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn delete_roundtrip() {
        let mut g = DynamicGraph::from_edges([(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 3);
        assert!(g.delete_edge(0, 1));
        assert!(!g.delete_edge(0, 1));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(1), 0);
        assert!(g.has_edge(0, 2));
        g.check_consistency().unwrap();
    }

    #[test]
    fn delete_absent_edge_is_noop() {
        let mut g = DynamicGraph::from_edges([(0, 1)]);
        assert!(!g.delete_edge(1, 0));
        assert!(!g.delete_edge(9, 9));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn apply_updates() {
        let mut g = DynamicGraph::new();
        assert!(g.apply(EdgeUpdate::insert(0, 1)));
        assert!(g.apply(EdgeUpdate::insert(1, 2)));
        assert!(g.apply(EdgeUpdate::delete(0, 1)));
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn active_vertices_counts_nonzero_degree() {
        let mut g = DynamicGraph::with_vertices(10);
        assert_eq!(g.active_vertices(), 0);
        g.insert_edge(0, 1);
        g.insert_edge(2, 1);
        assert_eq!(g.active_vertices(), 3);
        g.delete_edge(0, 1);
        assert_eq!(g.active_vertices(), 2);
        g.delete_edge(2, 1);
        assert_eq!(g.active_vertices(), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn inv_dout_tracks_degree_exactly() {
        let mut g = DynamicGraph::new();
        for v in 1..=5u32 {
            g.insert_edge(0, v);
            assert_eq!(g.inv_out_degree(0), 1.0 / v as f64);
        }
        g.delete_edge(0, 3);
        assert_eq!(g.inv_out_degree(0), 0.25);
        for v in [1u32, 2, 4, 5] {
            g.delete_edge(0, v);
        }
        assert_eq!(g.inv_out_degree(0), 0.0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn top_out_degree_ordering() {
        let mut g = DynamicGraph::new();
        for v in 1..=4 {
            g.insert_edge(0, v); // dout(0)=4
        }
        for v in [0, 2, 3] {
            g.insert_edge(1, v); // dout(1)=3
        }
        g.insert_edge(2, 0); // dout(2)=1
        let top = g.top_out_degree_vertices(2);
        assert_eq!(top, vec![0, 1]);
        let all = g.top_out_degree_vertices(100);
        assert_eq!(all.len(), g.num_vertices());
        assert_eq!(all[0], 0);
        assert!(g.top_out_degree_vertices(0).is_empty());
        // Ties break by ascending id: vertices 3 and 4 both have dout 0.
        let tail = g.top_out_degree_vertices(5);
        assert_eq!(tail, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn edges_iterator_matches_count() {
        let g = DynamicGraph::from_edges([(0, 1), (1, 2), (2, 0), (0, 2)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    fn high_degree_membership_is_exact() {
        // One vertex far above any small-degree regime: every membership
        // answer still comes from the span scan and must be exact.
        let mut g = DynamicGraph::new();
        for v in 1..=2_000u32 {
            assert!(g.insert_edge(0, v));
        }
        for v in (1..=2_000u32).step_by(7) {
            assert!(!g.insert_edge(0, v), "duplicate 0 -> {v} must be refused");
        }
        assert_eq!(g.num_edges(), 2_000);
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2_000));
        assert!(!g.has_edge(0, 2_001) && !g.has_edge(0, 0) && !g.has_edge(1, 0));
        assert!(g.delete_edge(0, 777));
        assert!(!g.has_edge(0, 777));
        assert!(!g.delete_edge(0, 777));
        assert!(g.insert_edge(0, 777));
        assert!(g.has_edge(0, 777));
        assert_eq!(g.out_degree(0), 2_000);
        g.check_consistency().unwrap();
    }

    #[test]
    fn pool_relocation_and_compaction_preserve_spans() {
        // Interleave growth across vertices so spans relocate repeatedly
        // and compaction triggers; every span must stay intact.
        let mut g = DynamicGraph::new();
        let n = 64u32;
        for round in 0..40u32 {
            for u in 0..n {
                let v = (u + round + 1) % (n + 8);
                if u != v {
                    g.insert_edge(u, v);
                }
            }
        }
        g.check_consistency().unwrap();
        for u in 0..n {
            for &v in g.out_neighbors(u) {
                assert!(g.in_neighbors(v).contains(&u));
            }
        }
        // Deletions after heavy relocation still resolve.
        let edges: Vec<_> = g.edges().collect();
        for &(u, v) in edges.iter().step_by(3) {
            assert!(g.delete_edge(u, v));
        }
        g.check_consistency().unwrap();
    }

    #[test]
    fn compaction_during_new_vertex_insert_is_safe() {
        // Regression: compaction used to run *after* the growth path had
        // allocated a brand-new (empty) vertex's first span; compaction
        // resets empty spans to zero capacity, so the pending neighbor
        // write landed out of bounds (or inside another vertex's span).
        let mut g = DynamicGraph::new();
        let n = 64u32;
        // Interleaved growth relocates spans repeatedly, building garbage…
        for round in 0..32u32 {
            for u in 0..n {
                g.insert_edge(u, n + round);
            }
        }
        // …then deletions shrink the live mass without touching `dead`…
        for &(u, v) in g.edges().collect::<Vec<_>>().iter() {
            if v > n {
                g.delete_edge(u, v);
            }
        }
        // …so the next allocation (a new vertex id) must compact first
        // and still land its write correctly.
        assert!(g.insert_edge(5000, 5001));
        assert!(g.has_edge(5000, 5001));
        g.check_consistency().unwrap();
    }

    #[test]
    fn compaction_fires_and_bounds_garbage() {
        // Insert-heavy growth across few vertices relocates spans through
        // caps 4, 8, 16, … — garbage from abandoned spans must trigger
        // compaction, keeping dead slots bounded by live ones (plus the
        // small-graph floor) instead of accumulating forever.
        let mut g = DynamicGraph::new();
        let n = 32u32;
        for round in 0..200u32 {
            for u in 0..n {
                let v = n + ((u * 311 + round * 7) % 3000);
                g.insert_edge(u, v);
            }
        }
        let ss = g.substrate_stats();
        assert!(ss.live_slots > 10_000);
        assert!(
            ss.dead_slots <= ss.live_slots.max(2 * 1024),
            "dead {} not bounded by live {}",
            ss.dead_slots,
            ss.live_slots
        );
        g.check_consistency().unwrap();
    }
}
