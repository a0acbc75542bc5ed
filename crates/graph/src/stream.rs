//! Timestamped edge streams and the sliding-window update model (§5.1).
//!
//! The paper's datasets carry no timestamps, so it "simulate[s] the random
//! edge arrival model by randomly setting the timestamps for all edges" and
//! then drives a sliding window: the first 10% of the stream initializes the
//! window; every slide of batch size `k` inserts the next `k` edges and
//! deletes the `k` oldest ones.

use crate::types::{EdgeUpdate, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// An ordered sequence of *logical* edges; the position in the sequence is
/// the arrival timestamp.
///
/// For undirected datasets each logical edge expands to the two directed
/// arcs `(u→v, v→u)` inside one batch, the convention used throughout the
/// paper (an undirected update is "treated as two directed updates").
/// Undirected streams expect logical edges to be distinct as **unordered**
/// pairs — if both `(u,v)` and `(v,u)` appeared, the second insert would
/// be a no-op yet its later deletion would still remove the arcs the first
/// logical edge owns.
#[derive(Debug, Clone)]
pub struct GraphStream {
    edges: Vec<(VertexId, VertexId)>,
    undirected: bool,
}

impl GraphStream {
    /// A stream of directed edges arriving in the given order.
    pub fn directed(edges: Vec<(VertexId, VertexId)>) -> Self {
        GraphStream { edges, undirected: false }
    }

    /// A stream of undirected edges (each expands to two arcs on arrival).
    pub fn undirected(edges: Vec<(VertexId, VertexId)>) -> Self {
        GraphStream { edges, undirected: true }
    }

    /// Applies the random-edge-permutation arrival model: shuffles the
    /// logical edges with the given seed.
    pub fn permuted(mut self, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        self.edges.shuffle(&mut rng);
        self
    }

    /// Number of logical edges in the stream.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the stream holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether logical edges expand to two directed arcs.
    pub fn is_undirected(&self) -> bool {
        self.undirected
    }

    /// The logical edge at stream position (timestamp) `i`.
    pub fn edge_at(&self, i: usize) -> (VertexId, VertexId) {
        self.edges[i]
    }

    /// Largest vertex id mentioned anywhere in the stream, plus one.
    pub fn vertex_bound(&self) -> usize {
        self.edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Sliding-window driver over a [`GraphStream`].
///
/// The window is the half-open timestamp range `[start, end)`. Initially it
/// covers the first `init_fraction` of the stream; [`SlidingWindow::slide`]
/// advances both bounds by the batch size, emitting the corresponding
/// insertions and deletions as one update batch.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    stream: GraphStream,
    start: usize,
    end: usize,
}

impl SlidingWindow {
    /// Creates a window over the first `init_fraction` (e.g. `0.1`) of the
    /// stream. At least one edge is placed in the window if the stream is
    /// non-empty.
    pub fn new(stream: GraphStream, init_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&init_fraction),
            "init_fraction must lie in [0, 1]"
        );
        let end = ((stream.len() as f64 * init_fraction) as usize)
            .clamp(usize::from(!stream.is_empty()), stream.len());
        SlidingWindow { stream, start: 0, end }
    }

    /// Re-creates a window at an explicit `[start, end)` position, for
    /// recovery: a checkpoint records where the window stood, and the
    /// stream (being a seeded permutation) is reproducible, so the window
    /// content is fully determined by its bounds.
    pub fn resume_at(stream: GraphStream, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= stream.len(), "window [{start}, {end}) out of bounds");
        SlidingWindow { stream, start, end }
    }

    /// Window start — the logical stream position of the oldest edge
    /// still inside the window.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Window end — the logical stream position of the next arrival.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The updates that build the initial window (insertions only). Engines
    /// apply these as one big batch to bootstrap from the empty graph, which
    /// the local-update invariant supports directly: the empty graph
    /// satisfies it trivially and every insertion restores it.
    pub fn initial_updates(&self) -> Vec<EdgeUpdate> {
        let mut out = Vec::with_capacity(self.arcs_per_edge() * (self.end - self.start));
        for i in self.start..self.end {
            self.expand(i, true, &mut out);
        }
        out
    }

    /// Number of logical edges currently inside the window.
    pub fn window_len(&self) -> usize {
        self.end - self.start
    }

    /// Total logical edges in the backing stream.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// How many more slides of batch size `k` the stream can serve.
    pub fn remaining_slides(&self, k: usize) -> usize {
        if k == 0 {
            return 0;
        }
        (self.stream.len() - self.end) / k
    }

    /// Slides the window by `k` logical edges: emits `k` insertions (the
    /// next arrivals) followed by `k` deletions (the oldest window
    /// content), exactly the paper's slide semantics. Returns `None` when
    /// fewer than `k` un-arrived edges remain.
    pub fn slide(&mut self, k: usize) -> Option<Vec<EdgeUpdate>> {
        if k == 0 || self.stream.len() - self.end < k {
            return None;
        }
        let mut batch = Vec::with_capacity(self.arcs_per_edge() * 2 * k);
        for i in self.end..self.end + k {
            self.expand(i, true, &mut batch);
        }
        for i in self.start..self.start + k {
            self.expand(i, false, &mut batch);
        }
        self.end += k;
        self.start += k;
        Some(batch)
    }

    /// The logical edges currently inside the window, oldest first.
    pub fn window_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (self.start..self.end).map(|i| self.stream.edge_at(i))
    }

    /// Access to the underlying stream.
    pub fn stream(&self) -> &GraphStream {
        &self.stream
    }

    fn arcs_per_edge(&self) -> usize {
        if self.stream.undirected {
            2
        } else {
            1
        }
    }

    fn expand(&self, i: usize, insert: bool, out: &mut Vec<EdgeUpdate>) {
        let (u, v) = self.stream.edge_at(i);
        let mk = if insert { EdgeUpdate::insert } else { EdgeUpdate::delete };
        out.push(mk(u, v));
        if self.stream.undirected {
            out.push(mk(v, u));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicGraph;
    use crate::types::EdgeOp;

    fn stream10() -> GraphStream {
        GraphStream::directed((0..10).map(|i| (i, i + 1)).collect())
    }

    #[test]
    fn permutation_is_seeded() {
        let a = stream10().permuted(3);
        let b = stream10().permuted(3);
        let c = stream10().permuted(4);
        assert_eq!(a.edges, b.edges);
        assert_ne!(a.edges, c.edges);
        let mut sorted = a.edges.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, stream10().edges);
    }

    #[test]
    fn initial_window_is_prefix() {
        let w = SlidingWindow::new(stream10(), 0.3);
        assert_eq!(w.window_len(), 3);
        let init = w.initial_updates();
        assert_eq!(init.len(), 3);
        assert!(init.iter().all(|u| u.op == EdgeOp::Insert));
        assert_eq!(init[0], EdgeUpdate::insert(0, 1));
        assert_eq!(init[2], EdgeUpdate::insert(2, 3));
    }

    #[test]
    fn tiny_fraction_still_nonempty() {
        let w = SlidingWindow::new(stream10(), 0.0);
        assert_eq!(w.window_len(), 1);
    }

    #[test]
    fn slide_inserts_then_deletes() {
        let mut w = SlidingWindow::new(stream10(), 0.3);
        let batch = w.slide(2).unwrap();
        assert_eq!(
            batch,
            vec![
                EdgeUpdate::insert(3, 4),
                EdgeUpdate::insert(4, 5),
                EdgeUpdate::delete(0, 1),
                EdgeUpdate::delete(1, 2),
            ]
        );
        assert_eq!(w.window_len(), 3);
        let edges: Vec<_> = w.window_edges().collect();
        assert_eq!(edges, vec![(2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn slide_exhaustion() {
        let mut w = SlidingWindow::new(stream10(), 0.5);
        assert_eq!(w.remaining_slides(2), 2);
        assert!(w.slide(2).is_some());
        assert!(w.slide(2).is_some());
        assert!(w.slide(2).is_none());
        assert_eq!(w.remaining_slides(2), 0);
    }

    #[test]
    fn zero_batch_slide_rejected() {
        let mut w = SlidingWindow::new(stream10(), 0.5);
        assert!(w.slide(0).is_none());
    }

    #[test]
    fn undirected_expansion() {
        let s = GraphStream::undirected(vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut w = SlidingWindow::new(s, 0.5);
        let init = w.initial_updates();
        assert_eq!(
            init,
            vec![
                EdgeUpdate::insert(0, 1),
                EdgeUpdate::insert(1, 0),
                EdgeUpdate::insert(1, 2),
                EdgeUpdate::insert(2, 1),
            ]
        );
        let batch = w.slide(1).unwrap();
        assert_eq!(
            batch,
            vec![
                EdgeUpdate::insert(2, 3),
                EdgeUpdate::insert(3, 2),
                EdgeUpdate::delete(0, 1),
                EdgeUpdate::delete(1, 0),
            ]
        );
    }

    #[test]
    fn window_replay_matches_graph() {
        // Applying init + all slide batches to a DynamicGraph must leave
        // exactly the window edges.
        let s = stream10().permuted(42);
        let mut w = SlidingWindow::new(s, 0.4);
        let mut g = DynamicGraph::new();
        for u in w.initial_updates() {
            assert!(g.apply(u));
        }
        while let Some(batch) = w.slide(3) {
            for u in batch {
                assert!(g.apply(u), "update {u:?} must take effect");
            }
        }
        let mut in_graph: Vec<_> = g.edges().collect();
        in_graph.sort_unstable();
        let mut in_window: Vec<_> = w.window_edges().collect();
        in_window.sort_unstable();
        assert_eq!(in_graph, in_window);
    }

    #[test]
    fn resume_at_reproduces_window() {
        let s = stream10().permuted(42);
        let mut w = SlidingWindow::new(s.clone(), 0.4);
        w.slide(2).unwrap();
        w.slide(2).unwrap();
        let resumed = SlidingWindow::resume_at(s, w.start(), w.end());
        let a: Vec<_> = w.window_edges().collect();
        let b: Vec<_> = resumed.window_edges().collect();
        assert_eq!(a, b);
        // initial_updates over the resumed window inserts exactly the
        // window content — the recovery graph-rebuild path.
        assert_eq!(resumed.initial_updates().len(), resumed.window_len());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn resume_at_rejects_bad_bounds() {
        SlidingWindow::resume_at(stream10(), 5, 20);
    }

    #[test]
    fn vertex_bound() {
        assert_eq!(stream10().vertex_bound(), 11);
        assert_eq!(GraphStream::directed(vec![]).vertex_bound(), 0);
    }
}
