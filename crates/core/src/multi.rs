//! Maintenance of many PPR vectors side by side.
//!
//! §2.1 of the paper notes that the general (non-unit) personalization case
//! "can be reduced to the case with the unit vector scenario … by
//! maintaining multiple PPR vectors with different personalized unit
//! vectors", and the indexing systems it aims to serve (HubPPR [46],
//! distributed exact PPR [18]) maintain vectors for many hub vertices.
//! [`MultiSourcePpr`] does exactly that: one [`PprState`] per source,
//! updated against the same graph. The pushes of different sources are
//! independent — each writes its own state and only reads the graph — so
//! [`MultiSourcePpr::apply_batch`] mutates the graph once and then spreads
//! the sessions over `lanes` contiguous chunks of one
//! [`fan_out_chunks`]: sources go to workers, the graph is not copied per
//! worker (the scaling of Lin's distributed fully-personalized PageRank).
//! One lane, the default, is a plain loop on the calling thread.

use crate::config::PprConfig;
use crate::counters::Counters;
use crate::fanout::{default_threads, fan_out_chunks};
use crate::invariant::restore_invariant_with_degree;
use crate::par::{parallel_local_push, parallel_local_push_opts, ParPushBuffers, PushOpts};
use crate::state::PprState;
use crate::variants::PushVariant;
use dppr_graph::{DynamicGraph, EdgeUpdate, VertexId};

/// One maintained vector with the push scratch that travels with it.
struct Session {
    state: PprState,
    bufs: ParPushBuffers,
}

impl Session {
    fn new(state: PprState) -> Self {
        Session { state, bufs: ParPushBuffers::new() }
    }
}

/// A bundle of PPR vectors for several sources over one dynamic graph.
pub struct MultiSourcePpr {
    sessions: Vec<Session>,
    alpha: f64,
    epsilon: f64,
    variant: PushVariant,
    counters: Counters,
    lanes: usize,
}

impl MultiSourcePpr {
    /// Creates one maintained vector per source, all with the same α and ε.
    pub fn new(sources: &[VertexId], alpha: f64, epsilon: f64, variant: PushVariant) -> Self {
        let sessions = sources
            .iter()
            .map(|&s| Session::new(PprState::new(PprConfig::new(s, alpha, epsilon))))
            .collect();
        MultiSourcePpr { sessions, alpha, epsilon, variant, counters: Counters::new(), lanes: 1 }
    }

    /// Rebuilds a bundle from previously maintained states (e.g. loaded
    /// from a `persist` checkpoint): each state is adopted verbatim —
    /// values, length, and config — so maintenance resumes exactly where
    /// the checkpointed process stopped. α and ε are taken from the first
    /// state; every state must share them (they parameterize
    /// [`MultiSourcePpr::add_source`] for sessions opened later).
    ///
    /// # Panics
    /// When `states` is empty or the states disagree on α/ε.
    pub fn from_states(states: Vec<PprState>, variant: PushVariant) -> Self {
        assert!(!states.is_empty(), "from_states needs at least one state");
        let alpha = states[0].config().alpha;
        let epsilon = states[0].config().epsilon;
        for st in &states {
            assert!(
                st.config().alpha == alpha && st.config().epsilon == epsilon,
                "all restored states must share alpha/epsilon"
            );
        }
        let sessions = states.into_iter().map(Session::new).collect();
        MultiSourcePpr { sessions, alpha, epsilon, variant, counters: Counters::new(), lanes: 1 }
    }

    /// Spreads [`MultiSourcePpr::apply_batch`]'s sessions over `lanes`
    /// contiguous chunks pushed side by side (0 means 1). The thread
    /// budget is split, not multiplied: each session's own push gets
    /// `max(1, default_threads() / lanes)` threads, so a lane count that
    /// uses up the budget makes every push a one-thread, bit-reproducible
    /// schedule. The maintained states do not depend on `lanes` as long as
    /// no push fans out (frontiers below `PushOpts::seq_threshold`).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Number of maintained sources.
    pub fn num_sources(&self) -> usize {
        self.sessions.len()
    }

    /// The state maintained for the `i`-th source.
    pub fn state(&self, i: usize) -> &PprState {
        &self.sessions[i].state
    }

    /// The source vertex of the `i`-th maintained vector.
    pub fn source(&self, i: usize) -> VertexId {
        self.state(i).config().source
    }

    /// All maintained sources, in index order.
    pub fn sources(&self) -> Vec<VertexId> {
        self.sessions.iter().map(|s| s.state.config().source).collect()
    }

    /// Cumulative counters across all sources.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Index of the maintained state for `source`, if any. Indices are
    /// not stable across [`MultiSourcePpr::remove_source`] (swap-remove),
    /// so callers that close sessions must re-resolve rather than cache.
    pub fn index_of(&self, source: VertexId) -> Option<usize> {
        self.sessions.iter().position(|s| s.state.config().source == source)
    }

    /// Starts maintaining a new source against an **already-populated**
    /// graph and returns its index: a [`PprState::cold_start`] state (which
    /// satisfies the invariant on any graph) is pushed to convergence from
    /// the unit residual at `source`. This is how the serving layer opens a
    /// session mid-stream without replaying the graph's edge history.
    pub fn add_source(&mut self, g: &DynamicGraph, source: VertexId) -> usize {
        let cfg = PprConfig::new(source, self.alpha, self.epsilon);
        let mut sess = Session::new(PprState::cold_start(cfg, g.num_vertices()));
        parallel_local_push(g, &sess.state, self.variant, &[source], &self.counters, &mut sess.bufs);
        self.sessions.push(sess);
        self.sessions.len() - 1
    }

    /// Stops maintaining the `i`-th source (swap-remove: the last index
    /// moves into `i`) and returns its source vertex.
    pub fn remove_source(&mut self, i: usize) -> VertexId {
        self.sessions.swap_remove(i).state.config().source
    }

    /// Applies a batch: mutates the graph once on the calling thread, then
    /// repairs and pushes every source's vector — the sessions split into
    /// `lanes` contiguous chunks, lane 0 on the caller and the others under
    /// one `thread::scope` for the batch. With one lane (the default) this
    /// is a plain loop in index order on the calling thread, each push on
    /// [`default_threads`] threads; only a push whose frontier reaches
    /// `PushOpts::seq_threshold` fans out. What a server passes to
    /// [`MultiSourcePpr::with_lanes`] when its configuration says 1 is a
    /// one-line change for a perf issue that claims `serve_write`
    /// `updates_per_s` for it.
    pub fn apply_batch(&mut self, g: &mut DynamicGraph, batch: &[EdgeUpdate]) -> usize {
        // Graph mutation happens once, recording each update's post-update
        // out-degree (the d_j(u) of Lemma 3) so the invariant repairs can
        // be replayed exactly against every source's state afterwards.
        let mut applied: Vec<(EdgeUpdate, usize)> = Vec::with_capacity(batch.len());
        for &upd in batch {
            if g.apply(upd) {
                applied.push((upd, g.out_degree(upd.src)));
            }
        }
        let seeds: Vec<VertexId> = applied.iter().map(|(upd, _)| upd.src).collect();
        let (g, n) = (&*g, g.num_vertices());
        let (variant, counters) = (self.variant, &self.counters);
        let threads = (default_threads() / self.lanes).max(1);
        let lane = |_first: usize, sessions: &mut [Session]| {
            for Session { state, bufs } in sessions {
                state.ensure_len(n);
                for &(upd, dout_after) in &applied {
                    restore_invariant_with_degree(state, upd.src, upd.dst, upd.op, dout_after);
                }
                counters.record_restores(applied.len() as u64);
                let opts = PushOpts::default();
                parallel_local_push_opts(g, state, variant, &seeds, counters, bufs, opts, threads);
            }
        };
        fan_out_chunks(&mut self.sessions, self.lanes, lane, |(), ()| ());
        applied.len()
    }

    /// The estimate of `v` w.r.t. the `i`-th source.
    pub fn estimate(&self, i: usize, v: VertexId) -> f64 {
        self.state(i).p(v)
    }

    /// Top-`k` vertices by estimate for the `i`-th source, descending
    /// (ties by ascending id). The workhorse of recommendation queries.
    pub fn top_k(&self, i: usize, k: usize) -> Vec<(VertexId, f64)> {
        top_k_of(&self.state(i).estimates(), k)
    }
}

/// Heap entry ordered so that the *worst* candidate is the heap maximum:
/// lower score is greater, ties broken by higher id greater (the inverse of
/// the answer order "descending score, ascending id").
struct ByWorst(VertexId, f64);

impl PartialEq for ByWorst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ByWorst {}
impl PartialOrd for ByWorst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByWorst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .1
            .partial_cmp(&self.1)
            .unwrap()
            .then(self.0.cmp(&other.0))
    }
}

/// Top-`k` entries of a score vector, descending (ties by ascending id).
///
/// Bounded max-k selection with a k-sized max-heap of the *worst* retained
/// candidate: O(k) extra memory and, on randomly ordered scores, expected
/// O(n + k log k) comparisons (once the heap is warm, a candidate beats the
/// k-th best with probability ~k/i, so heap pushes are rare). This runs on
/// every serving-layer query against an n-sized snapshot, where the
/// previous `select_nth_unstable_by` formulation's O(n) index allocation
/// per call was the dominant cost.
pub fn top_k_of(scores: &[f64], k: usize) -> Vec<(VertexId, f64)> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(k + 1);
    for (v, &p) in scores.iter().enumerate() {
        let cand = ByWorst(v as VertexId, p);
        if heap.len() < k {
            heap.push(cand);
        } else if cand < *heap.peek().unwrap() {
            // Strictly better than the current k-th best: replace it.
            heap.pop();
            heap.push(cand);
        }
    }
    // Ascending in `ByWorst` order = best first, the answer order.
    heap.into_sorted_vec()
        .into_iter()
        .map(|ByWorst(v, p)| (v, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::exact_ppr;
    use crate::invariant::max_invariant_violation;
    use dppr_graph::generators::erdos_renyi;

    #[test]
    fn maintains_every_source_accurately() {
        let sources = [0u32, 3, 7];
        let mut multi = MultiSourcePpr::new(&sources, 0.2, 1e-3, PushVariant::OPT);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(40, 400, 13);
        for chunk in edges.chunks(80) {
            let batch: Vec<EdgeUpdate> =
                chunk.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
            multi.apply_batch(&mut g, &batch);
        }
        for (i, &s) in sources.iter().enumerate() {
            let truth = exact_ppr(&g, s, 0.2, 1e-12);
            assert!(max_invariant_violation(&g, multi.state(i)) < 1e-9);
            for v in 0..g.num_vertices() as VertexId {
                assert!(
                    (multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9,
                    "source {s} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn deletions_propagate_to_all_sources() {
        let sources = [0u32, 1];
        let mut multi = MultiSourcePpr::new(&sources, 0.3, 1e-3, PushVariant::OPT);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(20, 150, 5);
        let ins: Vec<EdgeUpdate> =
            edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        multi.apply_batch(&mut g, &ins);
        let del: Vec<EdgeUpdate> = edges[..50]
            .iter()
            .map(|&(u, v)| EdgeUpdate::delete(u, v))
            .collect();
        let applied = multi.apply_batch(&mut g, &del);
        assert_eq!(applied, 50);
        for (i, &s) in sources.iter().enumerate() {
            let truth = exact_ppr(&g, s, 0.3, 1e-12);
            for v in 0..g.num_vertices() as VertexId {
                assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
            }
        }
    }

    #[test]
    fn top_k_ordering() {
        let scores = [0.1, 0.5, 0.3, 0.5, 0.0];
        let top = top_k_of(&scores, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (1, 0.5)); // tie broken by id
        assert_eq!(top[1], (3, 0.5));
        assert_eq!(top[2], (2, 0.3));
        assert_eq!(top_k_of(&scores, 0), vec![]);
        assert_eq!(top_k_of(&[], 5), vec![]);
    }

    /// The reference semantics `top_k_of` must preserve: full sort by
    /// (descending score, ascending id), truncated to k.
    fn top_k_by_full_sort(scores: &[f64], k: usize) -> Vec<(VertexId, f64)> {
        let mut all: Vec<(VertexId, f64)> = scores
            .iter()
            .enumerate()
            .map(|(v, &p)| (v as VertexId, p))
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn top_k_heap_matches_full_sort_on_random_scores() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for n in [1usize, 2, 17, 200, 1000] {
            // Coarse quantization forces plenty of exact ties, so the
            // (score, id) tie-break is genuinely exercised.
            let scores: Vec<f64> = (0..n)
                .map(|_| (rng.gen_range(0..20) as f64) / 20.0)
                .collect();
            for k in [0usize, 1, 2, 7, n / 2, n, n + 10] {
                assert_eq!(
                    top_k_of(&scores, k),
                    top_k_by_full_sort(&scores, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn add_source_on_populated_graph_is_epsilon_accurate() {
        let mut multi = MultiSourcePpr::new(&[0], 0.2, 1e-3, PushVariant::OPT);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(40, 400, 99);
        let ins: Vec<EdgeUpdate> =
            edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        multi.apply_batch(&mut g, &ins);
        // Open a session for vertex 7 against the live graph.
        let i = multi.add_source(&g, 7);
        assert_eq!(i, 1);
        assert_eq!(multi.source(i), 7);
        assert_eq!(multi.sources(), vec![0, 7]);
        assert!(max_invariant_violation(&g, multi.state(i)) < 1e-9);
        let truth = exact_ppr(&g, 7, 0.2, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
        }
        // And the late-opened source keeps tracking subsequent batches.
        let more: Vec<EdgeUpdate> = erdos_renyi(40, 80, 123)
            .into_iter()
            .map(|(u, v)| EdgeUpdate::insert(u, v))
            .collect();
        multi.apply_batch(&mut g, &more);
        let truth = exact_ppr(&g, 7, 0.2, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn from_states_resumes_bitwise_identically() {
        use crate::persist::state_fingerprint;
        // Run one bundle over two batches; rebuild a second bundle from
        // states cloned mid-way and replay the second batch: both ends
        // must agree bit-for-bit (the crash-recovery contract).
        let edges = erdos_renyi(40, 400, 21);
        let (first, second) = edges.split_at(300);
        let b1: Vec<EdgeUpdate> = first.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        let b2: Vec<EdgeUpdate> = second.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();

        let mut live = MultiSourcePpr::new(&[0, 5], 0.2, 1e-3, PushVariant::OPT);
        let mut g_live = DynamicGraph::new();
        live.apply_batch(&mut g_live, &b1);
        let snapshot: Vec<PprState> =
            (0..live.num_sources()).map(|i| live.state(i).clone_values()).collect();
        live.apply_batch(&mut g_live, &b2);

        let mut resumed = MultiSourcePpr::from_states(snapshot, PushVariant::OPT);
        assert_eq!(resumed.sources(), vec![0, 5]);
        let mut g_resumed = DynamicGraph::new();
        // Rebuild the graph as of the snapshot, then replay the tail.
        for &(u, v) in first {
            g_resumed.insert_edge(u, v);
        }
        resumed.apply_batch(&mut g_resumed, &b2);
        for i in 0..2 {
            assert_eq!(
                state_fingerprint(resumed.state(i)),
                state_fingerprint(live.state(i)),
                "source index {i}"
            );
        }
    }

    fn fingerprints(m: &MultiSourcePpr) -> Vec<(VertexId, u64)> {
        use crate::persist::state_fingerprint;
        (0..m.num_sources()).map(|i| (m.source(i), state_fingerprint(m.state(i)))).collect()
    }

    /// Five sources over inserts then deletes, with a session opened and
    /// one closed between batches: the maintained states and the work
    /// counted do not depend on how many lanes pushed them.
    #[test]
    fn states_and_counters_do_not_depend_on_the_lane_count() {
        let edges = erdos_renyi(60, 900, 77);
        let mut batches: Vec<Vec<EdgeUpdate>> = edges
            .chunks(150)
            .map(|c| c.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect())
            .collect();
        batches.push(edges[..200].iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect());
        batches.push(edges[300..450].iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect());
        let run = |lanes: usize| {
            let mut multi = MultiSourcePpr::new(&[0, 3, 7, 11, 20], 0.2, 1e-4, PushVariant::OPT)
                .with_lanes(lanes);
            let mut g = DynamicGraph::new();
            for (i, batch) in batches.iter().enumerate() {
                multi.apply_batch(&mut g, batch);
                match i {
                    2 => assert_eq!(multi.add_source(&g, 31), 5),
                    4 => assert_eq!(multi.remove_source(1), 3),
                    _ => {}
                }
            }
            assert_eq!(multi.sources(), vec![0, 31, 7, 11, 20]);
            let c = multi.counters().snapshot();
            (fingerprints(&multi), c.restore_ops, c.pushes)
        };
        let one = run(1);
        assert!(one.2 > 0, "the stream pushed nothing");
        for lanes in [2, 3, 7] {
            assert_eq!(run(lanes), one, "{lanes} lanes");
        }
    }

    /// Lanes that use up the thread budget leave every push one thread, so
    /// the bundle is bit-reproducible even where a push would fan out.
    #[test]
    fn a_full_lane_budget_is_deterministic_past_the_fan_out_threshold() {
        use crate::fanout::{default_threads, FAN_OUT_MIN};
        let [load, slide] = crate::engine::tests::wide_stream();
        let run = || {
            let mut multi = MultiSourcePpr::new(&[0, 1], 0.2, 1e-6, PushVariant::OPT)
                .with_lanes(default_threads());
            let mut g = DynamicGraph::new();
            multi.apply_batch(&mut g, &load);
            multi.apply_batch(&mut g, &slide);
            let c = multi.counters().snapshot();
            assert!(c.max_frontier >= FAN_OUT_MIN as u64, "max frontier {}", c.max_frontier);
            // Lanes share no residual, and no push had a second thread.
            assert_eq!(c.cas_retries, 0);
            fingerprints(&multi)
        };
        assert_eq!(run(), run());
    }

    /// A push that panics — here on its convergence `debug_assert`, tripped
    /// by a poisoned residual the batch's seeds never reach — surfaces on
    /// the caller whether its lane is the caller's own or a spawned one.
    #[cfg(debug_assertions)]
    #[test]
    fn a_panic_inside_a_lane_resurfaces_on_the_caller() {
        let ins: Vec<EdgeUpdate> =
            erdos_renyi(20, 150, 5).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        for poisoned in [0, 3] {
            let mut multi =
                MultiSourcePpr::new(&[0, 1, 2, 3], 0.2, 1e-3, PushVariant::OPT).with_lanes(2);
            let mut g = DynamicGraph::new();
            multi.apply_batch(&mut g, &ins);
            multi.state(poisoned).set_r(19, f64::INFINITY);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                multi.apply_batch(&mut g, &[EdgeUpdate::insert(25, 26)])
            }));
            assert!(r.is_err(), "panic in session {poisoned}'s lane was swallowed");
        }
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn from_states_rejects_empty() {
        let _ = MultiSourcePpr::from_states(Vec::new(), PushVariant::OPT);
    }

    #[test]
    fn remove_source_swaps_last_into_slot() {
        let mut multi = MultiSourcePpr::new(&[0, 3, 7], 0.2, 1e-3, PushVariant::OPT);
        assert_eq!(multi.remove_source(0), 0);
        assert_eq!(multi.num_sources(), 2);
        assert_eq!(multi.sources(), vec![7, 3]); // 7 swapped into index 0
        // The survivors still update correctly.
        let mut g = DynamicGraph::new();
        let ins: Vec<EdgeUpdate> = erdos_renyi(20, 150, 5)
            .into_iter()
            .map(|(u, v)| EdgeUpdate::insert(u, v))
            .collect();
        multi.apply_batch(&mut g, &ins);
        for i in 0..multi.num_sources() {
            let s = multi.source(i);
            let truth = exact_ppr(&g, s, 0.2, 1e-12);
            for v in 0..g.num_vertices() as VertexId {
                assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
            }
        }
    }
}
