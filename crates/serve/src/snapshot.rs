//! The immutable per-session query snapshot.
//!
//! A snapshot never changes after the write loop publishes it, so its rank
//! order (best estimate first, ties by ascending id) is computed at most a
//! few times in its life, not once per query. The first top-k or
//! threshold query it serves ranks its best `FIRST_PREFIX` (64) vertices
//! into a private memo of ids. A later query that needs more rebuilds the
//! memo at twice the length, up to every vertex. Every other query is
//! answered from the memo in time proportional to its answer, with each
//! score read back from the estimates: a query-cache miss costs O(k), not
//! a |V| scan. Answers are bit-identical to a scan's, since a shorter
//! prefix of the order is always a prefix of a longer one. Publishing
//! builds no memo, so the write path pays nothing for it.

use dppr_core::queries::{
    above_threshold_ranked, bounded_score, compare_scores, rank_prefix, top_k_ranked, BoundedScore,
    ThresholdAnswer, TopKAnswer,
};
use dppr_core::PprState;
use dppr_graph::VertexId;
use std::sync::RwLock;

/// The length of a snapshot's first ranked prefix; each rebuild doubles it.
const FIRST_PREFIX: usize = 64;

/// One source's frozen estimate vector, tagged with the publication epoch.
///
/// A snapshot is built by the write loop *after* a batch has converged, so
/// its estimates are ε-accurate for the graph as of that epoch, and it is
/// never mutated afterwards — readers answer every query kind from it
/// without further coordination. Only its rank memo grows, behind a lock
/// a query holds while it reads the memo or swaps in a longer one.
#[derive(Debug)]
pub struct QuerySnapshot {
    source: VertexId,
    epoch: u64,
    alpha: f64,
    epsilon: f64,
    estimates: Vec<f64>,
    /// A [`rank_prefix`] of `estimates`: empty until the first top-k or
    /// threshold query, never longer than `estimates`.
    ranked: RwLock<Vec<VertexId>>,
}

impl QuerySnapshot {
    /// A snapshot from raw parts (tests / custom pipelines).
    pub fn new(
        source: VertexId,
        epoch: u64,
        alpha: f64,
        epsilon: f64,
        estimates: Vec<f64>,
    ) -> Self {
        QuerySnapshot { source, epoch, alpha, epsilon, estimates, ranked: RwLock::default() }
    }

    /// Freezes the current estimates of a maintained state. Called by the
    /// write loop at the publication point (post-batch, converged).
    pub fn from_state(state: &PprState, epoch: u64) -> Self {
        let cfg = state.config();
        QuerySnapshot {
            source: cfg.source,
            epoch,
            alpha: cfg.alpha,
            epsilon: cfg.epsilon,
            estimates: state.estimates(),
            ranked: RwLock::default(),
        }
    }

    /// The source vertex this snapshot answers for.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The epoch at which this snapshot was published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The teleport probability of the maintained vector.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The accuracy guarantee: every estimate is within ε of the true PPR
    /// value for the epoch's graph.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// Whether the snapshot covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }

    /// The frozen estimate vector.
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// The ε-interval around one vertex's estimate.
    pub fn score(&self, v: VertexId) -> BoundedScore {
        bounded_score(&self.estimates, self.epsilon, v)
    }

    /// Top-`k` with interval bounds and a set-certainty verdict, from the
    /// first `k + 1` ranked vertices.
    pub fn top_k(&self, k: usize) -> TopKAnswer {
        let (scores, eps) = (&self.estimates[..], self.epsilon);
        let query = |prefix: &[VertexId]| Some(top_k_ranked(scores, prefix, eps, k));
        self.answer_ranked(k.saturating_add(1), query)
    }

    /// Vertices whose true value may reach `delta`, split by certainty:
    /// the ranked vertices up to the first one that cannot reach it.
    pub fn above_threshold(&self, delta: f64) -> ThresholdAnswer {
        let (scores, eps) = (&self.estimates[..], self.epsilon);
        self.answer_ranked(0, |prefix| above_threshold_ranked(scores, prefix, eps, delta))
    }

    /// Runs `query` on a ranked prefix of at least `need` ids (clamped to
    /// |V|), extending the memo until `query` answers. A rebuild ranks
    /// outside the lock and keeps whichever of two racing builds is longer.
    fn answer_ranked<R>(&self, need: usize, query: impl Fn(&[VertexId]) -> Option<R>) -> R {
        let n = self.estimates.len();
        let mut need = need.min(n);
        {
            let memo = self.ranked.read().expect("rank memo lock poisoned");
            if memo.len() >= need {
                if let Some(answer) = query(&memo) {
                    return answer;
                }
                need = memo.len() + 1;
            }
        }
        loop {
            let len = need.max(FIRST_PREFIX).next_power_of_two().min(n);
            let prefix = rank_prefix(&self.estimates, len);
            let answer = query(&prefix);
            let mut memo = self.ranked.write().expect("rank memo lock poisoned");
            if prefix.len() > memo.len() {
                *memo = prefix;
            }
            drop(memo);
            match answer {
                Some(answer) => return answer,
                None => need = len + 1,
            }
        }
    }

    /// ε-aware comparison of two vertices.
    pub fn compare(&self, a: VertexId, b: VertexId) -> Option<std::cmp::Ordering> {
        compare_scores(&self.estimates, self.epsilon, a, b)
    }

    /// Fingerprint of the snapshot's source, epoch and exact estimates:
    /// each f64 bit pattern is mixed with its position, so reordering the
    /// vector changes it. The stress suite compares reader-side
    /// fingerprints against writer-side ones to prove no torn state is
    /// ever observed.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = self.source as u64 ^ (self.epoch.rotate_left(32));
        for (i, &p) in self.estimates.iter().enumerate() {
            let mut z = p.to_bits() ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            h = h.wrapping_add(z ^ (z >> 31));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_core::{queries, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant};
    use dppr_graph::generators::erdos_renyi;
    use dppr_graph::{DynamicGraph, EdgeUpdate};

    fn converged_engine() -> (DynamicGraph, ParallelEngine) {
        let mut g = DynamicGraph::new();
        let mut e = ParallelEngine::new(PprConfig::new(0, 0.2, 1e-3), PushVariant::OPT);
        let batch: Vec<EdgeUpdate> =
            erdos_renyi(50, 500, 9).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        e.apply_batch(&mut g, &batch);
        (g, e)
    }

    #[test]
    fn snapshot_answers_match_live_state_queries() {
        let (_, e) = converged_engine();
        let snap = QuerySnapshot::from_state(e.state(), 42);
        assert_eq!(snap.epoch(), 42);
        assert_eq!(snap.source(), 0);
        assert_eq!(snap.len(), e.estimates().len());
        // The state forms read the vector in place, the snapshot's run on
        // its copy: every k around the vector's length and every δ from
        // "all" to "none" must give the same answer.
        let n = snap.len();
        for k in [0, 1, 2, 5, 16, 17, n - 1, n, n + 1, usize::MAX] {
            assert_eq!(snap.top_k(k), queries::top_k(e.state(), k), "k = {k}");
        }
        for delta in [-1.0, 0.0, 1e-3, 2e-3, 0.01, 0.05, 0.2, 1.0, 2.0] {
            assert_eq!(
                snap.above_threshold(delta),
                queries::above_threshold(e.state(), delta),
                "delta = {delta}"
            );
        }
        assert_eq!(snap.compare(0, 1), queries::compare(e.state(), 0, 1));
        let b = snap.score(3);
        assert_eq!(b.estimate, e.estimate(3));
        assert!(b.lo <= b.estimate && b.estimate <= b.hi);
        // Out-of-range vertex reads as an unmaterialized zero.
        assert_eq!(snap.score(10_000).estimate, 0.0);
    }

    /// The memo retains ids only, and never more than one per vertex,
    /// however much a query asks for: after `k = usize::MAX` or `δ ≤ 0` it
    /// holds |V| ids.
    #[test]
    fn ranked_prefix_holds_at_most_every_vertex() {
        let memo = |s: &QuerySnapshot| {
            let ranked = s.ranked.read().unwrap();
            (ranked.len(), ranked.capacity())
        };
        let scores: Vec<f64> = (0..300).map(|v| (v % 7) as f64 / 10.0).collect();
        let n = scores.len();
        let snap = QuerySnapshot::new(0, 1, 0.15, 1e-3, scores.clone());
        assert_eq!(memo(&snap).0, 0, "a new snapshot ranks nothing");
        snap.top_k(5);
        assert_eq!(memo(&snap).0, FIRST_PREFIX);
        snap.top_k(FIRST_PREFIX);
        assert_eq!(memo(&snap).0, 2 * FIRST_PREFIX, "k + 1 ids are needed");
        snap.top_k(usize::MAX);
        assert!(memo(&snap).0 == n && memo(&snap).1 <= n, "{:?}", memo(&snap));
        snap.above_threshold(0.0);
        assert!(memo(&snap).0 == n && memo(&snap).1 <= n, "{:?}", memo(&snap));

        for delta in [0.0, -1.0] {
            let fresh = QuerySnapshot::new(0, 1, 0.15, 1e-3, scores.clone());
            let all = fresh.above_threshold(delta);
            assert_eq!(all.certain.len() + all.possible.len(), n);
            assert!(memo(&fresh).0 == n && memo(&fresh).1 <= n, "{:?}", memo(&fresh));
        }
        let empty = QuerySnapshot::new(0, 1, 0.15, 1e-3, Vec::new());
        assert!(empty.top_k(usize::MAX).ranking.is_empty());
        assert_eq!(memo(&empty), (0, 0));
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = QuerySnapshot::new(0, 1, 0.15, 1e-3, vec![0.1, 0.2, 0.3]);
        let same = QuerySnapshot::new(0, 1, 0.15, 1e-3, vec![0.1, 0.2, 0.3]);
        let reordered = QuerySnapshot::new(0, 1, 0.15, 1e-3, vec![0.2, 0.1, 0.3]);
        let other_epoch = QuerySnapshot::new(0, 2, 0.15, 1e-3, vec![0.1, 0.2, 0.3]);
        assert_eq!(a.fingerprint(), same.fingerprint());
        assert_ne!(a.fingerprint(), reordered.fingerprint());
        assert_ne!(a.fingerprint(), other_epoch.fingerprint());
    }
}
