//! ε-aware queries over a maintained PPR state.
//!
//! The engines guarantee `|π(v) − Ps(v)| ≤ ε` at convergence, so every
//! estimate carries the interval `[Ps(v) − ε, Ps(v) + ε]`. The queries
//! here — top-k and threshold selection, the primitives behind the
//! recommendation and search applications the paper motivates — expose
//! that uncertainty instead of hiding it: results are split into vertices
//! that are *certainly* in the answer and those that are only *possibly*
//! in it.
//!
//! Each query exists in two forms: over a live [`PprState`] (borrowing the
//! engine) and over a plain `(&[f64], ε)` score slice. The slice forms are
//! what `dppr-serve` runs against its immutable epoch snapshots, where the
//! engine itself is not reachable from reader threads.

use crate::multi::top_k_of;
use crate::state::PprState;
use dppr_graph::VertexId;

/// An estimate with its ε-interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedScore {
    /// The vertex.
    pub vertex: VertexId,
    /// The point estimate `Ps(v)`.
    pub estimate: f64,
    /// Guaranteed lower bound `Ps(v) − ε` (clamped at 0).
    pub lo: f64,
    /// Guaranteed upper bound `Ps(v) + ε` (clamped at 1).
    pub hi: f64,
}

/// Result of a threshold query.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdAnswer {
    /// Vertices with `lo ≥ δ`: in the answer under any consistent truth.
    pub certain: Vec<BoundedScore>,
    /// Vertices with `lo < δ ≤ hi`: membership depends on the true value.
    pub possible: Vec<BoundedScore>,
}

/// Result of a top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKAnswer {
    /// The top-k by point estimate, best first.
    pub ranking: Vec<BoundedScore>,
    /// Whether the k-th ranked vertex is separated from the (k+1)-th by
    /// more than `2ε` — i.e. the set (not necessarily the order) is exact.
    pub set_is_certain: bool,
}

/// The ε-interval around one score. Reads 0 for out-of-range vertices
/// (they are unmaterialized, i.e. their estimate is exactly 0).
pub fn bounded_score(scores: &[f64], eps: f64, v: VertexId) -> BoundedScore {
    let p = scores.get(v as usize).copied().unwrap_or(0.0);
    BoundedScore {
        vertex: v,
        estimate: p,
        lo: (p - eps).max(0.0),
        hi: (p + eps).min(1.0),
    }
}

fn bounded(state: &PprState, v: VertexId) -> BoundedScore {
    let eps = state.config().epsilon;
    let p = state.p(v);
    BoundedScore {
        vertex: v,
        estimate: p,
        lo: (p - eps).max(0.0),
        hi: (p + eps).min(1.0),
    }
}

/// [`top_k`] over a plain score slice.
pub fn top_k_scores(scores: &[f64], eps: f64, k: usize) -> TopKAnswer {
    // One extra entry decides set certainty. `k` arrives straight from a
    // query string, so the add saturates (`top_k_of` clamps to the slice).
    let extended = top_k_of(scores, k.saturating_add(1));
    let ranking: Vec<BoundedScore> = extended
        .iter()
        .take(k)
        .map(|&(v, _)| bounded_score(scores, eps, v))
        .collect();
    let set_is_certain = match (ranking.last(), extended.get(k)) {
        (Some(last), Some(&(_, runner_up))) => last.estimate - runner_up > 2.0 * eps,
        // Fewer than k+1 vertices exist: the set is trivially exact.
        _ => true,
    };
    TopKAnswer { ranking, set_is_certain }
}

/// Top-`k` vertices by estimate, with interval bounds and a certainty
/// verdict for the answer *set*.
pub fn top_k(state: &PprState, k: usize) -> TopKAnswer {
    top_k_scores(&state.estimates(), state.config().epsilon, k)
}

/// [`above_threshold`] over a plain score slice.
pub fn above_threshold_scores(scores: &[f64], eps: f64, delta: f64) -> ThresholdAnswer {
    let mut certain = Vec::new();
    let mut possible = Vec::new();
    for v in 0..scores.len() as VertexId {
        let b = bounded_score(scores, eps, v);
        if b.lo >= delta {
            certain.push(b);
        } else if b.hi >= delta {
            possible.push(b);
        }
    }
    let by_est = |a: &BoundedScore, b: &BoundedScore| {
        b.estimate
            .partial_cmp(&a.estimate)
            .unwrap()
            .then(a.vertex.cmp(&b.vertex))
    };
    certain.sort_by(by_est);
    possible.sort_by(by_est);
    ThresholdAnswer { certain, possible }
}

/// All vertices whose true PPR value may reach `delta`, split by
/// certainty. Both lists are sorted by descending estimate.
pub fn above_threshold(state: &PprState, delta: f64) -> ThresholdAnswer {
    above_threshold_scores(&state.estimates(), state.config().epsilon, delta)
}

/// [`compare`] over a plain score slice.
pub fn compare_scores(
    scores: &[f64],
    eps: f64,
    a: VertexId,
    b: VertexId,
) -> Option<std::cmp::Ordering> {
    let ba = bounded_score(scores, eps, a);
    let bb = bounded_score(scores, eps, b);
    if ba.lo > bb.hi {
        Some(std::cmp::Ordering::Greater)
    } else if bb.lo > ba.hi {
        Some(std::cmp::Ordering::Less)
    } else if a == b {
        Some(std::cmp::Ordering::Equal)
    } else {
        None
    }
}

/// Compares two vertices' true PPR values as far as ε allows:
/// `Some(ordering)` when the intervals are disjoint, `None` when the
/// comparison is undecidable at this ε. (Reads the two estimates directly
/// rather than copying the vector like the slice form would need.)
pub fn compare(state: &PprState, a: VertexId, b: VertexId) -> Option<std::cmp::Ordering> {
    let ba = bounded(state, a);
    let bb = bounded(state, b);
    if ba.lo > bb.hi {
        Some(std::cmp::Ordering::Greater)
    } else if bb.lo > ba.hi {
        Some(std::cmp::Ordering::Less)
    } else if a == b {
        Some(std::cmp::Ordering::Equal)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PprConfig;

    fn state_with(ps: &[f64], eps: f64) -> PprState {
        let mut st = PprState::new(PprConfig::new(0, 0.15, eps));
        st.ensure_len(ps.len());
        for (v, &p) in ps.iter().enumerate() {
            st.set_p(v as u32, p);
        }
        st
    }

    #[test]
    fn top_k_with_clear_separation() {
        let st = state_with(&[0.5, 0.3, 0.1, 0.05], 0.01);
        let ans = top_k(&st, 2);
        assert_eq!(ans.ranking.len(), 2);
        assert_eq!(ans.ranking[0].vertex, 0);
        assert_eq!(ans.ranking[1].vertex, 1);
        assert!(ans.set_is_certain); // 0.3 − 0.1 = 0.2 > 2ε
        assert!((ans.ranking[0].lo - 0.49).abs() < 1e-12);
        assert!((ans.ranking[0].hi - 0.51).abs() < 1e-12);
    }

    #[test]
    fn top_k_with_ambiguous_boundary() {
        let st = state_with(&[0.5, 0.105, 0.1], 0.01);
        let ans = top_k(&st, 2);
        assert!(!ans.set_is_certain); // 0.105 − 0.1 < 2ε
    }

    #[test]
    fn top_k_larger_than_universe() {
        let st = state_with(&[0.5, 0.3], 0.01);
        for k in [10, usize::MAX] {
            let ans = top_k(&st, k);
            assert_eq!(ans.ranking.len(), 2, "k = {k}");
            assert!(ans.set_is_certain);
        }
    }

    #[test]
    fn threshold_split() {
        let st = state_with(&[0.5, 0.11, 0.095, 0.01], 0.01);
        let ans = above_threshold(&st, 0.1);
        let certain: Vec<u32> = ans.certain.iter().map(|b| b.vertex).collect();
        let possible: Vec<u32> = ans.possible.iter().map(|b| b.vertex).collect();
        assert_eq!(certain, vec![0, 1]); // 0.11 − 0.01 = 0.10 ≥ δ
        assert_eq!(possible, vec![2]); // 0.095 + 0.01 ≥ δ but 0.085 < δ
    }

    #[test]
    fn compare_decidability() {
        let st = state_with(&[0.5, 0.1, 0.095], 0.01);
        assert_eq!(compare(&st, 0, 1), Some(std::cmp::Ordering::Greater));
        assert_eq!(compare(&st, 1, 0), Some(std::cmp::Ordering::Less));
        assert_eq!(compare(&st, 1, 2), None); // overlapping intervals
        assert_eq!(compare(&st, 1, 1), Some(std::cmp::Ordering::Equal));
    }

    #[test]
    fn bounds_are_clamped() {
        let st = state_with(&[0.005, 0.999], 0.01);
        let ans = top_k(&st, 2);
        assert_eq!(ans.ranking[0].hi, 1.0);
        assert_eq!(ans.ranking[1].lo, 0.0);
    }
}
