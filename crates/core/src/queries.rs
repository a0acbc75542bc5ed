//! ε-aware queries over a maintained PPR state.
//!
//! The engines guarantee `|π(v) − Ps(v)| ≤ ε` at convergence, so every
//! estimate carries the interval `[Ps(v) − ε, Ps(v) + ε]`. The queries
//! here — top-k and threshold selection, the primitives behind the
//! recommendation and search applications the paper motivates — expose
//! that uncertainty instead of hiding it: results are split into vertices
//! that are *certainly* in the answer and those that are only *possibly*
//! in it, and two vertices compare only when their intervals are disjoint
//! ([`interval_order`]).
//!
//! Every ranked answer lists vertices in one order, best estimate first
//! and ties by ascending id. Each query is written once, generic over how
//! a score is read, and exists in two forms: over a live [`PprState`]
//! (borrowing the engine, each estimate an atomic load) and over a plain
//! `(&[f64], ε)` score slice. The state forms read the estimate vector in
//! place — no |V| copy per query — and answer exactly what the slice forms
//! answer on a copy. Both scan the vector once and gate each score with
//! one compare before any per-vertex work: top-k against the k-th best so
//! far (the selection kernel behind [`top_k_of`]), threshold on
//! `p + ε ≥ δ`.
//!
//! An immutable vector can also be ranked once and asked many times.
//! [`rank_prefix`] lists its best `m` vertices in the answer order. That
//! order is total, so a shorter prefix is always a prefix of a longer one,
//! and both query lists are subsequences of it. The `_ranked` forms answer
//! from such a prefix in time proportional to the answer, not to |V|.
//! `dppr-serve` runs them against its epoch snapshots, each of which ranks
//! itself on first use.

use crate::atomic::AtomicF64;
use crate::state::PprState;
use dppr_graph::VertexId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// The answer order: `Less` when `(v, p)` ranks before `(w, q)`, i.e. it
/// has the higher estimate, or the same estimate and the lower id.
fn rank_order((v, p): (VertexId, f64), (w, q): (VertexId, f64)) -> Ordering {
    q.partial_cmp(&p).unwrap().then(v.cmp(&w))
}

/// A candidate in the selection heap, ordered by [`rank_order`]: the
/// heap's maximum is the worst candidate it holds.
struct Ranked(VertexId, f64);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_order((self.0, self.1), (other.0, other.1))
    }
}

/// Width of the chunks [`scan_gated`] tests at once.
const CHUNK: usize = 16;

/// Calls `take(acc, v, p)`, in ascending `v`, for every score `p =
/// load(&scores[i])` (vertex `v` = `base` + `i`) that passes `pass(acc, p)`.
///
/// The scores are tested [`CHUNK`] at a time with a branch-free fold: over
/// a slice of `f64` it vectorizes, and over a maintained vector's atomics,
/// which do not, it still leaves one branch per chunk instead of one per
/// score (a per-score loop's speed swung by a quarter with where the linker
/// placed it). Only a chunk holding a passing score is walked one score at
/// a time, with `pass` re-evaluated per score since `take` may move what it
/// tests.
fn scan_gated<T, A>(
    scores: &[T],
    base: usize,
    acc: &mut A,
    load: impl Fn(&T) -> f64,
    pass: impl Fn(&A, f64) -> bool,
    mut take: impl FnMut(&mut A, usize, f64),
) {
    let mut chunks = scores.chunks_exact(CHUNK);
    let mut v = base;
    for chunk in chunks.by_ref() {
        if chunk.iter().fold(false, |any, p| any | pass(acc, load(p))) {
            for (i, p) in chunk.iter().enumerate() {
                let p = load(p);
                if pass(acc, p) {
                    take(acc, v + i, p);
                }
            }
        }
        v += CHUNK;
    }
    for (i, p) in chunks.remainder().iter().enumerate() {
        let p = load(p);
        if pass(acc, p) {
            take(acc, v + i, p);
        }
    }
}

/// The selection kernel's state: a k-heap of the best candidates seen so
/// far and `floor`, the k-th best score.
///
/// Vertices are offered in ascending id order, so a later vertex never wins
/// a tie, and "beats the k-th best" in [`rank_order`] is exactly
/// `p > floor`. The gate is that one compare against a plain `f64`; the
/// heap update behind it is kept out of line so the gate stays a load, a
/// compare and a branch in the scan loop.
struct Selection {
    heap: BinaryHeap<Ranked>,
    floor: f64,
}

impl Selection {
    /// Fills the heap with the first `k` vertices (ids `0..k`); every one
    /// enters, whatever its score.
    #[inline(never)]
    fn seeded(first: impl Iterator<Item = f64>) -> Self {
        let heap: BinaryHeap<Ranked> =
            first.enumerate().map(|(v, p)| Ranked(v as VertexId, p)).collect();
        let floor = heap.peek().expect("seeded with k > 0 scores").1;
        Selection { heap, floor }
    }

    /// Replaces the k-th best with `(v, p)`, which beats it, and moves the
    /// floor.
    #[inline(never)]
    fn admit(&mut self, v: usize, p: f64) {
        let full = "admit runs on a seeded, non-empty heap";
        *self.heap.peek_mut().expect(full) = Ranked(v as VertexId, p);
        self.floor = self.heap.peek().expect(full).1;
    }
}

/// The selection kernel every top-k runs: the best `k` entries of `scores`
/// (each read through `load`), in the answer order.
///
/// One pass, O(k) extra memory, one compare per score; heap work only for
/// candidates. The first `k` scores fill the heap; the rest go through
/// [`scan_gated`] against the floor.
pub(crate) fn select<T>(scores: &[T], load: impl Fn(&T) -> f64, k: usize) -> Vec<(VertexId, f64)> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut sel = Selection::seeded(scores[..k].iter().map(&load));
    scan_gated(&scores[k..], k, &mut sel, load, |sel, p| p > sel.floor, Selection::admit);
    // Ascending in `rank_order` = best first.
    sel.heap.into_sorted_vec().into_iter().map(|Ranked(v, p)| (v, p)).collect()
}

/// Top-`k` entries of a score vector in the answer order (descending
/// score, ties by ascending id). This runs on every serving-layer snapshot
/// ranking, the audit and the CLI.
pub fn top_k_of(scores: &[f64], k: usize) -> Vec<(VertexId, f64)> {
    select(scores, |&p| p, k)
}

/// The ε-interval around estimate `p` of vertex `v`.
fn interval(v: VertexId, p: f64, eps: f64) -> BoundedScore {
    BoundedScore { vertex: v, estimate: p, lo: (p - eps).max(0.0), hi: (p + eps).min(1.0) }
}

/// The ε-interval around one score. Reads 0 for out-of-range vertices
/// (they are unmaterialized, i.e. their estimate is exactly 0).
pub fn bounded_score(scores: &[f64], eps: f64, v: VertexId) -> BoundedScore {
    interval(v, scores.get(v as usize).copied().unwrap_or(0.0), eps)
}

/// The answer from the top `k + 1` entries, best first: the first `k` are
/// the ranking, the extra one decides set certainty.
fn ranked(extended: &[(VertexId, f64)], eps: f64, k: usize) -> TopKAnswer {
    let ranking: Vec<BoundedScore> =
        extended.iter().take(k).map(|&(v, p)| interval(v, p, eps)).collect();
    let set_is_certain = match (ranking.last(), extended.get(k)) {
        (Some(last), Some(&(_, runner_up))) => last.estimate - runner_up > 2.0 * eps,
        // Fewer than k+1 vertices exist: the set is trivially exact.
        _ => true,
    };
    TopKAnswer { ranking, set_is_certain }
}

/// The best `m` vertices of `scores` (all of them if `m ≥ |V|`), best
/// estimate first, ties by ascending id: the ids of [`top_k_of`].
pub fn rank_prefix(scores: &[f64], m: usize) -> Vec<VertexId> {
    top_k_of(scores, m).into_iter().map(|(v, _)| v).collect()
}

/// [`top_k`] from `prefix`, a [`rank_prefix`] of `scores` that holds at
/// least `min(k + 1, |V|)` ids; each score is read back from `scores`.
pub fn top_k_ranked(scores: &[f64], prefix: &[VertexId], eps: f64, k: usize) -> TopKAnswer {
    debug_assert!(prefix.len() > k || prefix.len() == scores.len(), "prefix too short");
    let extended: Vec<(VertexId, f64)> =
        prefix.iter().take(k.saturating_add(1)).map(|&v| (v, scores[v as usize])).collect();
    ranked(&extended, eps, k)
}

/// [`top_k`] over a plain score slice.
pub fn top_k_scores(scores: &[f64], eps: f64, k: usize) -> TopKAnswer {
    // `k` arrives straight from a query string, so the add saturates
    // (`rank_prefix` clamps to the slice).
    top_k_ranked(scores, &rank_prefix(scores, k.saturating_add(1)), eps, k)
}

/// Top-`k` vertices by estimate, with interval bounds and a certainty
/// verdict for the answer *set*.
pub fn top_k(state: &PprState, k: usize) -> TopKAnswer {
    let extended = select(state.p_atomics(), AtomicF64::load, k.saturating_add(1));
    ranked(&extended, state.config().epsilon, k)
}

/// Threshold selection's accumulator: each vertex that passes the
/// `p + ε ≥ δ` gate (a superset of `hi ≥ δ`) is classified here.
struct Split {
    eps: f64,
    delta: f64,
    answer: ThresholdAnswer,
}

impl Split {
    fn new(eps: f64, delta: f64) -> Self {
        let answer = ThresholdAnswer { certain: Vec::new(), possible: Vec::new() };
        Split { eps, delta, answer }
    }

    /// Whether `p` may reach δ; only such vertices are classified.
    fn passes(&self, p: f64) -> bool {
        p + self.eps >= self.delta
    }

    /// Files vertex `v` as certain, possible or neither; out of line, so
    /// the gate in the scan stays a compare and a branch.
    #[inline(never)]
    fn classify(&mut self, v: usize, p: f64) {
        let b = interval(v as VertexId, p, self.eps);
        if b.lo >= self.delta {
            self.answer.certain.push(b);
        } else if b.hi >= self.delta {
            self.answer.possible.push(b);
        }
    }
}

/// The one threshold scan: every score (read through `load`) that may
/// reach δ, split by certainty, both lists in the answer order.
fn threshold<T>(scores: &[T], load: impl Fn(&T) -> f64, eps: f64, delta: f64) -> ThresholdAnswer {
    let mut split = Split::new(eps, delta);
    scan_gated(scores, 0, &mut split, load, Split::passes, Split::classify);
    let by_rank = |a: &BoundedScore, b: &BoundedScore| {
        rank_order((a.vertex, a.estimate), (b.vertex, b.estimate))
    };
    split.answer.certain.sort_by(by_rank);
    split.answer.possible.sort_by(by_rank);
    split.answer
}

/// [`above_threshold`] over a plain score slice.
pub fn above_threshold_scores(scores: &[f64], eps: f64, delta: f64) -> ThresholdAnswer {
    threshold(scores, |&p| p, eps, delta)
}

/// [`above_threshold`] from `prefix`, a [`rank_prefix`] of `scores`.
///
/// `p + ε ≥ δ` holds on a leading run of the rank order, so the walk stops
/// at the first score that fails it, and both lists come out sorted. The
/// answer is `None` when the prefix ends inside the run without covering
/// every vertex: the caller must extend it and ask again.
pub fn above_threshold_ranked(
    scores: &[f64],
    prefix: &[VertexId],
    eps: f64,
    delta: f64,
) -> Option<ThresholdAnswer> {
    let mut split = Split::new(eps, delta);
    for &v in prefix {
        let p = scores[v as usize];
        if !split.passes(p) {
            return Some(split.answer);
        }
        split.classify(v as usize, p);
    }
    (prefix.len() == scores.len()).then_some(split.answer)
}

/// All vertices whose true PPR value may reach `delta`, split by
/// certainty. Both lists are sorted by descending estimate.
pub fn above_threshold(state: &PprState, delta: f64) -> ThresholdAnswer {
    threshold(state.p_atomics(), AtomicF64::load, state.config().epsilon, delta)
}

/// How the true values behind two ε-intervals compare as far as the
/// intervals tell: `Some(ordering)` when they are disjoint, `None` when
/// they overlap.
pub fn interval_order(a: &BoundedScore, b: &BoundedScore) -> Option<Ordering> {
    if a.lo > b.hi {
        Some(Ordering::Greater)
    } else if b.lo > a.hi {
        Some(Ordering::Less)
    } else {
        None
    }
}

/// The one comparison body: [`interval_order`] of the two vertices'
/// intervals, and `Equal` for a vertex against itself.
fn compare_by(
    a: VertexId,
    b: VertexId,
    score: impl Fn(VertexId) -> BoundedScore,
) -> Option<Ordering> {
    interval_order(&score(a), &score(b)).or((a == b).then_some(Ordering::Equal))
}

/// [`compare`] over a plain score slice.
pub fn compare_scores(scores: &[f64], eps: f64, a: VertexId, b: VertexId) -> Option<Ordering> {
    compare_by(a, b, |v| bounded_score(scores, eps, v))
}

/// Compares two vertices' true PPR values as far as ε allows:
/// `Some(ordering)` when the intervals are disjoint, `None` when the
/// comparison is undecidable at this ε. (Reads the two estimates directly
/// rather than copying the vector like the slice form would need.)
pub fn compare(state: &PprState, a: VertexId, b: VertexId) -> Option<Ordering> {
    let eps = state.config().epsilon;
    compare_by(a, b, |v| interval(v, state.p(v), eps))
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
        let mut all: Vec<(VertexId, f64)> =
            scores.iter().enumerate().map(|(v, &p)| (v as VertexId, p)).collect();
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
            let scores: Vec<f64> = (0..n).map(|_| (rng.gen_range(0..20) as f64) / 20.0).collect();
            for k in [0usize, 1, 2, 7, n / 2, n, n + 10] {
                assert_eq!(top_k_of(&scores, k), top_k_by_full_sort(&scores, k), "n={n} k={k}");
            }
        }
    }

    fn bits(ranking: &[(VertexId, f64)]) -> Vec<(VertexId, u64)> {
        ranking.iter().map(|&(v, p)| (v, p.to_bits())).collect()
    }

    /// Every field of every entry of both lists, as bits.
    fn threshold_bits(ans: &ThresholdAnswer) -> [Vec<[u64; 4]>; 2] {
        let row = |b: &BoundedScore| {
            [b.vertex as u64, b.estimate.to_bits(), b.lo.to_bits(), b.hi.to_bits()]
        };
        [ans.certain.iter().map(row).collect(), ans.possible.iter().map(row).collect()]
    }

    /// Structured score vectors where the gate's floor and the tie-break
    /// carry the answer: every element beats the floor (ascending), none
    /// after the first k does (descending), all ties (the lowest ids must
    /// win), signed zeros (equal under `>`, distinct bit patterns),
    /// negative ties, and a sparse vector of subnormals and zeros. Both the
    /// slice kernel and the in-place state form must return the full
    /// sort's entries, bit for bit, for every length around the chunk width
    /// and every `k` around the heap's edges. On the same vectors the
    /// state and slice forms of the threshold query agree bit for bit for
    /// every δ at a score ± ε and at the edges (±0, below every score,
    /// above every interval), and those of the comparison agree on every
    /// pair of the first 17 ids (past the vector's end too, where both
    /// read 0).
    #[test]
    fn top_k_matches_full_sort_bitwise_on_structured_scores() {
        use crate::multi::MultiSourcePpr;
        const EPS: f64 = 1e-3;
        let patterns: [(&str, fn(usize, usize) -> f64); 6] = [
            ("ascending", |i, _| i as f64 * 0.001),
            ("descending", |i, n| (n - i) as f64 * 0.001),
            ("all-equal", |_, _| 0.25),
            ("signed-zeros", |i, _| if i % 2 == 0 { 0.0 } else { -0.0 }),
            ("negative-ties", |i, _| -((i % 7) as f64) * 0.125),
            (
                "sparse-tiny",
                |i, _| if i % 13 == 5 { f64::from_bits(1 + (i % 3) as u64) } else { 0.0 },
            ),
        ];
        let mut cases = 0;
        for n in [0usize, 1, 15, 16, 17, 33, 100, 1000] {
            for (name, score) in patterns {
                let scores: Vec<f64> = (0..n).map(|i| score(i, n)).collect();
                let state = (n > 0).then(|| {
                    let mut st = PprState::new(PprConfig::new(0, 0.2, EPS));
                    st.ensure_len(n);
                    for (v, &p) in scores.iter().enumerate() {
                        st.set_p(v as VertexId, p);
                    }
                    MultiSourcePpr::from_states(vec![st])
                });
                let ks = [0, 1, 2, 15, 16, 17, n.saturating_sub(1), n, n + 1, usize::MAX];
                for k in ks {
                    let want = bits(&top_k_by_full_sort(&scores, k));
                    assert_eq!(bits(&top_k_of(&scores, k)), want, "{name} n={n} k={k}");
                    if let Some(multi) = &state {
                        assert_eq!(bits(&multi.top_k(0, k)), want, "state {name} n={n} k={k}");
                    }
                    cases += 1;
                }
                let Some(multi) = &state else { continue };
                let st = multi.state(0);
                let max = scores.iter().copied().fold(f64::MIN, f64::max);
                let mut deltas: Vec<f64> =
                    scores.iter().flat_map(|&p| [p - EPS, p + EPS]).collect();
                deltas.extend([0.0, -0.0, -1.0, max + 2.0 * EPS]);
                deltas.sort_by(f64::total_cmp);
                deltas.dedup_by(|a, b| a.to_bits() == b.to_bits());
                for delta in deltas {
                    assert_eq!(
                        threshold_bits(&above_threshold(st, delta)),
                        threshold_bits(&above_threshold_scores(&scores, EPS, delta)),
                        "threshold {name} n={n} delta={delta:e}"
                    );
                }
                for a in 0..17 {
                    for b in 0..17 {
                        let want = compare_scores(&scores, EPS, a, b);
                        assert_eq!(compare(st, a, b), want, "compare {name} n={n} {a} {b}");
                    }
                }
            }
        }
        assert_eq!(cases, 480);
    }
}
