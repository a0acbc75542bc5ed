//! A snapshot answers top-k and threshold queries from its rank memo, a
//! prefix of its vertices in rank order that grows by doubling. Each answer
//! must equal the scan's, whatever the memo held before the query: the
//! vectors here hold tied runs across the 64/128/256 prefix lengths and a
//! tail of zeros, and one snapshot is asked in increasing and then in
//! decreasing order of need, another the other way round.

use dppr_core::queries::{above_threshold_scores, bounded_score, top_k_scores, TopKAnswer};
use dppr_serve::QuerySnapshot;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1e-4;

/// Rank `r` (0 = best) gets a score at or below rank `r − 1`'s. Ranks
/// 60..70, 124..134 and 250..262 tie with the rank before them, and so do
/// about one in ten others; the last quarter is zero. The scores are then
/// dealt to the ids in a seeded random order.
fn scores(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tied = |r: usize| [60..70, 124..134, 250..262].iter().any(|run| run.contains(&r));
    let mut by_rank = Vec::with_capacity(n);
    let mut p = 0.4;
    for r in 0..n {
        if r >= n - n / 4 {
            p = 0.0;
        } else if r > 0 && !tied(r) && !rng.gen_bool(0.1) {
            p *= rng.gen_range(0.995..1.0);
        }
        by_rank.push(p);
    }
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(&mut rng);
    let mut scores = vec![0.0; n];
    for (r, &v) in ids.iter().enumerate() {
        scores[v] = by_rank[r];
    }
    scores
}

/// Top-`k` by a full sort: the definition the memo must reproduce.
fn sorted_top_k(scores: &[f64], k: usize) -> TopKAnswer {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    order.sort_by(|&a, &b| {
        scores[b as usize].partial_cmp(&scores[a as usize]).unwrap().then(a.cmp(&b))
    });
    let ranking: Vec<_> = order.iter().take(k).map(|&v| bounded_score(scores, EPS, v)).collect();
    let set_is_certain = match (ranking.last(), order.get(k)) {
        (Some(last), Some(&next)) => last.estimate - scores[next as usize] > 2.0 * EPS,
        _ => true,
    };
    TopKAnswer { ranking, set_is_certain }
}

fn check(n: usize, seed: u64) {
    let scores = scores(n, seed);
    let mut ks = vec![0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257];
    ks.extend([n.saturating_sub(1), n, n + 1, usize::MAX]);
    ks.sort_unstable();
    ks.dedup();
    let want_top: Vec<TopKAnswer> = ks.iter().map(|&k| sorted_top_k(&scores, k)).collect();
    for (&k, want) in ks.iter().zip(&want_top) {
        assert_eq!(&top_k_scores(&scores, EPS, k), want, "n = {n}, k = {k}: scan");
    }

    // Falling δ needs a longer prefix: every rank's score and that score
    // ± ε, from above the maximum down to nothing and below.
    let max = scores.iter().copied().fold(0.0, f64::max);
    let mut deltas = vec![2.0, max + 2.0 * EPS, 0.0, -1.0];
    for &p in &scores {
        deltas.extend([p + EPS, p - EPS]);
    }
    deltas.sort_by(|a, b| b.partial_cmp(a).unwrap());
    deltas.dedup();
    let want_thr: Vec<_> =
        deltas.iter().map(|&d| above_threshold_scores(&scores, EPS, d)).collect();

    let ask_top = |snap: &QuerySnapshot, order: &mut dyn Iterator<Item = usize>| {
        for i in order {
            assert_eq!(snap.top_k(ks[i]), want_top[i], "n = {n}, k = {}", ks[i]);
        }
    };
    let ask_thr = |snap: &QuerySnapshot, order: &mut dyn Iterator<Item = usize>| {
        for i in order {
            let got = snap.above_threshold(deltas[i]);
            assert_eq!(got, want_thr[i], "n = {n}, delta = {}", deltas[i]);
        }
    };
    // On a new snapshot per query kind and direction: increasing need and
    // then decreasing, or the largest need first and then increasing.
    let snap = || QuerySnapshot::new(0, 1, 0.15, EPS, scores.clone());
    let (growing, full) = (snap(), snap());
    ask_top(&growing, &mut (0..ks.len()));
    ask_top(&growing, &mut (0..ks.len()).rev());
    ask_top(&full, &mut (0..ks.len()).rev());
    ask_top(&full, &mut (0..ks.len()));
    let (growing, full) = (snap(), snap());
    ask_thr(&growing, &mut (0..deltas.len()));
    ask_thr(&growing, &mut (0..deltas.len()).rev());
    ask_thr(&full, &mut (0..deltas.len()).rev());
    ask_thr(&full, &mut (0..deltas.len()));
}

#[test]
fn ranked_prefix_answers_equal_the_scan() {
    for (n, seed) in [(0, 1), (1, 2), (63, 3), (64, 4), (65, 5), (200, 6), (5_000, 7)] {
        check(n, seed);
    }
}
