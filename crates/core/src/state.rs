//! The `(Ps, Rs)` vector pair every local-update engine maintains.

use crate::atomic::AtomicF64;
use crate::config::PprConfig;
use dppr_graph::VertexId;

/// Estimate and residual vectors for one source vertex.
///
/// Storage is atomic so the sequential and parallel engines can share one
/// representation (a state produced by one engine can be handed to the
/// other); sequential code pays nothing for the relaxed loads/stores on
/// x86-class hardware.
///
/// A fresh state encodes the **empty graph**: `Ps = α·e_s`, `Rs = 0`, which
/// satisfies Eq. 2 when every out-degree is zero. That is what lets the
/// initial sliding window be applied as a plain batch of insertions.
#[derive(Debug)]
pub struct PprState {
    cfg: PprConfig,
    p: Vec<AtomicF64>,
    r: Vec<AtomicF64>,
}

impl PprState {
    /// Creates the empty-graph state for the given configuration. The
    /// source vertex is materialized immediately.
    pub fn new(cfg: PprConfig) -> Self {
        let mut st = PprState { cfg, p: Vec::new(), r: Vec::new() };
        st.ensure_len(cfg.source as usize + 1);
        st
    }

    /// Creates a state that satisfies the Eq. 2 invariant on **any** graph
    /// with up to `n` vertices: `Ps ≡ 0`, `Rs = e_s`.
    ///
    /// Plugging `Ps ≡ 0` into the invariant leaves `α·Rs(v) = α·1{v=s}`,
    /// independent of the adjacency — so a source can be *opened* against an
    /// already-populated graph (the serving layer's `session open`) and one
    /// push to convergence yields ε-accurate estimates, without replaying
    /// the graph's edge history the way [`PprState::new`] requires.
    pub fn cold_start(cfg: PprConfig, n: usize) -> Self {
        let n = n.max(cfg.source as usize + 1);
        let mut st = PprState { cfg, p: Vec::new(), r: Vec::new() };
        st.p.resize_with(n, AtomicF64::default);
        st.r.resize_with(n, AtomicF64::default);
        // The source is materialized, so a later `ensure_len` growth will
        // not re-seed `P(s) = α` over the converged value.
        st.r[cfg.source as usize].store(1.0);
        st
    }

    /// The configuration this state was built for.
    #[inline]
    pub fn config(&self) -> &PprConfig {
        &self.cfg
    }

    /// Number of materialized vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// Whether no vertex is materialized (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// Grows the vectors to cover `n` vertices. New vertices get
    /// `P = R = 0` except the source, which gets `P = α` (its empty-graph
    /// invariant value).
    pub fn ensure_len(&mut self, n: usize) {
        if n <= self.p.len() {
            return;
        }
        let old = self.p.len();
        self.p.resize_with(n, AtomicF64::default);
        self.r.resize_with(n, AtomicF64::default);
        let s = self.cfg.source as usize;
        if (old..n).contains(&s) {
            self.p[s].store(self.cfg.alpha);
        }
    }

    /// Estimate `Ps(v)`; zero for vertices not yet materialized.
    #[inline]
    pub fn p(&self, v: VertexId) -> f64 {
        self.p.get(v as usize).map_or(0.0, AtomicF64::load)
    }

    /// Residual `Rs(v)`; zero for vertices not yet materialized.
    #[inline]
    pub fn r(&self, v: VertexId) -> f64 {
        self.r.get(v as usize).map_or(0.0, AtomicF64::load)
    }

    /// Sets `Ps(v)`. The vertex must be materialized.
    #[inline]
    pub fn set_p(&self, v: VertexId, value: f64) {
        self.p[v as usize].store(value);
    }

    /// Sets `Rs(v)`. The vertex must be materialized.
    #[inline]
    pub fn set_r(&self, v: VertexId, value: f64) {
        self.r[v as usize].store(value);
    }

    /// The atomic estimate vector (for the parallel kernels).
    #[inline]
    pub fn p_atomics(&self) -> &[AtomicF64] {
        &self.p
    }

    /// The atomic residual vector (for the parallel kernels).
    #[inline]
    pub fn r_atomics(&self) -> &[AtomicF64] {
        &self.r
    }

    /// Plain-value copy of the estimates.
    pub fn estimates(&self) -> Vec<f64> {
        self.p.iter().map(AtomicF64::load).collect()
    }

    /// Plain-value copy of the residuals.
    pub fn residuals(&self) -> Vec<f64> {
        self.r.iter().map(AtomicF64::load).collect()
    }

    /// `max_v |Rs(v)|` — the convergence test: the push has converged
    /// when this does not exceed ε.
    pub fn max_abs_residual(&self) -> f64 {
        self.r.iter().map(|x| x.load().abs()).fold(0.0, f64::max)
    }

    /// `‖Rs‖₁`, the quantity Lemma 4 tracks.
    pub fn l1_residual(&self) -> f64 {
        self.r.iter().map(|x| x.load().abs()).sum()
    }

    /// Whether every residual lies within `[−ε, ε]`.
    pub fn converged(&self) -> bool {
        self.max_abs_residual() <= self.cfg.epsilon
    }

    /// Deep copy (atomics are not `Clone`, so this is explicit).
    pub fn clone_values(&self) -> PprState {
        PprState {
            cfg: self.cfg,
            p: self.p.iter().map(|x| AtomicF64::new(x.load())).collect(),
            r: self.r.iter().map(|x| AtomicF64::new(x.load())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PprConfig {
        PprConfig::new(2, 0.5, 0.1)
    }

    #[test]
    fn new_state_encodes_empty_graph() {
        let st = PprState::new(cfg());
        assert_eq!(st.len(), 3);
        assert_eq!(st.p(2), 0.5); // α at the source
        assert_eq!(st.p(0), 0.0);
        assert_eq!(st.r(2), 0.0);
        assert!(st.converged());
    }

    #[test]
    fn cold_start_state_is_zero_except_source_residual() {
        let st = PprState::cold_start(cfg(), 6);
        assert_eq!(st.len(), 6);
        assert_eq!(st.p(2), 0.0); // no α at the source: Ps ≡ 0
        assert_eq!(st.r(2), 1.0);
        assert_eq!(st.r(0), 0.0);
        assert!(!st.converged()); // the unit residual still has to be pushed
        // Source beyond n: materialized anyway.
        let st = PprState::cold_start(PprConfig::new(9, 0.15, 1e-3), 4);
        assert_eq!(st.len(), 10);
        assert_eq!(st.r(9), 1.0);
    }

    #[test]
    fn cold_start_growth_keeps_source_untouched() {
        let mut st = PprState::cold_start(cfg(), 6);
        st.set_p(2, 0.33); // pretend the push converged
        st.set_r(2, 0.0);
        st.ensure_len(20);
        assert_eq!(st.p(2), 0.33); // growth must not re-seed P(s) = α
        assert_eq!(st.r(2), 0.0);
    }

    #[test]
    fn growth_preserves_source_value() {
        let mut st = PprState::new(cfg());
        st.ensure_len(10);
        assert_eq!(st.len(), 10);
        assert_eq!(st.p(2), 0.5);
        assert_eq!(st.p(9), 0.0);
        st.ensure_len(5); // shrink request is a no-op
        assert_eq!(st.len(), 10);
    }

    #[test]
    fn source_materialized_late() {
        // Source id beyond initial length: ensure_len must initialize it
        // exactly once.
        let c = PprConfig::new(7, 0.15, 1e-3);
        let st = PprState::new(c);
        assert_eq!(st.len(), 8);
        assert_eq!(st.p(7), 0.15);
    }

    #[test]
    fn unmaterialized_reads_are_zero() {
        let st = PprState::new(cfg());
        assert_eq!(st.p(100), 0.0);
        assert_eq!(st.r(100), 0.0);
    }

    #[test]
    fn residual_norms() {
        let mut st = PprState::new(cfg());
        st.ensure_len(4);
        st.set_r(0, 0.3);
        st.set_r(1, -0.4);
        assert_eq!(st.max_abs_residual(), 0.4);
        assert!((st.l1_residual() - 0.7).abs() < 1e-15);
        assert!(!st.converged());
    }

    #[test]
    fn clone_values_is_deep() {
        let mut st = PprState::new(cfg());
        st.ensure_len(4);
        st.set_p(1, 0.25);
        let cl = st.clone_values();
        st.set_p(1, 0.75);
        assert_eq!(cl.p(1), 0.25);
        assert_eq!(st.p(1), 0.75);
    }
}
