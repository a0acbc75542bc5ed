//! Run configuration shared by every engine.

use dppr_graph::VertexId;

/// The PPR problem parameters of the paper's Table 2: the source vertex
/// `s`, teleport probability `α`, and error threshold `ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprConfig {
    /// The personalization vertex `s`.
    pub source: VertexId,
    /// Teleport probability `α ∈ (0, 1)`; the paper's default is 0.15.
    pub alpha: f64,
    /// Error threshold `ε > 0`; estimates are ε-accurate at convergence.
    pub epsilon: f64,
}

impl PprConfig {
    /// Creates a validated configuration.
    ///
    /// # Panics
    /// If `alpha ∉ (0, 1)` or `epsilon ≤ 0`.
    pub fn new(source: VertexId, alpha: f64, epsilon: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "teleport probability must lie in (0,1), got {alpha}");
        assert!(epsilon > 0.0, "error threshold must be positive, got {epsilon}");
        PprConfig { source, alpha, epsilon }
    }
}

/// Which of the two push phases of Algorithms 2/3 is running: positive
/// residuals are drained first, then negative ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Drain residuals `> ε`.
    Pos,
    /// Drain residuals `< −ε`.
    Neg,
}

impl Phase {
    /// The paper's `pushCond(r, phase)` (Algorithm 3, lines 8–10).
    #[inline]
    pub fn active(self, r: f64, epsilon: f64) -> bool {
        match self {
            Phase::Pos => r > epsilon,
            Phase::Neg => r < -epsilon,
        }
    }

    /// `PushCondLocal` (Algorithm 4, lines 1–5): true iff the residual
    /// *crossed* the activation threshold with this update — the heart of
    /// local duplicate detection. Exactly one updater observes the crossing
    /// because residuals move monotonically within a phase.
    #[inline]
    pub fn crossed(self, r_pre: f64, r_cur: f64, epsilon: f64) -> bool {
        !self.active(r_pre, epsilon) && self.active(r_cur, epsilon)
    }

    /// Both phases, in execution order.
    pub const BOTH: [Phase; 2] = [Phase::Pos, Phase::Neg];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let c = PprConfig::new(3, 0.15, 1e-6);
        assert_eq!(c.source, 3);
        assert_eq!((c.alpha, c.epsilon), (0.15, 1e-6));
    }

    #[test]
    #[should_panic(expected = "teleport probability")]
    fn rejects_alpha_one() {
        PprConfig::new(0, 1.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "error threshold")]
    fn rejects_zero_epsilon() {
        PprConfig::new(0, 0.5, 0.0);
    }

    #[test]
    fn push_condition() {
        let e = 0.1;
        assert!(Phase::Pos.active(0.2, e));
        assert!(!Phase::Pos.active(0.1, e)); // strict inequality
        assert!(!Phase::Pos.active(-0.2, e));
        assert!(Phase::Neg.active(-0.2, e));
        assert!(!Phase::Neg.active(-0.1, e));
        assert!(!Phase::Neg.active(0.2, e));
    }

    #[test]
    fn crossing_detection() {
        let e = 0.1;
        // Only the increment that moves r across +ε reports a crossing.
        assert!(Phase::Pos.crossed(0.05, 0.15, e));
        assert!(!Phase::Pos.crossed(0.15, 0.25, e));
        assert!(!Phase::Pos.crossed(0.01, 0.05, e));
        assert!(Phase::Neg.crossed(-0.05, -0.15, e));
        assert!(!Phase::Neg.crossed(-0.15, -0.2, e));
    }
}
