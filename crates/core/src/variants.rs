//! The 2×2 optimization matrix of the parallel push (paper Table 3).

/// Which optimizations the parallel push runs with.
///
/// | variant                      | eager propagation | local dup. detection |
/// |------------------------------|-------------------|----------------------|
/// | [`PushVariant::OPT`]         | ✓                 | ✓                    |
/// | [`PushVariant::EAGER`]       | ✓                 | ✗ (atomic-flag dedup)|
/// | [`PushVariant::DUP_DETECT`]  | ✗                 | ✓                    |
/// | [`PushVariant::VANILLA`]     | ✗                 | ✗                    |
///
/// Without eager propagation the push follows Algorithm 3's session order
/// (self-update, then neighbor-propagation on the stale residual snapshot);
/// with it, Algorithm 4's (neighbor-propagation reading fresh residuals,
/// then a consistent self-update). Without local duplicate detection the
/// next frontier is deduplicated through a shared per-vertex atomic claim
/// flag (the synchronization `UniqueEnqueue` cost the paper attributes to
/// the unoptimized version); with it, the threshold-crossing test on the
/// atomic add's before/after values decides enqueueing with no shared
/// structure at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PushVariant {
    /// Run Algorithm 4's eager session order.
    pub eager: bool,
    /// Use local duplicate detection for frontier generation.
    pub local_dup: bool,
}

impl PushVariant {
    /// Fully optimized (the paper's `Opt`).
    pub const OPT: PushVariant = PushVariant { eager: true, local_dup: true };
    /// Eager propagation only.
    pub const EAGER: PushVariant = PushVariant { eager: true, local_dup: false };
    /// Local duplicate detection only.
    pub const DUP_DETECT: PushVariant = PushVariant { eager: false, local_dup: true };
    /// Neither optimization (Algorithm 3 as written).
    pub const VANILLA: PushVariant = PushVariant { eager: false, local_dup: false };

    /// All four variants in the paper's Table 3 order.
    pub const ALL: [PushVariant; 4] = [Self::OPT, Self::EAGER, Self::DUP_DETECT, Self::VANILLA];

    /// The paper's name for this variant.
    pub fn name(self) -> &'static str {
        match (self.eager, self.local_dup) {
            (true, true) => "Opt",
            (true, false) => "Eager",
            (false, true) => "DupDetect",
            (false, false) => "Vanilla",
        }
    }
}

impl std::fmt::Display for PushVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_table_3() {
        assert_eq!(PushVariant::OPT.name(), "Opt");
        assert_eq!(PushVariant::EAGER.name(), "Eager");
        assert_eq!(PushVariant::DUP_DETECT.name(), "DupDetect");
        assert_eq!(PushVariant::VANILLA.name(), "Vanilla");
    }

    #[test]
    fn all_lists_four_distinct() {
        let mut set = std::collections::HashSet::new();
        for v in PushVariant::ALL {
            assert!(set.insert(v));
        }
        assert_eq!(set.len(), 4);
    }
}
