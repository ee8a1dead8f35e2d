//! Kept only for perfbench; remove in the next benchmark PR.

/// Kept only for perfbench; remove in the next benchmark PR. Always zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Always zero.
    pub mispredicts: u64,
    /// Always zero.
    pub speculated: u64,
}

/// Kept only for perfbench; remove in the next benchmark PR. Returns zeros.
pub fn stats() -> PredictStats {
    PredictStats::default()
}

/// Kept only for perfbench; remove in the next benchmark PR. Does nothing.
pub fn reset() {}
