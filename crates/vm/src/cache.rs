//! Kept only for perfbench; remove in the next benchmark PR.

/// Kept only for perfbench; remove in the next benchmark PR. Always zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub misses: u64,
}

/// Kept only for perfbench; remove in the next benchmark PR. Returns zeros.
pub fn stats() -> CacheStats {
    CacheStats::default()
}

/// Kept only for perfbench; remove in the next benchmark PR. Does nothing.
pub fn clear() {}

/// Kept only for perfbench; remove in the next benchmark PR. Returns 0.
pub fn entry_count() -> usize {
    0
}
