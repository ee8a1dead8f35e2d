//! Kept only for perfbench; remove in the next benchmark PR.

/// Kept only for perfbench; remove in the next benchmark PR. Runs `f`.
pub fn with_batch<R>(_enabled: bool, f: impl FnOnce() -> R) -> R {
    f()
}
