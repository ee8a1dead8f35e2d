//! The `GOC_DISPATCH` gate for the table-driven interpreter core.
//!
//! With dispatch on (the default), [`Machine::round`] predecodes its program
//! once and drives every round through the per-opcode handler table in
//! [`machine`](crate::machine). `GOC_DISPATCH=0` selects the original
//! scalar `match` loop, kept as the executable specification the table is
//! differentially tested against (`crates/vm/tests/dispatch_equivalence.rs`).
//!
//! The flag is observationally inert:
//! outboxes, halt payloads, registers, retired-instruction counts, and the
//! `GOC_TRACE` stream are byte-identical either way (gated in ci.sh). The
//! environment variable is read once and latched; [`with_dispatch`] is the
//! race-free per-thread override for tests and apples-to-apples benchmarks.
//!
//! [`Machine::round`]: crate::machine::Machine::round

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static DISPATCH_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("GOC_DISPATCH").map(|v| v != "0").unwrap_or(true))
}

/// Whether table dispatch is on: a thread-local [`with_dispatch`] override
/// if present, else the `GOC_DISPATCH` environment latch (default **on**;
/// `GOC_DISPATCH=0` is the scalar `match` loop). Read once and latched.
pub fn enabled() -> bool {
    DISPATCH_OVERRIDE.with(|c| c.get()).unwrap_or_else(env_enabled)
}

/// Runs `f` with table dispatch forced on/off on this thread, restoring the
/// previous state afterwards (also on panic). The E16 micro-bench uses this
/// to time both interpreter cores in one process; the environment latch is
/// immutable after first read.
pub fn with_dispatch<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DISPATCH_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(DISPATCH_OVERRIDE.with(|c| c.replace(Some(enabled))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_dispatch_overrides_and_restores() {
        let outer = enabled();
        with_dispatch(!outer, || {
            assert_eq!(enabled(), !outer);
            with_dispatch(outer, || assert_eq!(enabled(), outer));
            assert_eq!(enabled(), !outer);
        });
        assert_eq!(enabled(), outer);
    }
}
