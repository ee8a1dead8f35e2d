//! The scoped switch between the two interpreter cores.
//!
//! [`Machine::round`] runs the predecoded fast core, one `match` over the
//! program's decoded slots, in [`machine`](crate::machine). Inside
//! [`with_dispatch`]`(false, ..)` it runs `Machine::round_match` instead:
//! the original decode-as-you-go `match` loop, kept as the executable
//! specification the fast core is differentially tested against
//! (`crates/vm/tests/dispatch_equivalence.rs`).
//!
//! The switch is observationally inert: outboxes, halt payloads,
//! registers, retired-instruction counts and the `GOC_TRACE` stream are
//! byte-identical either way. It is thread-local and reads no environment,
//! so tests and benches can time or compare both cores in one process.
//!
//! [`Machine::round`]: crate::machine::Machine::round

use std::cell::Cell;

thread_local! {
    static DISPATCH_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether this thread runs the fast core: `false` only inside
/// [`with_dispatch`]`(false, ..)`.
pub(crate) fn enabled() -> bool {
    DISPATCH_OVERRIDE.with(|c| c.get()).unwrap_or(true)
}

/// Runs `f` with the fast core on (`true`) or the `round_match` spec
/// mounted (`false`) on this thread, restoring the previous state
/// afterwards (also on panic). The E16 bench uses this to time both
/// interpreter cores in one process.
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
        assert!(enabled(), "the fast core is the default");
        with_dispatch(false, || {
            assert!(!enabled());
            with_dispatch(true, || assert!(enabled()));
            assert!(!enabled());
        });
        assert!(enabled());
    }
}
