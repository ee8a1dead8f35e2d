//! Universal user strategies — Theorem 1 as code.
//!
//! > *For any (compact or finite) goal and any class of server strategies for
//! > which there exists safe and viable sensing, there exists a universal
//! > user strategy.*
//!
//! The two constructions in the paper's proof sketch are:
//!
//! - **Compact goals** ([`CompactUniversalUser`]): enumerate the relevant
//!   user strategies and *switch from the current strategy to the next when a
//!   negative indication is obtained* from sensing. The enumeration must let
//!   every strategy recur infinitely often (see
//!   [`TriangularSchedule`](crate::enumeration::TriangularSchedule)), because
//!   viability only bounds the number of negatives for a viable strategy.
//!
//! - **Finite goals** ([`LevinUniversalUser`]): enumerate strategies "in
//!   parallel" à la Levin's universal search — candidate *i* runs with a
//!   budget proportional to 2^(k−i) in phase *k* — and *use sensing to decide
//!   when to stop*. Safety of sensing makes halting on a positive indication
//!   sound; viability guarantees a positive eventually arrives with any
//!   helpful server.

mod compact;
mod finite;
mod schedule;

pub use compact::CompactUniversalUser;
pub use finite::LevinUniversalUser;
pub use schedule::{BudgetSchedule, LevinSchedule, RoundRobinDoubling, Schedule};

use crate::snap::SnapError;
use std::fmt::Debug;

/// Width of the two slot windows a version-1 snapshot records.
///
/// The v1 layout dates from users that built their candidates 8 schedule
/// slots at a time and drew the following 8 slots early, so every v1
/// snapshot carries the slots left in the current window, the following
/// window, and the schedule advanced past both. Those fields depend only
/// on the constructor's schedule and the number of slots consumed, so the
/// users derive them when saving ([`v1_windows`]) and restore refuses a
/// snapshot whose fields differ from the same derivation.
const V1_WINDOW: u64 = 8;

/// Replays `origin` through its first `consumed` slots (`consumed ≥ 1`),
/// returning the advanced schedule and the last slot it yielded.
fn replay<S: Iterator + Clone>(origin: &S, consumed: u64) -> (S, S::Item) {
    let mut schedule = origin.clone();
    let last = (0..consumed).filter_map(|_| schedule.next()).last();
    (schedule, last.expect("schedules are infinite"))
}

/// The v1 window fields of a user whose live schedule has yielded
/// `consumed` slots: the schedule advanced past both windows, the slots
/// left in the current window, and the following window. A window is
/// refilled when the slot that opens it is consumed, so after `consumed`
/// slots the current window has `(8 − consumed mod 8) mod 8` left.
fn v1_windows<S: Iterator + Clone>(
    live: &S,
    consumed: u64,
) -> (S, Vec<S::Item>, Vec<S::Item>) {
    let mut schedule = live.clone();
    let rest = (V1_WINDOW - consumed % V1_WINDOW) % V1_WINDOW;
    let ahead = schedule.by_ref().take(rest as usize).collect();
    let next = schedule.by_ref().take(V1_WINDOW as usize).collect();
    (schedule, ahead, next)
}

/// Refuses a restored field that differs from the value the receiver
/// derives for it.
fn expect_derived<T: PartialEq + Debug>(
    context: &'static str,
    derived: &T,
    stored: &T,
) -> Result<(), SnapError> {
    if derived == stored {
        return Ok(());
    }
    Err(SnapError::Mismatch {
        context,
        expected: format!("{derived:?}"),
        found: format!("{stored:?}"),
    })
}

/// One strategy switch made by a universal user, for diagnostics and the
/// overhead experiments (E3, E4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Round at which the switch happened.
    pub round: u64,
    /// Index of the strategy abandoned.
    pub from_index: usize,
    /// Index of the strategy adopted.
    pub to_index: usize,
}

impl crate::snap::SnapState for SwitchRecord {
    fn encode(&self, w: &mut crate::snap::SnapWriter<'_>) {
        w.u64(self.round);
        w.usize(self.from_index);
        w.usize(self.to_index);
    }
    fn decode(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        Ok(SwitchRecord {
            round: r.u64("switch round")?,
            from_index: r.usize("switch from")?,
            to_index: r.usize("switch to")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_windows_follow_the_refill_rule() {
        // Slot k of the schedule is the number k. A window opens at every
        // eighth slot, and the following window is always drawn with it.
        for (consumed, ahead, next) in [(1, 1..8, 8..16), (8, 8..8, 8..16), (9, 9..16, 16..24)] {
            let (live, last) = replay(&(0u64..), consumed);
            assert_eq!(last, consumed - 1);
            let (after, got_ahead, got_next) = v1_windows(&live, consumed);
            assert_eq!(got_ahead, ahead.collect::<Vec<_>>(), "consumed {consumed}");
            assert_eq!(got_next, next.clone().collect::<Vec<_>>(), "consumed {consumed}");
            assert_eq!(after.start, next.end);
        }
    }
}
