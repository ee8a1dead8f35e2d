//! **The printing goal** — the paper's flagship example (§1):
//!
//! > "the problem of using a printer to produce a document – which cannot be
//! > cast as a problem of delegating computation in any reasonable sense – is
//! > captured naturally by the simple model introduced in the current work."
//!
//! The world owns a printer and reports, to the user, everything that comes
//! out of the output tray. The server is a *printer driver*: it understands
//! job submissions in its own **dialect** (an opcode byte plus a payload
//! encoding, unknown to the user) and drives the printer on the user's
//! behalf. The user wants a specific document to be printed.
//!
//! - Finite variant ([`PrintGoal`]): the document must be printed once.
//! - Compact variant ([`CompactPrintGoal`]): the document must keep being
//!   reprinted (think of a heartbeat page or a displayed form that expires).
//!
//! Sensing comes from the output tray: the user *sees* what was printed
//! ([`tray_sensing`]) — safe because the tray does not lie, viable because a
//! driver-compatible user gets its document onto the tray.

mod chunked;
mod dialect;
mod sensing;
mod users;
mod world;

pub use chunked::{chunked_class, ChunkedDriverServer, ChunkedPrintingUser};
pub use dialect::{Dialect, DriverServer, Encoding};
pub use sensing::{tray_sensing, TraySensing};
pub use users::{dialect_class, learning_user_note, PrintingUser};
pub use world::{PrinterState, PrinterWorld};

use goc_core::goal::{CompactGoal, FiniteGoal, Goal, GoalKind};
use goc_core::rng::GocRng;
use goc_core::strategy::Halt;

/// The finite printing goal: `document` must appear in the printer's output
/// log before the user halts.
#[derive(Clone, Debug)]
pub struct PrintGoal {
    document: Vec<u8>,
}

impl PrintGoal {
    /// A goal of printing `document`.
    ///
    /// # Panics
    ///
    /// Panics if `document` is empty (the printer ignores empty jobs).
    pub fn new(document: impl AsRef<[u8]>) -> Self {
        let document = document.as_ref().to_vec();
        assert!(!document.is_empty(), "PrintGoal requires a non-empty document");
        PrintGoal { document }
    }

    /// The target document.
    pub fn document(&self) -> &[u8] {
        &self.document
    }
}

impl Goal for PrintGoal {
    type World = PrinterWorld;

    fn spawn_world(&self, rng: &mut GocRng) -> PrinterWorld {
        PrinterWorld::new(rng.below(4) as usize) // arbitrary start: junk pages already printed
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Finite
    }

    fn name(&self) -> String {
        "printing".to_string()
    }
}

impl FiniteGoal for PrintGoal {
    type Memory = ();

    fn accepts(&self, _: &(), last: &PrinterState, _halt: &Halt) -> bool {
        last.has_printed(&self.document)
    }
}

/// The compact printing goal: `document` must be reprinted at least every
/// `window` rounds (after a one-window start-up grace).
#[derive(Clone, Debug)]
pub struct CompactPrintGoal {
    document: Vec<u8>,
    window: u64,
}

impl CompactPrintGoal {
    /// A goal of keeping `document` freshly printed every `window` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `document` is empty or `window == 0`.
    pub fn new(document: impl AsRef<[u8]>, window: u64) -> Self {
        let document = document.as_ref().to_vec();
        assert!(!document.is_empty(), "CompactPrintGoal requires a non-empty document");
        assert!(window > 0, "CompactPrintGoal requires a positive window");
        CompactPrintGoal { document, window }
    }

    /// The target document.
    pub fn document(&self) -> &[u8] {
        &self.document
    }

    /// The reprint window.
    pub fn window(&self) -> u64 {
        self.window
    }
}

impl Goal for CompactPrintGoal {
    type World = PrinterWorld;

    fn spawn_world(&self, rng: &mut GocRng) -> PrinterWorld {
        PrinterWorld::new(rng.below(4) as usize)
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Compact
    }

    fn name(&self) -> String {
        "printing-compact".to_string()
    }
}

impl CompactGoal for CompactPrintGoal {
    type Memory = ();

    fn prefix_acceptable(&self, _: &mut (), last: &PrinterState) -> bool {
        if last.round < self.window {
            return true;
        }
        last.prints_of(&self.document)
            .map(|r| last.round - r <= self.window)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_core::exec::Execution;
    use goc_core::goal::{evaluate_compact, evaluate_finite};

    #[test]
    fn informed_user_prints_through_matching_driver() {
        let goal = PrintGoal::new("report.pdf");
        let dialect = Dialect::new(0x50, Encoding::Xor(0x2a));
        let mut rng = GocRng::seed_from_u64(1);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(DriverServer::new(dialect.clone())),
            Box::new(PrintingUser::new("report.pdf", dialect)),
            rng,
        );
        let t = exec.run(60);
        let v = evaluate_finite(&goal, &t);
        assert!(v.achieved, "verdict: {v:?}");
    }

    #[test]
    fn mismatched_dialect_fails() {
        let goal = PrintGoal::new("report.pdf");
        let mut rng = GocRng::seed_from_u64(2);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(DriverServer::new(Dialect::new(0x50, Encoding::Xor(0x2a)))),
            Box::new(PrintingUser::new("report.pdf", Dialect::new(0x51, Encoding::Identity))),
            rng,
        );
        let t = exec.run(60);
        assert!(!evaluate_finite(&goal, &t).achieved);
    }

    #[test]
    fn compact_goal_needs_reprinting() {
        let goal = CompactPrintGoal::new("badge", 24);
        let dialect = Dialect::new(0x10, Encoding::Identity);
        let mut rng = GocRng::seed_from_u64(3);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(DriverServer::new(dialect.clone())),
            Box::new(PrintingUser::persistent("badge", dialect)),
            rng,
        )
        .recording();
        let t = exec.run_for(600);
        let v = evaluate_compact(&goal, &t);
        assert!(v.achieved(100), "verdict: {v:?}");
    }

    #[test]
    fn goal_constructors_validate() {
        assert!(std::panic::catch_unwind(|| PrintGoal::new("")).is_err());
        assert!(std::panic::catch_unwind(|| CompactPrintGoal::new("x", 0)).is_err());
        assert_eq!(PrintGoal::new("x").document(), b"x");
        assert_eq!(CompactPrintGoal::new("x", 5).window(), 5);
    }

    #[test]
    fn goal_kinds_and_names() {
        assert_eq!(PrintGoal::new("d").kind(), GoalKind::Finite);
        assert_eq!(CompactPrintGoal::new("d", 8).kind(), GoalKind::Compact);
        assert_eq!(PrintGoal::new("d").name(), "printing");
    }
}
