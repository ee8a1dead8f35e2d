//! The printer world: accepts jobs from the server, reports the output tray
//! to the user.

use goc_core::msg::{Message, WorldIn, WorldOut};
use goc_core::strategy::{StepCtx, WorldStrategy};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Wire prefix of a job the printer accepts **from the server**.
pub(crate) const JOB_PREFIX: &[u8] = b"JOB:";

/// Wire prefix of the tray report the world sends the user.
pub(crate) const TRAY_PREFIX: &[u8] = b"TRAY:";

/// Referee-visible printer state.
///
/// The state is a bounded summary rather than the full page log: referees
/// only ever ask *whether* and *when* a document was (last) printed, and a
/// bounded state keeps long compact-goal transcripts O(rounds) instead of
/// O(rounds²).
///
/// Internally split into a **hot slot** (the most recent page and its print
/// round) and a shared **archive** of every page displaced from the slot, so
/// that the per-round snapshot the execution engine takes
/// ([`WorldStrategy::state`]) is two refcount bumps plus scalars: reprinting
/// the same page every round — the steady state of every compact printing
/// experiment — touches no heap at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrinterState {
    /// The most recent page and the round it was last printed at.
    last: Option<(Arc<Vec<u8>>, u64)>,
    /// Most-recent print round of every page displaced from `last`.
    archive: Arc<BTreeMap<Vec<u8>, u64>>,
    /// Total pages printed (including reprints).
    pub total_pages: u64,
    /// Rounds elapsed.
    pub round: u64,
}

impl PrinterState {
    /// Round of the most recent print of `document`, if any.
    pub fn prints_of(&self, document: &[u8]) -> Option<u64> {
        if let Some((page, round)) = &self.last {
            if page.as_slice() == document {
                return Some(*round);
            }
        }
        self.archive.get(document).copied()
    }

    /// Has `document` ever been printed?
    pub fn has_printed(&self, document: &[u8]) -> bool {
        self.prints_of(document).is_some()
    }

    /// The most recent page, if any.
    pub fn last_page(&self) -> Option<&[u8]> {
        self.last.as_ref().map(|(page, _)| page.as_slice())
    }

    /// Number of distinct pages ever printed.
    pub fn distinct_pages(&self) -> usize {
        let unarchived_last = match &self.last {
            Some((page, _)) if !self.archive.contains_key(page.as_slice()) => 1,
            _ => 0,
        };
        self.archive.len() + unarchived_last
    }

    /// Records a print of `page` at `round`. Reprints of the current last
    /// page are allocation-free; a *different* page flushes the displaced
    /// one into the archive (copy-on-write, since snapshots share it).
    fn record_print(&mut self, page: &[u8], round: u64) {
        match &mut self.last {
            Some((current, r)) if current.as_slice() == page => *r = round,
            _ => {
                if let Some((displaced, r)) = self.last.take() {
                    let displaced = match Arc::try_unwrap(displaced) {
                        Ok(v) => v,
                        Err(shared) => shared.as_ref().clone(),
                    };
                    Arc::make_mut(&mut self.archive).insert(displaced, r);
                }
                self.last = Some((Arc::new(page.to_vec()), round));
            }
        }
        self.total_pages += 1;
    }
}

/// The printer world strategy.
///
/// Protocol (fixed — this is "the rest of the system", not a negotiable
/// peer):
///
/// - server → world: `JOB:<bytes>` prints `<bytes>` as a page. Empty
///   payloads and anything else are ignored (printers shrug at line noise).
/// - world → user: after printing a page, `TRAY:<bytes>` — the user watches
///   pages land in the output tray. This is the feedback sensing builds on.
#[derive(Clone, Debug)]
pub struct PrinterWorld {
    state: PrinterState,
    /// Scratch buffer for building `TRAY:` reports without a per-print
    /// allocation.
    report_buf: Vec<u8>,
}

impl PrinterWorld {
    /// A printer with `junk_pages` pre-existing pages on the tray (the
    /// "arbitrary start state" of the theorems: someone printed before us).
    pub fn new(junk_pages: usize) -> Self {
        let mut state = PrinterState::default();
        for i in 0..junk_pages {
            let page = format!("junk-{i}").into_bytes();
            state.record_print(&page, 0);
        }
        PrinterWorld { state, report_buf: Vec::new() }
    }
}

impl WorldStrategy for PrinterWorld {
    type State = PrinterState;

    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &WorldIn) -> WorldOut {
        let mut out = WorldOut::silence();
        let bytes = input.from_server.as_bytes();
        if bytes.starts_with(JOB_PREFIX) && bytes.len() > JOB_PREFIX.len() {
            let page = &bytes[JOB_PREFIX.len()..];
            self.report_buf.clear();
            self.report_buf.extend_from_slice(TRAY_PREFIX);
            self.report_buf.extend_from_slice(page);
            self.state.record_print(page, ctx.round);
            out = WorldOut::to_user(Message::from_bytes(&self.report_buf));
        }
        self.state.round = ctx.round + 1;
        out
    }

    fn state(&self) -> PrinterState {
        self.state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_core::rng::GocRng;

    fn step_world(w: &mut PrinterWorld, round: u64, from_server: &[u8]) -> WorldOut {
        let mut rng = GocRng::seed_from_u64(0);
        let mut ctx = StepCtx::new(round, &mut rng);
        w.step(
            &mut ctx,
            &WorldIn {
                from_user: Message::silence(),
                from_server: Message::from_bytes(from_server.to_vec()),
            },
        )
    }

    #[test]
    fn prints_valid_jobs_and_reports_tray() {
        let mut w = PrinterWorld::new(0);
        let out = step_world(&mut w, 0, b"JOB:hello");
        assert_eq!(out.to_user.as_bytes(), b"TRAY:hello");
        assert!(w.state().has_printed(b"hello"));
        assert_eq!(w.state().prints_of(b"hello"), Some(0));
        assert_eq!(w.state().total_pages, 1);
        assert_eq!(w.state().last_page(), Some(b"hello".as_slice()));
    }

    #[test]
    fn ignores_malformed_jobs() {
        let mut w = PrinterWorld::new(0);
        assert_eq!(step_world(&mut w, 0, b"PRINT hello"), WorldOut::silence());
        assert_eq!(step_world(&mut w, 1, b"JOB:"), WorldOut::silence());
        assert_eq!(step_world(&mut w, 2, b""), WorldOut::silence());
        assert_eq!(w.state().total_pages, 0);
    }

    #[test]
    fn ignores_direct_user_messages() {
        // The user cannot print directly: only the server channel drives the
        // printer (that is what makes the server necessary).
        let mut w = PrinterWorld::new(0);
        let mut rng = GocRng::seed_from_u64(0);
        let mut ctx = StepCtx::new(0, &mut rng);
        let out = w.step(
            &mut ctx,
            &WorldIn { from_user: Message::from("JOB:direct"), from_server: Message::silence() },
        );
        assert_eq!(out, WorldOut::silence());
        assert!(!w.state().has_printed(b"direct"));
    }

    #[test]
    fn junk_pages_model_arbitrary_start() {
        let w = PrinterWorld::new(3);
        assert_eq!(w.state().total_pages, 3);
        assert!(w.state().has_printed(b"junk-1"));
    }

    #[test]
    fn prints_of_tracks_most_recent() {
        let mut w = PrinterWorld::new(0);
        step_world(&mut w, 0, b"JOB:a");
        step_world(&mut w, 1, b"JOB:b");
        step_world(&mut w, 2, b"JOB:a");
        assert_eq!(w.state().prints_of(b"a"), Some(2));
        assert_eq!(w.state().prints_of(b"b"), Some(1));
        assert_eq!(w.state().prints_of(b"c"), None);
        assert_eq!(w.state().total_pages, 3);
    }

    #[test]
    fn state_stays_bounded_under_reprints() {
        let mut w = PrinterWorld::new(0);
        for r in 0..10_000 {
            step_world(&mut w, r, b"JOB:heartbeat");
        }
        assert_eq!(w.state().distinct_pages(), 1, "summary, not a log");
        assert_eq!(w.state().total_pages, 10_000);
    }

    #[test]
    fn alternating_pages_keep_latest_rounds() {
        let mut w = PrinterWorld::new(0);
        step_world(&mut w, 0, b"JOB:a");
        step_world(&mut w, 1, b"JOB:b");
        step_world(&mut w, 2, b"JOB:a");
        step_world(&mut w, 3, b"JOB:b");
        // "a" was displaced twice; its archived round must be the latest.
        assert_eq!(w.state().prints_of(b"a"), Some(2));
        assert_eq!(w.state().prints_of(b"b"), Some(3));
        assert_eq!(w.state().distinct_pages(), 2);
        assert_eq!(w.state().last_page(), Some(b"b".as_slice()));
    }

    #[test]
    fn snapshots_are_independent_of_later_prints() {
        let mut w = PrinterWorld::new(0);
        step_world(&mut w, 0, b"JOB:a");
        let snap = w.state();
        step_world(&mut w, 1, b"JOB:a");
        step_world(&mut w, 2, b"JOB:b");
        // The old snapshot must not see prints that happened after it was
        // taken (copy-on-write must not leak through shared archives).
        assert_eq!(snap.prints_of(b"a"), Some(0));
        assert!(!snap.has_printed(b"b"));
        assert_eq!(snap.total_pages, 1);
    }
}
