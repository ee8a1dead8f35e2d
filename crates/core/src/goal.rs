//! Goals of communication: world families plus referees.
//!
//! A goal (paper §2) is fixed by (a) the world's **non-deterministic**
//! strategy — here, a family of probabilistic worlds from which
//! [`Goal::spawn_world`] draws one together with an arbitrary start state —
//! and (b) a **referee** predicate on sequences of world states.
//!
//! Two families of goals (paper §3):
//!
//! - **Finite goals** ([`FiniteGoal`]): the user must halt, and the referee
//!   judges the finite history (and the user's output) at that point.
//! - **Compact goals** ([`CompactGoal`]): the system runs forever, and the
//!   execution is successful iff only *finitely many* prefixes of the world
//!   history are unacceptable. At a bounded horizon this limit statement is
//!   approximated by [`CompactVerdict`]: success means the bad prefixes stop
//!   occurring well before the horizon (a *stabilization window*).

use crate::exec::{Transcript, TranscriptView};
use crate::rng::GocRng;
use crate::strategy::{Halt, WorldStrategy};

/// The referee's state snapshot type of a goal's world.
pub type StateOf<G> = <<G as Goal>::World as WorldStrategy>::State;

/// Whether a goal is finite or compact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GoalKind {
    /// The user halts; the referee judges the finite history.
    Finite,
    /// The system runs forever; success iff finitely many bad prefixes.
    Compact,
}

impl std::fmt::Display for GoalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoalKind::Finite => write!(f, "finite"),
            GoalKind::Compact => write!(f, "compact"),
        }
    }
}

/// A goal of communication: a world family and (via the sub-traits) a
/// referee.
///
/// Implementors provide one of [`FiniteGoal`] or [`CompactGoal`] (or both,
/// for goals with natural variants of each kind).
pub trait Goal {
    /// The world strategy type of this goal.
    type World: WorldStrategy;

    /// Performs the world's single non-deterministic choice (paper,
    /// footnote 2) *and* draws an arbitrary start state: the theorems
    /// quantify over executions started from any world/server state.
    fn spawn_world(&self, rng: &mut GocRng) -> Self::World;

    /// Whether this goal is finite or compact.
    fn kind(&self) -> GoalKind;

    /// A short human-readable name for diagnostics.
    fn name(&self) -> String {
        "goal".to_string()
    }
}

/// A finite goal: the referee judges the history when the user halts.
pub trait FiniteGoal: Goal {
    /// Returns `true` if the finite world-state history (initial state
    /// first) together with the user's halting verdict is acceptable.
    fn accepts(&self, history: &[StateOf<Self>], halt: &Halt) -> bool;
}

/// A compact goal: the referee (temporally) judges every prefix.
pub trait CompactGoal: Goal {
    /// Returns `true` if the given prefix of the world-state history is
    /// acceptable. An infinite execution succeeds iff this returns `false`
    /// only finitely often along the history.
    fn prefix_acceptable(&self, prefix: &[StateOf<Self>]) -> bool;
}

/// The outcome of judging a finite-goal transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiniteVerdict {
    /// Did the user halt at all?
    pub halted: bool,
    /// Did the referee accept? (`false` whenever the user never halted —
    /// finite goals require halting.)
    pub achieved: bool,
    /// Rounds executed.
    pub rounds: u64,
}

/// Judges a finite-goal transcript.
///
/// # Examples
///
/// See [`crate::toy`] for a complete worked goal.
pub fn evaluate_finite<G: FiniteGoal>(goal: &G, transcript: &Transcript<StateOf<G>>) -> FiniteVerdict {
    evaluate_finite_view(goal, transcript.as_view())
}

/// [`evaluate_finite`] over a borrowing [`TranscriptView`] — no transcript
/// clone required.
pub fn evaluate_finite_view<G: FiniteGoal>(
    goal: &G,
    transcript: TranscriptView<'_, StateOf<G>>,
) -> FiniteVerdict {
    match transcript.halt() {
        Some(halt) => FiniteVerdict {
            halted: true,
            achieved: goal.accepts(transcript.world_states, halt),
            rounds: transcript.rounds,
        },
        None => FiniteVerdict { halted: false, achieved: false, rounds: transcript.rounds },
    }
}

/// The outcome of judging a compact-goal transcript at a bounded horizon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactVerdict {
    /// Number of unacceptable prefixes observed.
    pub bad_prefixes: u64,
    /// Index (in prefix length) of the last unacceptable prefix, if any.
    pub last_bad_prefix: Option<u64>,
    /// Total number of prefixes judged (= history length).
    pub total_prefixes: u64,
}

impl CompactVerdict {
    /// Bounded-horizon approximation of "finitely many bad prefixes": no
    /// prefix in the final `window` prefixes was unacceptable.
    ///
    /// Larger windows give stricter approximations; experiments should check
    /// achievement is stable as the horizon grows.
    pub fn achieved(&self, window: u64) -> bool {
        match self.last_bad_prefix {
            None => true,
            Some(last) => last + window < self.total_prefixes,
        }
    }

    /// `true` if *no* prefix was unacceptable.
    pub fn flawless(&self) -> bool {
        self.bad_prefixes == 0
    }
}

/// Judges a compact-goal transcript by evaluating the referee on every
/// prefix of the world-state history.
pub fn evaluate_compact<G: CompactGoal>(
    goal: &G,
    transcript: &Transcript<StateOf<G>>,
) -> CompactVerdict {
    evaluate_compact_view(goal, transcript.as_view())
}

/// [`evaluate_compact`] over a borrowing [`TranscriptView`] — no transcript
/// clone required.
pub fn evaluate_compact_view<G: CompactGoal>(
    goal: &G,
    transcript: TranscriptView<'_, StateOf<G>>,
) -> CompactVerdict {
    let mut bad = 0u64;
    let mut last_bad = None;
    let n = transcript.world_states.len();
    for len in 1..=n {
        if !goal.prefix_acceptable(&transcript.world_states[..len]) {
            bad += 1;
            last_bad = Some(len as u64);
        }
    }
    CompactVerdict { bad_prefixes: bad, last_bad_prefix: last_bad, total_prefixes: n as u64 }
}

/// A streaming compact-goal judge: feed world states one at a time and read
/// the verdict at any point, in O(1) memory beyond the growing prefix.
///
/// Equivalent to [`evaluate_compact`] on the same state sequence (asserted
/// by tests); preferable for very long executions where keeping the whole
/// transcript around is wasteful.
#[derive(Debug)]
pub struct CompactMonitor<'a, G: CompactGoal> {
    goal: &'a G,
    prefix: Vec<StateOf<G>>,
    bad: u64,
    last_bad: Option<u64>,
}

impl<'a, G: CompactGoal> CompactMonitor<'a, G> {
    /// A fresh monitor for `goal`.
    pub fn new(goal: &'a G) -> Self {
        CompactMonitor { goal, prefix: Vec::new(), bad: 0, last_bad: None }
    }

    /// Feeds the next world state (in history order).
    pub fn push(&mut self, state: StateOf<G>) {
        self.prefix.push(state);
        if !self.goal.prefix_acceptable(&self.prefix) {
            self.bad += 1;
            self.last_bad = Some(self.prefix.len() as u64);
        }
    }

    /// The verdict over everything fed so far.
    pub fn verdict(&self) -> CompactVerdict {
        CompactVerdict {
            bad_prefixes: self.bad,
            last_bad_prefix: self.last_bad,
            total_prefixes: self.prefix.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StopReason;
    use crate::msg::Message;
    use crate::view::UserView;

    struct Evens;

    #[derive(Debug)]
    struct DummyWorld;

    impl WorldStrategy for DummyWorld {
        type State = u64;
        fn step(
            &mut self,
            _: &mut crate::strategy::StepCtx<'_>,
            _: &crate::msg::WorldIn,
        ) -> crate::msg::WorldOut {
            crate::msg::WorldOut::silence()
        }
        fn state(&self) -> u64 {
            0
        }
    }

    impl Goal for Evens {
        type World = DummyWorld;
        fn spawn_world(&self, _rng: &mut GocRng) -> DummyWorld {
            DummyWorld
        }
        fn kind(&self) -> GoalKind {
            GoalKind::Compact
        }
    }

    impl CompactGoal for Evens {
        fn prefix_acceptable(&self, prefix: &[u64]) -> bool {
            prefix.last().map(|s| s % 2 == 0).unwrap_or(true)
        }
    }

    impl FiniteGoal for Evens {
        fn accepts(&self, history: &[u64], halt: &Halt) -> bool {
            history.last().map(|s| s % 2 == 0).unwrap_or(false)
                && halt.output == Message::from("even")
        }
    }

    fn transcript(states: Vec<u64>, stop: StopReason) -> Transcript<u64> {
        Transcript { world_states: states.into(), view: UserView::new().into(), rounds: 0, stop }
    }

    #[test]
    fn compact_counts_bad_prefixes() {
        let t = transcript(vec![0, 1, 2, 3, 4, 4, 4], StopReason::HorizonExhausted);
        let v = evaluate_compact(&Evens, &t);
        assert_eq!(v.bad_prefixes, 2); // prefixes ending in 1 and 3
        assert_eq!(v.last_bad_prefix, Some(4));
        assert_eq!(v.total_prefixes, 7);
        assert!(v.achieved(2));
        assert!(!v.achieved(3));
        assert!(!v.flawless());
    }

    #[test]
    fn compact_flawless_run() {
        let t = transcript(vec![0, 2, 4], StopReason::HorizonExhausted);
        let v = evaluate_compact(&Evens, &t);
        assert!(v.flawless());
        assert!(v.achieved(100));
        assert_eq!(v.last_bad_prefix, None);
    }

    #[test]
    fn finite_requires_halt() {
        let t = transcript(vec![0, 2], StopReason::HorizonExhausted);
        let v = evaluate_finite(&Evens, &t);
        assert!(!v.halted);
        assert!(!v.achieved);
    }

    #[test]
    fn finite_checks_referee_on_halt() {
        let good = transcript(
            vec![0, 2],
            StopReason::UserHalted(Halt::with_output("even")),
        );
        assert!(evaluate_finite(&Evens, &good).achieved);

        let wrong_output =
            transcript(vec![0, 2], StopReason::UserHalted(Halt::with_output("odd")));
        assert!(!evaluate_finite(&Evens, &wrong_output).achieved);

        let wrong_state =
            transcript(vec![0, 3], StopReason::UserHalted(Halt::with_output("even")));
        assert!(!evaluate_finite(&Evens, &wrong_state).achieved);
    }

    #[test]
    fn goal_kind_display() {
        assert_eq!(GoalKind::Finite.to_string(), "finite");
        assert_eq!(GoalKind::Compact.to_string(), "compact");
    }

    #[test]
    fn compact_monitor_matches_batch_evaluation() {
        let states = vec![0u64, 1, 2, 3, 4, 4, 7, 8];
        let t = transcript(states.clone(), StopReason::HorizonExhausted);
        let batch = evaluate_compact(&Evens, &t);
        let mut monitor = CompactMonitor::new(&Evens);
        for s in states {
            monitor.push(s);
        }
        assert_eq!(monitor.verdict(), batch);
    }

    #[test]
    fn compact_monitor_empty_is_vacuously_good() {
        let monitor = CompactMonitor::new(&Evens);
        let v = monitor.verdict();
        assert_eq!(v.total_prefixes, 0);
        assert!(v.flawless());
        assert!(v.achieved(10));
    }
}
