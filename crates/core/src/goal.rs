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
//!
//! Referees **stream**: they are fed the world states one at a time, in
//! history order, and keep whatever they need to remember in a memory of
//! their own ([`FiniteGoal::Memory`], [`CompactGoal::Memory`]). A referee
//! that remembers every state it was fed sees the whole prefix, so this is
//! exactly as expressive as a predicate on state sequences. Every shipped
//! referee remembers nothing: its worlds carry the tallies it reads in
//! their state. Such a referee judges an execution from its final state
//! alone, so the execution need not record its history.

use crate::exec::{Execution, Transcript};
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
    /// What the referee remembers of the states it was fed: `()` for a
    /// referee that judges the final state alone.
    type Memory: Default;

    /// Feeds the referee the next world state, initial state first. The
    /// default remembers nothing.
    fn observe(&self, memory: &mut Self::Memory, state: &StateOf<Self>) {
        let _ = (memory, state);
    }

    /// Returns `true` if the history fed so far, ending in `last`, together
    /// with the user's halting verdict is acceptable.
    fn accepts(&self, memory: &Self::Memory, last: &StateOf<Self>, halt: &Halt) -> bool;
}

/// A compact goal: the referee (temporally) judges every prefix.
pub trait CompactGoal: Goal {
    /// What the referee remembers of the states it was fed: `()` for a
    /// referee that judges each prefix by its last state.
    type Memory: Default;

    /// Feeds the referee the next world state (initial state first) and
    /// returns `true` if the prefix of the history ending in it is
    /// acceptable. An infinite execution succeeds iff this returns `false`
    /// only finitely often along the history.
    fn prefix_acceptable(&self, memory: &mut Self::Memory, state: &StateOf<Self>) -> bool;
}

/// Whether a referee memory of type `M` can hold anything at all. A
/// zero-sized memory cannot, so its referee's verdict depends on the
/// final state alone.
const fn remembers<M>() -> bool {
    std::mem::size_of::<M>() != 0
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

/// A streaming finite-goal referee: feed it the world states one at a time
/// and judge the history fed so far at any point.
#[derive(Debug)]
pub struct FiniteMonitor<'a, G: FiniteGoal> {
    goal: &'a G,
    memory: G::Memory,
}

impl<'a, G: FiniteGoal> FiniteMonitor<'a, G> {
    /// A monitor for `goal` that has been fed nothing.
    pub fn new(goal: &'a G) -> Self {
        FiniteMonitor { goal, memory: G::Memory::default() }
    }

    /// A monitor fed the current state of `exec`.
    pub fn start(goal: &'a G, exec: &Execution<G::World>) -> Self {
        let mut monitor = FiniteMonitor::new(goal);
        if remembers::<G::Memory>() {
            monitor.push(&exec.world_state());
        }
        monitor
    }

    /// Feeds the next world state (in history order).
    pub fn push(&mut self, state: &StateOf<G>) {
        self.goal.observe(&mut self.memory, state);
    }

    /// [`Execution::run`], feeding the monitor the state after each round.
    /// A referee that remembers nothing is judged by the final state alone,
    /// so it is fed nothing and the run is a plain one.
    pub fn run(
        &mut self,
        exec: &mut Execution<G::World>,
        horizon: u64,
    ) -> Transcript<StateOf<G>> {
        if remembers::<G::Memory>() {
            exec.run_each(horizon, |e| self.push(&e.world_state()))
        } else {
            exec.run(horizon)
        }
    }

    /// Whether the history fed so far, ending in `last`, is acceptable
    /// with the halting verdict `halt`.
    pub fn accepts(&self, last: &StateOf<G>, halt: &Halt) -> bool {
        self.goal.accepts(&self.memory, last, halt)
    }

    /// The verdict on `transcript`, whose states this monitor was fed.
    pub fn verdict(&self, transcript: &Transcript<StateOf<G>>) -> FiniteVerdict {
        let rounds = transcript.rounds;
        match transcript.halt() {
            Some(halt) => {
                FiniteVerdict { halted: true, achieved: self.accepts(&transcript.state, halt), rounds }
            }
            None => FiniteVerdict { halted: false, achieved: false, rounds },
        }
    }
}

/// Judges a finite-goal transcript: a recorded one by feeding the referee
/// every recorded state, an unrecorded one by its final state alone.
///
/// # Panics
///
/// If the transcript is unrecorded and the referee has a memory: its
/// verdict depends on states the transcript does not hold. Record the
/// execution ([`Execution::recording`]) or feed a [`FiniteMonitor`] every
/// round ([`Execution::run_each`]).
///
/// # Examples
///
/// See [`crate::toy`] for a complete worked goal.
pub fn evaluate_finite<G: FiniteGoal>(goal: &G, transcript: &Transcript<StateOf<G>>) -> FiniteVerdict {
    let mut monitor = FiniteMonitor::new(goal);
    match &transcript.history {
        Some(history) => history.world_states.iter().for_each(|s| monitor.push(s)),
        None => assert!(
            !remembers::<G::Memory>(),
            "evaluate_finite: the referee of `{}` remembers the history, which this transcript does not hold",
            goal.name()
        ),
    }
    monitor.verdict(transcript)
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

/// Judges a recorded compact-goal transcript by feeding a
/// [`CompactMonitor`] every recorded state.
///
/// # Panics
///
/// If the transcript is unrecorded: a compact verdict judges every prefix.
/// Feed a [`CompactMonitor`] while the execution runs instead.
pub fn evaluate_compact<G: CompactGoal>(
    goal: &G,
    transcript: &Transcript<StateOf<G>>,
) -> CompactVerdict {
    let mut monitor = CompactMonitor::new(goal);
    transcript.world_states().iter().for_each(|s| monitor.push(s));
    monitor.verdict()
}

/// A streaming compact-goal judge: feed it the world states one at a time
/// and read the verdict at any point. It holds the referee's memory and
/// three counters, so with a shipped referee its size is constant in the
/// length of the execution.
///
/// # Examples
///
/// ```
/// use goc_core::exec::Execution;
/// use goc_core::goal::{CompactMonitor, Goal};
/// use goc_core::rng::GocRng;
/// use goc_core::toy;
///
/// let goal = toy::CompactMagicWordGoal::new("hi", 16);
/// let mut rng = GocRng::seed_from_u64(1);
/// let mut exec = Execution::new(
///     goal.spawn_world(&mut rng),
///     Box::new(toy::RelayServer::default()),
///     Box::new(toy::SayThrough::persistent("hi")),
///     rng,
/// );
/// let mut monitor = CompactMonitor::start(&goal, &exec);
/// monitor.run_for(&mut exec, 200);
/// assert!(monitor.verdict().achieved(50));
/// assert_eq!(monitor.verdict().total_prefixes, 201);
/// ```
#[derive(Debug)]
pub struct CompactMonitor<'a, G: CompactGoal> {
    goal: &'a G,
    memory: G::Memory,
    bad: u64,
    last_bad: Option<u64>,
    total: u64,
}

impl<'a, G: CompactGoal> CompactMonitor<'a, G> {
    /// A monitor for `goal` that has been fed nothing.
    pub fn new(goal: &'a G) -> Self {
        CompactMonitor { goal, memory: G::Memory::default(), bad: 0, last_bad: None, total: 0 }
    }

    /// A monitor fed the current state of `exec`: the first prefix it
    /// judges is the one ending now.
    pub fn start(goal: &'a G, exec: &Execution<G::World>) -> Self {
        let mut monitor = CompactMonitor::new(goal);
        monitor.push(&exec.world_state());
        monitor
    }

    /// Feeds the next world state (in history order).
    pub fn push(&mut self, state: &StateOf<G>) {
        self.total += 1;
        if !self.goal.prefix_acceptable(&mut self.memory, state) {
            self.bad += 1;
            self.last_bad = Some(self.total);
        }
    }

    /// [`Execution::run`], feeding the monitor the state after each round.
    pub fn run(
        &mut self,
        exec: &mut Execution<G::World>,
        horizon: u64,
    ) -> Transcript<StateOf<G>> {
        exec.run_each(horizon, |e| self.push(&e.world_state()))
    }

    /// [`Execution::run_for`], feeding the monitor the state after each
    /// round.
    pub fn run_for(
        &mut self,
        exec: &mut Execution<G::World>,
        horizon: u64,
    ) -> Transcript<StateOf<G>> {
        exec.run_for_each(horizon, |e| self.push(&e.world_state()))
    }

    /// The verdict over everything fed so far.
    pub fn verdict(&self) -> CompactVerdict {
        CompactVerdict {
            bad_prefixes: self.bad,
            last_bad_prefix: self.last_bad,
            total_prefixes: self.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{History, StopReason};
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
        type Memory = ();
        fn prefix_acceptable(&self, _: &mut (), state: &u64) -> bool {
            state % 2 == 0
        }
    }

    impl FiniteGoal for Evens {
        type Memory = ();
        fn accepts(&self, _: &(), last: &u64, halt: &Halt) -> bool {
            last % 2 == 0 && halt.output == Message::from("even")
        }
    }

    /// Evens, except that a history which ever held an odd state is
    /// refused: a referee that needs its memory.
    struct EvenSoFar;

    impl Goal for EvenSoFar {
        type World = DummyWorld;
        fn spawn_world(&self, _rng: &mut GocRng) -> DummyWorld {
            DummyWorld
        }
        fn kind(&self) -> GoalKind {
            GoalKind::Finite
        }
    }

    impl FiniteGoal for EvenSoFar {
        /// Whether an odd state was fed.
        type Memory = bool;
        fn observe(&self, odd_seen: &mut bool, state: &u64) {
            *odd_seen |= state % 2 == 1;
        }
        fn accepts(&self, odd_seen: &bool, last: &u64, halt: &Halt) -> bool {
            !odd_seen && Evens.accepts(&(), last, halt)
        }
    }

    fn transcript(states: Vec<u64>, stop: StopReason) -> Transcript<u64> {
        Transcript {
            state: *states.last().unwrap(),
            history: Some(History { world_states: states, view: UserView::new() }),
            rounds: 0,
            stop,
        }
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
    fn an_unrecorded_transcript_is_judged_by_its_final_state() {
        let halt = StopReason::UserHalted(Halt::with_output("even"));
        let mut t = transcript(vec![1, 2], halt);
        t.history = None;
        assert!(evaluate_finite(&Evens, &t).achieved);
    }

    #[test]
    fn a_referee_with_memory_reads_the_whole_history() {
        let halt = || StopReason::UserHalted(Halt::with_output("even"));
        assert!(evaluate_finite(&EvenSoFar, &transcript(vec![0, 2], halt())).achieved);
        assert!(!evaluate_finite(&EvenSoFar, &transcript(vec![1, 2], halt())).achieved);
    }

    #[test]
    #[should_panic(expected = "remembers the history")]
    fn a_referee_with_memory_refuses_an_unrecorded_transcript() {
        let mut t = transcript(vec![1, 2], StopReason::UserHalted(Halt::with_output("even")));
        t.history = None;
        evaluate_finite(&EvenSoFar, &t);
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
