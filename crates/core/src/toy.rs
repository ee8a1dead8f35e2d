//! A miniature, fully-worked goal used in tests, doctests and benchmarks.
//!
//! **The magic-word goal.** The world is satisfied when it hears a magic
//! word *from the server*; the user cannot tell the world anything directly
//! that counts. Servers are relays that apply an unknown Caesar shift to
//! everything the user says — the toy stand-in for "the server speaks a
//! different language". When the world hears the word it acknowledges to the
//! user with `ACK`, which yields natural safe-and-viable sensing.
//!
//! The module provides both a [finite](MagicWordGoal) variant (halt once the
//! word has been heard) and a [compact](CompactMagicWordGoal) variant (the
//! word must keep being heard), plus the matching enumeration
//! ([`caesar_class`]) and sensing ([`ack_sensing`]).

use crate::enumeration::SliceEnumerator;
use crate::goal::{CompactGoal, FiniteGoal, Goal, GoalKind};
use crate::msg::{Message, ServerIn, ServerOut, UserIn, UserOut, WorldIn, WorldOut};
use crate::rng::GocRng;
use crate::sensing::{FnSensing, Indication, Sensing};
use crate::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use crate::strategy::{Halt, ServerStrategy, StepCtx, UserStrategy, WorldStrategy};
use crate::view::ViewEvent;

/// The world's acknowledgement message.
pub const ACK: &str = "ACK";

/// Referee-visible state of the magic-word world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MagicState {
    /// How many times the word has been heard from the server.
    pub heard_count: u64,
    /// The round at which the word was last heard, if ever.
    pub last_heard_round: Option<u64>,
    /// Rounds elapsed.
    pub round: u64,
}

/// The world of the magic-word goal.
#[derive(Clone, Debug)]
pub struct MagicWorld {
    word: Vec<u8>,
    state: MagicState,
}

impl MagicWorld {
    /// A world waiting to hear `word` from the server.
    pub fn new(word: impl AsRef<[u8]>) -> Self {
        MagicWorld {
            word: word.as_ref().to_vec(),
            state: MagicState { heard_count: 0, last_heard_round: None, round: 0 },
        }
    }
}

impl SnapState for MagicState {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.u64(self.heard_count);
        self.last_heard_round.encode(w);
        w.u64(self.round);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MagicState {
            heard_count: r.u64("magic heard_count")?,
            last_heard_round: Option::<u64>::decode(r)?,
            round: r.u64("magic round")?,
        })
    }
}

impl WorldStrategy for MagicWorld {
    type State = MagicState;

    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &WorldIn) -> WorldOut {
        let mut out = WorldOut::silence();
        if input.from_server.as_bytes() == self.word.as_slice() {
            self.state.heard_count += 1;
            self.state.last_heard_round = Some(ctx.round);
            out = WorldOut::to_user(ACK);
        }
        self.state.round = ctx.round + 1;
        out
    }

    fn state(&self) -> MagicState {
        self.state.clone()
    }

    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.state.encode(w);
        Ok(())
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.state = MagicState::decode(r)?;
        Ok(())
    }
}

/// Finite goal: the world must hear the magic word at least once before the
/// user halts.
#[derive(Clone, Debug)]
pub struct MagicWordGoal {
    word: Vec<u8>,
}

impl MagicWordGoal {
    /// A finite magic-word goal for `word`.
    pub fn new(word: impl AsRef<[u8]>) -> Self {
        MagicWordGoal { word: word.as_ref().to_vec() }
    }

    /// The magic word.
    pub fn word(&self) -> &[u8] {
        &self.word
    }
}

impl Goal for MagicWordGoal {
    type World = MagicWorld;

    fn spawn_world(&self, _rng: &mut GocRng) -> MagicWorld {
        MagicWorld::new(&self.word)
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Finite
    }

    fn name(&self) -> String {
        "toy/magic-word".to_string()
    }
}

impl FiniteGoal for MagicWordGoal {
    type Memory = ();

    fn accepts(&self, _: &(), last: &MagicState, _halt: &Halt) -> bool {
        last.heard_count > 0
    }
}

/// Compact goal: the world must keep hearing the magic word — a prefix is
/// acceptable iff the word was heard within its last `window` rounds (with a
/// start-up grace of one window).
#[derive(Clone, Debug)]
pub struct CompactMagicWordGoal {
    word: Vec<u8>,
    window: u64,
}

impl CompactMagicWordGoal {
    /// A compact magic-word goal: the word must recur every `window` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(word: impl AsRef<[u8]>, window: u64) -> Self {
        assert!(window > 0, "CompactMagicWordGoal requires a positive window");
        CompactMagicWordGoal { word: word.as_ref().to_vec(), window }
    }

    /// The recurrence window.
    pub fn window(&self) -> u64 {
        self.window
    }
}

impl Goal for CompactMagicWordGoal {
    type World = MagicWorld;

    fn spawn_world(&self, _rng: &mut GocRng) -> MagicWorld {
        MagicWorld::new(&self.word)
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Compact
    }

    fn name(&self) -> String {
        "toy/magic-word-compact".to_string()
    }
}

impl CompactGoal for CompactMagicWordGoal {
    type Memory = ();

    fn prefix_acceptable(&self, _: &mut (), last: &MagicState) -> bool {
        if last.round < self.window {
            return true; // start-up grace
        }
        match last.last_heard_round {
            Some(heard) => last.round - heard <= self.window,
            None => false,
        }
    }
}

/// A relay server applying a Caesar shift to the user's bytes before passing
/// them to the world. Shift 0 is the "same language" server.
#[derive(Clone, Debug, Default)]
pub struct RelayServer {
    shift: u8,
}

impl RelayServer {
    /// A relay with byte shift `shift` (mod 256).
    pub fn with_shift(shift: u8) -> Self {
        RelayServer { shift }
    }
}

impl ServerStrategy for RelayServer {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, input: &ServerIn) -> ServerOut {
        if input.from_user.is_silence() {
            return ServerOut::silence();
        }
        let shifted: Vec<u8> =
            input.from_user.as_bytes().iter().map(|b| b.wrapping_add(self.shift)).collect();
        ServerOut::to_world(shifted)
    }

    fn fork(&self) -> Option<crate::strategy::BoxedServer> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> String {
        format!("caesar-relay(+{})", self.shift)
    }

    fn save_snap(&self, _w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        Ok(()) // the shift is config, recorded in the name tag
    }

    fn restore_snap(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// A user that sends a fixed phrase to the server every round and halts on
/// `ACK` from the world (finite variant).
#[derive(Clone, Debug)]
pub struct SayThrough {
    phrase: Vec<u8>,
    halt: Option<Halt>,
    persistent: bool,
}

impl SayThrough {
    /// A user repeating `phrase` that halts upon the world's `ACK`.
    pub fn new(phrase: impl AsRef<[u8]>) -> Self {
        SayThrough { phrase: phrase.as_ref().to_vec(), halt: None, persistent: false }
    }

    /// A user repeating `phrase` forever (for compact goals).
    pub fn persistent(phrase: impl AsRef<[u8]>) -> Self {
        SayThrough { phrase: phrase.as_ref().to_vec(), halt: None, persistent: true }
    }

    /// A user repeating `word` pre-shifted so a [`RelayServer`] with shift
    /// `shift` delivers the intact word to the world.
    pub fn compensating(word: impl AsRef<[u8]>, shift: u8) -> Self {
        let phrase: Vec<u8> = word.as_ref().iter().map(|b| b.wrapping_sub(shift)).collect();
        SayThrough::new(phrase)
    }

    /// Persistent variant of [`compensating`](Self::compensating).
    pub fn compensating_persistent(word: impl AsRef<[u8]>, shift: u8) -> Self {
        let phrase: Vec<u8> = word.as_ref().iter().map(|b| b.wrapping_sub(shift)).collect();
        SayThrough::persistent(phrase)
    }
}

impl UserStrategy for SayThrough {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        if self.halt.is_some() {
            return UserOut::silence();
        }
        if !self.persistent && input.from_world.as_bytes() == ACK.as_bytes() {
            self.halt = Some(Halt::with_output("heard"));
            return UserOut::silence();
        }
        UserOut::to_server(self.phrase.clone())
    }

    fn halted(&self) -> Option<Halt> {
        self.halt.clone()
    }

    fn fork(&self) -> Option<crate::strategy::BoxedUser> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> String {
        format!(
            "say-through({}{})",
            Message::from_bytes(self.phrase.clone()),
            if self.persistent { ", persistent" } else { "" }
        )
    }

    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.halt.encode(w);
        Ok(())
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.halt = Option::<Halt>::decode(r)?;
        Ok(())
    }
}

/// The enumerable class of Caesar-compensating users for `word`, one per
/// shift in `0..shifts`.
///
/// With `persistent = false` the users halt on `ACK` (finite goal); with
/// `persistent = true` they repeat forever (compact goal).
pub fn caesar_class(word: impl AsRef<[u8]>, shifts: u8, persistent: bool) -> SliceEnumerator {
    let word = word.as_ref().to_vec();
    let mut class = SliceEnumerator::new(format!("caesar-users(x{shifts})"));
    for shift in 0..shifts {
        let w = word.clone();
        class.push(move || {
            if persistent {
                Box::new(SayThrough::compensating_persistent(&w, shift))
            } else {
                Box::new(SayThrough::compensating(&w, shift))
            }
        });
    }
    class
}

/// Referee-visible state of the fragile world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragileState {
    /// Has the word been heard (before any poisoning)?
    pub heard: bool,
    /// Has a wrong utterance permanently poisoned the world?
    pub poisoned: bool,
    /// Rounds elapsed.
    pub round: u64,
}

/// An **unforgiving** variant of the magic-word world: the *first* non-silent
/// utterance from the server decides everything. The right word succeeds
/// forever; anything else poisons the world permanently.
///
/// The corresponding goal violates the paper's *forgiving* hypothesis
/// (§2: "every finite partial history can be extended to a successful
/// history"), and Theorem 1's enumeration visibly breaks on it: a universal
/// user's early wrong candidates poison the world before the viable
/// candidate gets its turn. See `FragileWordGoal` and experiment E10.
#[derive(Clone, Debug)]
pub struct FragileWorld {
    word: Vec<u8>,
    state: FragileState,
}

impl FragileWorld {
    /// A fragile world waiting (once) to hear `word`.
    pub fn new(word: impl AsRef<[u8]>) -> Self {
        FragileWorld {
            word: word.as_ref().to_vec(),
            state: FragileState { heard: false, poisoned: false, round: 0 },
        }
    }
}

impl SnapState for FragileState {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.bool(self.heard);
        w.bool(self.poisoned);
        w.u64(self.round);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FragileState {
            heard: r.bool("fragile heard")?,
            poisoned: r.bool("fragile poisoned")?,
            round: r.u64("fragile round")?,
        })
    }
}

impl WorldStrategy for FragileWorld {
    type State = FragileState;

    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &WorldIn) -> WorldOut {
        let mut out = WorldOut::silence();
        if !self.state.poisoned && !self.state.heard && !input.from_server.is_silence() {
            if input.from_server.as_bytes() == self.word.as_slice() {
                self.state.heard = true;
                out = WorldOut::to_user(ACK);
            } else {
                self.state.poisoned = true;
            }
        }
        self.state.round = ctx.round + 1;
        out
    }

    fn state(&self) -> FragileState {
        self.state.clone()
    }

    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.state.encode(w);
        Ok(())
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.state = FragileState::decode(r)?;
        Ok(())
    }
}

/// The **unforgiving** finite magic-word goal over [`FragileWorld`].
///
/// Included deliberately as a *negative* example: it fails the paper's
/// forgivingness hypothesis, and the universal constructions are not (and
/// cannot be) universal for it.
#[derive(Clone, Debug)]
pub struct FragileWordGoal {
    word: Vec<u8>,
}

impl FragileWordGoal {
    /// A fragile goal for `word`.
    pub fn new(word: impl AsRef<[u8]>) -> Self {
        FragileWordGoal { word: word.as_ref().to_vec() }
    }

    /// The magic word.
    pub fn word(&self) -> &[u8] {
        &self.word
    }
}

impl Goal for FragileWordGoal {
    type World = FragileWorld;

    fn spawn_world(&self, _rng: &mut GocRng) -> FragileWorld {
        FragileWorld::new(&self.word)
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Finite
    }

    fn name(&self) -> String {
        "toy/fragile-word".to_string()
    }
}

impl FiniteGoal for FragileWordGoal {
    type Memory = ();

    fn accepts(&self, _: &(), last: &FragileState, _halt: &Halt) -> bool {
        last.heard && !last.poisoned
    }
}

/// Sensing that is positive exactly when the world says `ACK`.
///
/// This is safe for the magic-word goals (the world only acks when it heard
/// the word) and viable (a correctly compensating user earns acks).
pub fn ack_sensing() -> impl Sensing {
    FnSensing::new("ack", (), |_state, ev: &ViewEvent| {
        if ev.received.from_world.as_bytes() == ACK.as_bytes() {
            Indication::Positive
        } else {
            Indication::Silent
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Execution;
    use crate::goal::{evaluate_compact, evaluate_finite};
    use crate::strategy::SilentServer;

    fn run_finite(shift: u8, user: SayThrough, horizon: u64) -> (MagicWordGoal, crate::exec::Transcript<MagicState>) {
        let goal = MagicWordGoal::new("xyzzy");
        let mut rng = GocRng::seed_from_u64(7);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(RelayServer::with_shift(shift)),
            Box::new(user),
            rng,
        );
        let t = exec.run(horizon);
        (goal, t)
    }

    #[test]
    fn informed_user_achieves_finite_goal() {
        let (goal, t) = run_finite(0, SayThrough::new("xyzzy"), 50);
        let v = evaluate_finite(&goal, &t);
        assert!(v.halted);
        assert!(v.achieved);
        assert!(v.rounds <= 6, "should succeed fast, took {}", v.rounds);
    }

    #[test]
    fn compensating_user_beats_shifted_server() {
        let (goal, t) = run_finite(13, SayThrough::compensating("xyzzy", 13), 50);
        assert!(evaluate_finite(&goal, &t).achieved);
    }

    #[test]
    fn wrong_shift_fails() {
        let (goal, t) = run_finite(13, SayThrough::compensating("xyzzy", 5), 50);
        let v = evaluate_finite(&goal, &t);
        assert!(!v.halted);
        assert!(!v.achieved);
    }

    #[test]
    fn silent_server_is_unhelpful() {
        let goal = MagicWordGoal::new("xyzzy");
        let mut rng = GocRng::seed_from_u64(7);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(SilentServer),
            Box::new(SayThrough::new("xyzzy")),
            rng,
        );
        let t = exec.run(100);
        assert!(!evaluate_finite(&goal, &t).achieved);
    }

    #[test]
    fn compact_goal_requires_persistence() {
        let goal = CompactMagicWordGoal::new("hi", 10);
        let mut rng = GocRng::seed_from_u64(3);
        // Persistent user keeps the goal satisfied.
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(RelayServer::default()),
            Box::new(SayThrough::persistent("hi")),
            rng.fork(0),
        )
        .recording();
        let t = exec.run(200);
        let v = evaluate_compact(&goal, &t);
        assert!(v.achieved(50), "verdict: {v:?}");

        // One-shot user halts (stops talking) and the compact goal decays.
        let mut exec2 = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(RelayServer::default()),
            Box::new(SayThrough::new("hi")),
            rng.fork(1),
        )
        .recording();
        let t2 = exec2.run_for(200);
        let v2 = evaluate_compact(&goal, &t2);
        assert!(!v2.achieved(50), "halting user cannot sustain a compact goal: {v2:?}");
    }

    #[test]
    fn ack_sensing_is_positive_on_ack_only() {
        let mut s = ack_sensing();
        let quiet = ViewEvent {
            round: 0,
            received: UserIn::default(),
            sent: UserOut::silence(),
        };
        assert_eq!(s.observe(&quiet), Indication::Silent);
        let acked = ViewEvent {
            round: 1,
            received: UserIn { from_server: Message::silence(), from_world: Message::from(ACK) },
            sent: UserOut::silence(),
        };
        assert_eq!(s.observe(&acked), Indication::Positive);
    }

    #[test]
    fn caesar_class_contains_the_right_user() {
        let class = caesar_class("xyzzy", 26, false);
        use crate::enumeration::StrategyEnumerator;
        assert_eq!(class.len(), Some(26));
        // Index 13 compensates for shift 13.
        let user = class.strategy(13).unwrap();
        let goal = MagicWordGoal::new("xyzzy");
        let mut rng = GocRng::seed_from_u64(1);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(RelayServer::with_shift(13)),
            user,
            rng,
        );
        let t = exec.run(50);
        assert!(evaluate_finite(&goal, &t).achieved);
    }

    #[test]
    fn world_state_tracks_rounds_and_hearing() {
        let goal = MagicWordGoal::new("ab");
        let mut rng = GocRng::seed_from_u64(2);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(RelayServer::default()),
            Box::new(SayThrough::persistent("ab")),
            rng,
        );
        let t = exec.run(10);
        let last = &t.state;
        assert!(last.heard_count >= 1);
        assert!(last.last_heard_round.is_some());
        assert_eq!(last.round, 10);
    }
}
