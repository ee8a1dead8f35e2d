//! The synchronous execution engine.
//!
//! An *execution* (paper §2) is the evolution of the system formed by a user,
//! a server and a world. Rounds are synchronous: at round *t* every party
//! consumes the messages sent to it at round *t − 1* and emits the messages
//! to be delivered at round *t + 1*.
//!
//! The engine keeps only the current state of the system. The world's state
//! is the referee's input and the user's view is the sensing functions'
//! input, but both are consumed one round at a time: a
//! [`CompactMonitor`](crate::goal::CompactMonitor) is fed each world state
//! as the round that made it ends, and sensing observes each
//! [`ViewEvent`] inside the user. A caller that needs the whole history —
//! to render it, replay sensing over it, or judge a referee against it
//! afterwards — asks for it with [`Execution::recording`], and the
//! [`Transcript`] then carries a [`History`].
//!
//! Each direction of the user↔server link carries a
//! [`Channel`](crate::channel::Channel); [`Execution::new`] installs
//! [`Perfect`] channels (the exact identity), while
//! [`Execution::with_channels`] runs the link through adversarial fault
//! models from [`crate::channel`].

use crate::channel::{BoxedChannel, Perfect};
use crate::msg::{Message, ServerIn, UserIn, WorldIn};
use crate::rng::GocRng;
use crate::snap::{ForkError, SnapError, SnapReader, SnapState, SnapWriter};
use crate::strategy::{Halt, ServerStrategy, StepCtx, UserStrategy, WorldStrategy};
use crate::view::{UserView, ViewEvent};
use std::mem::take;

/// Why an execution run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The user halted (finite goals) with the contained verdict.
    UserHalted(Halt),
    /// The round horizon was exhausted.
    HorizonExhausted,
}

/// The recorded history of an execution, kept only when asked for with
/// [`Execution::recording`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct History<S> {
    /// World states: `world_states[0]` is the state when recording began
    /// (the initial state, for an execution built recording) and
    /// `world_states[k + 1]` the state after the `k`-th recorded round.
    pub world_states: Vec<S>,
    /// The user's view of the same rounds.
    pub view: UserView,
}

/// The outcome of a run: the final world state, and the history if the
/// execution recorded one.
#[derive(Clone, Debug)]
pub struct Transcript<S> {
    /// The world state after the last round executed (the initial state if
    /// none ran). This is all a referee that keeps no memory reads.
    pub state: S,
    /// Every world state and the user's view, if the execution was built
    /// with [`Execution::recording`].
    pub history: Option<History<S>>,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl<S> Transcript<S> {
    /// The user's halting verdict, if it halted.
    pub fn halt(&self) -> Option<&Halt> {
        match &self.stop {
            StopReason::UserHalted(h) => Some(h),
            StopReason::HorizonExhausted => None,
        }
    }

    /// The recorded world states, initial state first.
    ///
    /// # Panics
    ///
    /// If the execution did not record (see [`Execution::recording`]).
    pub fn world_states(&self) -> &[S] {
        &self.recorded().world_states
    }

    /// The recorded view of the user.
    ///
    /// # Panics
    ///
    /// If the execution did not record (see [`Execution::recording`]).
    pub fn view(&self) -> &UserView {
        &self.recorded().view
    }

    fn recorded(&self) -> &History<S> {
        self.history
            .as_ref()
            .expect("the transcript holds no history: build the execution with `recording()`")
    }
}

/// A running (user, server, world) system.
///
/// The engine is generic over the world (whose state type the referee needs)
/// and takes the user and server as trait objects, mirroring the theory: the
/// goal fixes the world, while user and server vary over classes.
///
/// # Examples
///
/// ```
/// use goc_core::exec::Execution;
/// use goc_core::msg::{WorldIn, WorldOut};
/// use goc_core::rng::GocRng;
/// use goc_core::strategy::{EchoServer, SilentUser, StepCtx, WorldStrategy};
///
/// /// A world that counts rounds.
/// #[derive(Debug, Default)]
/// struct Clock {
///     ticks: u64,
/// }
///
/// impl WorldStrategy for Clock {
///     type State = u64;
///     fn step(&mut self, _: &mut StepCtx<'_>, _: &WorldIn) -> WorldOut {
///         self.ticks += 1;
///         WorldOut::silence()
///     }
///     fn state(&self) -> u64 {
///         self.ticks
///     }
/// }
///
/// let build = || {
///     Execution::new(
///         Clock::default(),
///         Box::new(EchoServer),
///         Box::new(SilentUser),
///         GocRng::seed_from_u64(7),
///     )
/// };
/// let t = build().run(10);
/// assert_eq!((t.rounds, t.state), (10, 10));
/// assert!(t.history.is_none());
///
/// // A recording execution also hands back every world state.
/// let t = build().recording().run(10);
/// assert_eq!(t.world_states(), (0..=10).collect::<Vec<_>>());
/// ```
#[derive(Debug)]
pub struct Execution<W: WorldStrategy> {
    world: W,
    server: Box<dyn ServerStrategy>,
    user: Box<dyn UserStrategy>,
    user_rng: GocRng,
    server_rng: GocRng,
    world_rng: GocRng,
    // Channels on the user↔server link (the adversarial surface of the
    // theory). The world links stay direct: the referee judges world states,
    // so tampering there would change the goal, not the communication.
    up_channel: BoxedChannel,
    down_channel: BoxedChannel,
    up_rng: GocRng,
    down_rng: GocRng,
    round: u64,
    // In-flight messages (sent last round, delivered next round).
    user_to_server: Message,
    user_to_world: Message,
    server_to_user: Message,
    server_to_world: Message,
    world_to_user: Message,
    world_to_server: Message,
    // The history, kept only by a recording execution.
    history: Option<History<W::State>>,
}

impl<W: WorldStrategy> Execution<W> {
    /// Creates an execution with [`Perfect`] channels on both directions of
    /// the user↔server link. `rng` seeds independent party streams.
    pub fn new(
        world: W,
        server: Box<dyn ServerStrategy>,
        user: Box<dyn UserStrategy>,
        rng: GocRng,
    ) -> Self {
        Execution::with_channels(world, server, user, rng, Box::new(Perfect), Box::new(Perfect))
    }

    /// Creates an execution with explicit channels: `up` carries user→server
    /// traffic, `down` carries server→user traffic. Each channel draws from
    /// its own rng fork (streams 4 and 5), so faulty channels never perturb
    /// the party streams — with two [`Perfect`] channels this is
    /// byte-for-byte [`Execution::new`].
    pub fn with_channels(
        world: W,
        server: Box<dyn ServerStrategy>,
        user: Box<dyn UserStrategy>,
        rng: GocRng,
        up: BoxedChannel,
        down: BoxedChannel,
    ) -> Self {
        Execution {
            world,
            server,
            user,
            user_rng: rng.fork(1),
            server_rng: rng.fork(2),
            world_rng: rng.fork(3),
            up_channel: up,
            down_channel: down,
            up_rng: rng.fork(4),
            down_rng: rng.fork(5),
            round: 0,
            user_to_server: Message::silence(),
            user_to_world: Message::silence(),
            server_to_user: Message::silence(),
            server_to_world: Message::silence(),
            world_to_user: Message::silence(),
            world_to_server: Message::silence(),
            history: None,
        }
    }

    /// Records the history from the current round on: the current world
    /// state, then every later world state and the user's view of every
    /// later round. Call it on a new execution to record the whole run.
    /// Recording changes what the execution keeps, never what it does.
    pub fn recording(mut self) -> Self {
        self.start_history();
        self
    }

    fn start_history(&mut self) {
        self.history =
            Some(History { world_states: vec![self.world.state()], view: UserView::new() });
    }

    /// The current round index (number of completed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current world state: the referee's input for the prefix that
    /// ends now.
    pub fn world_state(&self) -> W::State {
        self.world.state()
    }

    /// The recorded history, if the execution records (see
    /// [`recording`](Self::recording)).
    pub fn history(&self) -> Option<&History<W::State>> {
        self.history.as_ref()
    }

    /// A reference to the (running) user strategy.
    pub fn user(&self) -> &dyn UserStrategy {
        &*self.user
    }

    /// Replaces the user strategy mid-execution (used by experiments that
    /// model strategy hand-off; the universal users instead switch
    /// internally). In-flight messages are preserved: the world and server
    /// cannot observe the swap except through subsequent behaviour.
    pub fn swap_user(&mut self, user: Box<dyn UserStrategy>) -> Box<dyn UserStrategy> {
        std::mem::replace(&mut self.user, user)
    }

    /// Replaces the server strategy mid-execution. Used by forgivingness
    /// checks, which extend an arbitrary partial history with a known-good
    /// (user, server) pair.
    pub fn swap_server(&mut self, server: Box<dyn ServerStrategy>) -> Box<dyn ServerStrategy> {
        std::mem::replace(&mut self.server, server)
    }

    /// Executes a single synchronous round.
    pub fn step(&mut self) {
        // Every in-flight slot is delivered this round and refilled below,
        // so the messages move into the inputs instead of being copied.
        let user_in = UserIn {
            from_server: take(&mut self.server_to_user),
            from_world: take(&mut self.world_to_user),
        };
        let server_in = ServerIn {
            from_user: take(&mut self.user_to_server),
            from_world: take(&mut self.world_to_server),
        };
        let world_in = WorldIn {
            from_user: take(&mut self.user_to_world),
            from_server: take(&mut self.server_to_world),
        };

        let user_out = {
            let mut ctx = StepCtx::new(self.round, &mut self.user_rng);
            self.user.step(&mut ctx, &user_in)
        };
        let server_out = {
            let mut ctx = StepCtx::new(self.round, &mut self.server_rng);
            self.server.step(&mut ctx, &server_in)
        };
        let world_out = {
            let mut ctx = StepCtx::new(self.round, &mut self.world_rng);
            self.world.step(&mut ctx, &world_in)
        };

        if let Some(history) = &mut self.history {
            history.view.push(ViewEvent {
                round: self.round,
                received: user_in,
                sent: user_out.clone(),
            });
            history.world_states.push(self.world.state());
        }

        // The user↔server link runs through the channels; a Perfect channel
        // is the identity and consumes no randomness.
        self.user_to_server = {
            let mut ctx = StepCtx::new(self.round, &mut self.up_rng);
            self.up_channel.transmit(&mut ctx, user_out.to_server)
        };
        self.user_to_world = user_out.to_world;
        self.server_to_user = {
            let mut ctx = StepCtx::new(self.round, &mut self.down_rng);
            self.down_channel.transmit(&mut ctx, server_out.to_user)
        };
        self.server_to_world = server_out.to_world;
        self.world_to_user = world_out.to_user;
        self.world_to_server = world_out.to_server;

        self.round += 1;
    }

    /// Runs until the user halts or `horizon` **additional** rounds have
    /// elapsed, then returns the transcript of the whole execution so far.
    ///
    /// The halting check runs after each round, so a user that halts in its
    /// `step` stops the run at the end of that round.
    pub fn run(&mut self, horizon: u64) -> Transcript<W::State> {
        self.run_each(horizon, |_| {})
    }

    /// [`run`](Self::run), handing the execution to `each` at the end of
    /// every round — before the halting check, so the round a user halts
    /// in is seen too. A referee fed this way needs no recorded history.
    pub fn run_each(&mut self, horizon: u64, mut each: impl FnMut(&Self)) -> Transcript<W::State> {
        let start = self.round;
        let mut span = crate::obs::span("exec.run", horizon);
        let mut stop = StopReason::HorizonExhausted;
        if let Some(h) = self.user.halted() {
            stop = StopReason::UserHalted(h);
        } else {
            for _ in 0..horizon {
                self.step();
                each(self);
                if let Some(h) = self.user.halted() {
                    stop = StopReason::UserHalted(h);
                    break;
                }
            }
        }
        let executed = self.round - start;
        span.set_exit(executed);
        crate::obs_count!("exec.rounds", executed);
        crate::obs_hist!("exec.run.rounds", executed);
        if matches!(stop, StopReason::UserHalted(_)) {
            crate::obs_count!("exec.halts", 1u64);
        }
        self.transcript(stop)
    }

    /// Runs exactly `horizon` additional rounds, **ignoring** user halting:
    /// a halted user stays silent while the server and world keep evolving.
    ///
    /// This is the right driver for *compact* goals, where the system runs
    /// forever regardless of what the user does; [`run`](Self::run) is the
    /// driver for finite goals.
    pub fn run_for(&mut self, horizon: u64) -> Transcript<W::State> {
        self.run_for_each(horizon, |_| {})
    }

    /// [`run_for`](Self::run_for), handing the execution to `each` at the
    /// end of every round.
    pub fn run_for_each(
        &mut self,
        horizon: u64,
        mut each: impl FnMut(&Self),
    ) -> Transcript<W::State> {
        let mut span = crate::obs::span("exec.run_for", horizon);
        for _ in 0..horizon {
            self.step();
            each(self);
        }
        span.set_exit(horizon);
        crate::obs_count!("exec.rounds", horizon);
        crate::obs_hist!("exec.run.rounds", horizon);
        self.transcript(self.stop_reason())
    }

    /// The stop reason the execution would report right now.
    fn stop_reason(&self) -> StopReason {
        match self.user.halted() {
            Some(h) => StopReason::UserHalted(h),
            None => StopReason::HorizonExhausted,
        }
    }

    /// The transcript `run` and `run_for` hand back. A recording execution
    /// copies its history into it; [`into_transcript`](Self::into_transcript)
    /// moves the history instead.
    fn transcript(&self, stop: StopReason) -> Transcript<W::State> {
        Transcript {
            state: self.world.state(),
            history: self.history.clone(),
            rounds: self.round,
            stop,
        }
    }

    /// Consumes the execution and returns its final transcript without
    /// running further rounds.
    pub fn into_transcript(mut self) -> Transcript<W::State> {
        let stop = self.stop_reason();
        Transcript { state: self.world.state(), history: self.history.take(), rounds: self.round, stop }
    }
}

impl<W: WorldStrategy> Execution<W> {
    /// Serializes the entire execution — round counter, rng streams,
    /// channel stacks (including pending fault-schedule positions),
    /// in-flight messages and party states — into `out` in the versioned
    /// [`crate::snap`] format. The recorded history, if any, is not saved:
    /// a snapshot's size does not grow with the rounds run.
    ///
    /// On failure the error names the party that blocked the checkpoint
    /// ([`SnapError::Unsupported`]); `out` may then hold a partial prefix
    /// and should be discarded.
    pub fn save(&self, out: &mut Vec<u8>) -> Result<(), SnapError> {
        let mut w = SnapWriter::new(out);
        crate::snap::write_header(&mut w);
        w.u64(self.round);
        self.user_rng.encode(&mut w);
        self.server_rng.encode(&mut w);
        self.world_rng.encode(&mut w);
        self.up_rng.encode(&mut w);
        self.down_rng.encode(&mut w);
        self.user_to_server.encode(&mut w);
        self.user_to_world.encode(&mut w);
        self.server_to_user.encode(&mut w);
        self.server_to_world.encode(&mut w);
        self.world_to_user.encode(&mut w);
        self.world_to_server.encode(&mut w);
        // Each party block is preceded by the party's name, verified on
        // restore: a snapshot only loads into a same-config skeleton.
        w.str(std::any::type_name::<W>());
        w.block(|w| self.world.save_snap(w))?;
        w.str(&self.user.name());
        w.block(|w| self.user.save_snap(w))?;
        w.str(&self.server.name());
        w.block(|w| self.server.save_snap(w))?;
        w.str(&self.up_channel.name());
        w.block(|w| self.up_channel.save_snap(w))?;
        w.str(&self.down_channel.name());
        w.block(|w| self.down_channel.save_snap(w))?;
        Ok(())
    }

    /// [`save`](Self::save) into a fresh buffer.
    pub fn save_to_vec(&self) -> Result<Vec<u8>, SnapError> {
        let mut out = Vec::new();
        self.save(&mut out)?;
        Ok(out)
    }

    /// Restores a snapshot produced by [`save`](Self::save) into this
    /// execution, which must be a fresh skeleton built with the **same
    /// configuration** (same constructors, channels, and seed) as the saved
    /// run. Party names recorded in the snapshot are checked against the
    /// skeleton's; any mismatch is a [`SnapError::Mismatch`].
    ///
    /// After a successful restore the execution is bit-identical going
    /// forward to the one that was saved: same settle round, same
    /// `GOC_TRACE` output, same `SuccessReport`. Decoding is total — on any
    /// error (malformed, truncated, or adversarial bytes) this returns
    /// `Err` without panicking, but `self` may be partially overwritten and
    /// should be discarded. A recording skeleton records from the restored
    /// round on.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        crate::snap::read_header(&mut r)?;
        self.round = r.u64("round")?;
        self.user_rng = GocRng::decode(&mut r)?;
        self.server_rng = GocRng::decode(&mut r)?;
        self.world_rng = GocRng::decode(&mut r)?;
        self.up_rng = GocRng::decode(&mut r)?;
        self.down_rng = GocRng::decode(&mut r)?;
        self.user_to_server = Message::decode(&mut r)?;
        self.user_to_world = Message::decode(&mut r)?;
        self.server_to_user = Message::decode(&mut r)?;
        self.server_to_world = Message::decode(&mut r)?;
        self.world_to_user = Message::decode(&mut r)?;
        self.world_to_server = Message::decode(&mut r)?;
        Self::party_block(&mut r, "world", std::any::type_name::<W>(), |b| {
            self.world.restore_snap(b)
        })?;
        Self::party_block(&mut r, "user", &self.user.name(), |b| self.user.restore_snap(b))?;
        Self::party_block(&mut r, "server", &self.server.name(), |b| {
            self.server.restore_snap(b)
        })?;
        Self::party_block(&mut r, "up channel", &self.up_channel.name(), |b| {
            self.up_channel.restore_snap(b)
        })?;
        Self::party_block(&mut r, "down channel", &self.down_channel.name(), |b| {
            self.down_channel.restore_snap(b)
        })?;
        r.finish()?;
        if self.history.is_some() {
            self.start_history();
        }
        Ok(())
    }

    /// Reads one name-tagged party block, verifying the name against the
    /// skeleton and that the party consumed its block exactly.
    fn party_block(
        r: &mut SnapReader<'_>,
        context: &'static str,
        expected: &str,
        restore: impl FnOnce(&mut SnapReader<'_>) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let found = r.str("party name")?;
        if found != expected {
            return Err(SnapError::Mismatch {
                context,
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
        let mut block = r.block("party state")?;
        restore(&mut block)?;
        block.finish()
    }
}

impl<W: WorldStrategy + Clone> Execution<W> {
    /// A deterministic checkpoint of the entire execution: world, parties,
    /// channels, rng streams, in-flight messages and recorded history.
    ///
    /// Returns `None` if the user, server or either channel cannot be
    /// checkpointed; [`try_fork`](Self::try_fork) reports *which* party
    /// blocked instead of swallowing it.
    pub fn fork(&self) -> Option<Self> {
        self.try_fork().ok()
    }

    /// A deterministic checkpoint of the entire execution: world, parties,
    /// channels, rng streams, in-flight messages and recorded history.
    ///
    /// Fails with a [`ForkError`] naming the blocking party if the user,
    /// server or either channel cannot be checkpointed (see
    /// [`UserStrategy::fork`](crate::strategy::UserStrategy::fork)). The
    /// fork and the original evolve identically under identical stepping.
    pub fn try_fork(&self) -> Result<Self, ForkError> {
        let server =
            self.server.fork().ok_or_else(|| ForkError::new("server", self.server.name()))?;
        let user = self.user.fork().ok_or_else(|| ForkError::new("user", self.user.name()))?;
        let up_channel = self
            .up_channel
            .fork()
            .ok_or_else(|| ForkError::new("up-channel", self.up_channel.name()))?;
        let down_channel = self
            .down_channel
            .fork()
            .ok_or_else(|| ForkError::new("down-channel", self.down_channel.name()))?;
        Ok(Execution {
            world: self.world.clone(),
            server,
            user,
            user_rng: self.user_rng.clone(),
            server_rng: self.server_rng.clone(),
            world_rng: self.world_rng.clone(),
            up_channel,
            down_channel,
            up_rng: self.up_rng.clone(),
            down_rng: self.down_rng.clone(),
            round: self.round,
            user_to_server: self.user_to_server.clone(),
            user_to_world: self.user_to_world.clone(),
            server_to_user: self.server_to_user.clone(),
            server_to_world: self.server_to_world.clone(),
            world_to_user: self.world_to_user.clone(),
            world_to_server: self.world_to_server.clone(),
            history: self.history.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{UserOut, WorldOut};
    use crate::strategy::{EchoServer, FnUser, SilentServer, SilentUser, UserAction};

    /// A world that records every message the user sent it.
    #[derive(Debug, Default)]
    struct Recorder {
        heard: Vec<Message>,
    }

    impl WorldStrategy for Recorder {
        type State = Vec<Message>;

        fn step(&mut self, _: &mut StepCtx<'_>, input: &WorldIn) -> WorldOut {
            if !input.from_user.is_silence() {
                self.heard.push(input.from_user.clone());
            }
            WorldOut::silence()
        }

        fn state(&self) -> Vec<Message> {
            self.heard.clone()
        }
    }

    #[test]
    fn messages_take_one_round_to_arrive() {
        // User sends "hi" to the world at round 0; the world consumes it at
        // round 1 (synchronous delivery delay of one round).
        let user = FnUser::new("hi-once", |ctx: &mut StepCtx<'_>, _in: &UserIn| {
            if ctx.round == 0 {
                UserAction::Send(UserOut::to_world("hi"))
            } else {
                UserAction::Send(UserOut::silence())
            }
        });
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(user),
            GocRng::seed_from_u64(1),
        );
        exec.step();
        assert!(exec.world_state().is_empty(), "not yet delivered");
        exec.step();
        assert_eq!(exec.world_state().as_slice(), &[Message::from("hi")]);
    }

    #[test]
    fn echo_roundtrip_takes_two_rounds() {
        // Round 0: user sends "ping" to server. Round 1: server consumes it
        // and replies. Round 2: user consumes "ping" back.
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let user = FnUser::new("pinger", move |ctx: &mut StepCtx<'_>, input: &UserIn| {
            if !input.from_server.is_silence() {
                seen2.borrow_mut().push((ctx.round, input.from_server.clone()));
            }
            if ctx.round == 0 {
                UserAction::Send(UserOut::to_server("ping"))
            } else {
                UserAction::Send(UserOut::silence())
            }
        });
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(user),
            GocRng::seed_from_u64(2),
        );
        exec.run(4);
        assert_eq!(seen.borrow().as_slice(), &[(2u64, Message::from("ping"))]);
    }

    #[test]
    fn run_stops_on_halt() {
        let user = FnUser::new("halts-at-3", |ctx: &mut StepCtx<'_>, _in: &UserIn| {
            if ctx.round == 3 {
                UserAction::HaltWith(UserOut::silence(), Halt::with_output("done"))
            } else {
                UserAction::Send(UserOut::silence())
            }
        });
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(user),
            GocRng::seed_from_u64(3),
        );
        let t = exec.run(100);
        assert_eq!(t.rounds, 4); // rounds 0..=3 executed
        assert_eq!(t.stop, StopReason::UserHalted(Halt::with_output("done")));
        assert_eq!(t.halt().unwrap().output, Message::from("done"));
    }

    #[test]
    fn run_exhausts_horizon_for_non_halting_user() {
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(4),
        )
        .recording();
        let t = exec.run(25);
        assert_eq!(t.rounds, 25);
        assert_eq!(t.stop, StopReason::HorizonExhausted);
        assert!(t.halt().is_none());
        // Initial state + one state per round.
        assert_eq!(t.world_states().len(), 26);
        assert_eq!(t.view().len(), 25);
    }

    #[test]
    fn an_unrecorded_run_keeps_only_the_final_state() {
        let user = FnUser::new("says-hi", |_ctx: &mut StepCtx<'_>, _in: &UserIn| {
            UserAction::Send(UserOut::to_world("hi"))
        });
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(user),
            GocRng::seed_from_u64(4),
        );
        let t = exec.run(5);
        assert!(t.history.is_none() && exec.history().is_none());
        // Sent at rounds 0..=3, heard at rounds 1..=4.
        assert_eq!(t.state.len(), 4);
        assert_eq!(t.state, exec.world_state());
    }

    #[test]
    fn recording_mid_run_starts_at_the_current_state() {
        let build = || {
            Execution::new(
                Recorder::default(),
                Box::new(EchoServer),
                Box::new(FnUser::new("says-hi", |_ctx: &mut StepCtx<'_>, _in: &UserIn| {
                    UserAction::Send(UserOut::to_world("hi"))
                })),
                GocRng::seed_from_u64(4),
            )
        };
        let whole = build().recording().run(9);
        let mut late = build();
        late.run(4);
        let late = late.recording().run(5);
        assert_eq!(late.world_states(), &whole.world_states()[4..]);
        assert_eq!(late.view().events(), &whole.view().events()[4..]);
        assert_eq!((late.rounds, late.state), (whole.rounds, whole.state));
    }

    #[test]
    fn run_is_resumable() {
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(5),
        );
        exec.run(10);
        let t = exec.run(10);
        assert_eq!(t.rounds, 20);
    }

    #[test]
    fn halted_user_does_not_rerun() {
        let user = FnUser::new("halts-immediately", |_ctx: &mut StepCtx<'_>, _in: &UserIn| {
            UserAction::HaltWith(UserOut::silence(), Halt::empty())
        });
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(user),
            GocRng::seed_from_u64(6),
        );
        let t1 = exec.run(10);
        assert_eq!(t1.rounds, 1);
        let t2 = exec.run(10);
        assert_eq!(t2.rounds, 1, "a halted user must not execute further rounds");
    }

    #[test]
    fn swap_user_preserves_round_count() {
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(7),
        );
        exec.run(5);
        let old = exec.swap_user(Box::new(SilentUser));
        assert_eq!(old.name(), "silent-user");
        let t = exec.run(5);
        assert_eq!(t.rounds, 10);
    }

    #[test]
    fn determinism_same_seed_same_transcript() {
        let build = || {
            Execution::new(
                Recorder::default(),
                Box::new(EchoServer),
                Box::new(SilentUser),
                GocRng::seed_from_u64(42),
            )
            .recording()
        };
        let t1 = build().run(30);
        let t2 = build().run(30);
        assert_eq!(t1.history, t2.history);
    }

    #[test]
    fn perfect_channels_match_default_construction() {
        let plain = Execution::new(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(42),
        )
        .recording()
        .run(30);
        let chan = Execution::with_channels(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(42),
            Box::new(Perfect),
            Box::new(Perfect),
        )
        .recording()
        .run(30);
        assert_eq!(plain.history, chan.history);
        assert_eq!(plain.stop, chan.stop);
    }

    #[test]
    fn dropped_up_message_never_reaches_the_server() {
        use crate::channel::{Fault, FaultSchedule, Scheduled};

        // The user pings at round 0; with a Drop scheduled on the up link at
        // round 0, the echo never happens.
        let pinger = || {
            FnUser::new("pinger", |ctx: &mut StepCtx<'_>, _in: &UserIn| {
                if ctx.round == 0 {
                    UserAction::Send(UserOut::to_server("ping"))
                } else {
                    UserAction::Send(UserOut::silence())
                }
            })
        };
        let t = Execution::with_channels(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(pinger()),
            GocRng::seed_from_u64(9),
            Box::new(Scheduled::new(FaultSchedule::single(0, Fault::Drop))),
            Box::new(Perfect),
        )
        .recording()
        .run(6);
        assert!(t.view().events().iter().all(|ev| ev.received.from_server.is_silence()));

        let t = Execution::with_channels(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(pinger()),
            GocRng::seed_from_u64(9),
            Box::new(Perfect),
            Box::new(Perfect),
        )
        .recording()
        .run(6);
        assert!(t.view().events().iter().any(|ev| !ev.received.from_server.is_silence()));
    }

    #[test]
    fn try_fork_names_the_blocking_party() {
        // FnUser closes over a closure, so it is deliberately unforkable —
        // exactly the silent-`None` gap ForkError closes.
        let user = FnUser::new("closure-user", |_ctx: &mut StepCtx<'_>, _in: &UserIn| {
            UserAction::Send(UserOut::silence())
        });
        let exec = Execution::new(
            crate::toy::MagicWorld::new("xyzzy"),
            Box::new(SilentServer),
            Box::new(user),
            GocRng::seed_from_u64(1),
        );
        let err = exec.try_fork().unwrap_err();
        assert_eq!(err.party, "user");
        assert_eq!(err.name, "closure-user");
        assert!(exec.fork().is_none(), "fork() mirrors try_fork()");

        // The same party blocks save(), surfaced through SnapError.
        let err = exec.save_to_vec().unwrap_err();
        assert_eq!(
            err,
            SnapError::Unsupported { party: "user", name: "closure-user".to_string() }
        );

        // An unforkable server is reported as the server.
        let exec = Execution::new(
            crate::toy::MagicWorld::new("xyzzy"),
            Box::new(crate::strategy::FnServer::new("closure-server", |_ctx, _in| {
                crate::msg::ServerOut::silence()
            })),
            Box::new(SilentUser),
            GocRng::seed_from_u64(1),
        );
        let err = exec.try_fork().unwrap_err();
        assert_eq!((err.party, err.name.as_str()), ("server", "closure-server"));
    }

    #[test]
    fn save_restore_roundtrips_mid_run() {
        use crate::toy::{MagicWorld, RelayServer, SayThrough};

        let build = || {
            Execution::new(
                MagicWorld::new("xyzzy"),
                Box::new(RelayServer::with_shift(3)),
                Box::new(SayThrough::compensating("xyzzy", 3)),
                GocRng::seed_from_u64(11),
            )
            .recording()
        };
        let mut original = build();
        for _ in 0..2 {
            original.step();
        }
        let bytes = original.save_to_vec().unwrap();

        // The restored skeleton records from the restored round on.
        let mut restored = build();
        restored.restore(&bytes).unwrap();
        assert_eq!(restored.round(), original.round());
        assert_eq!(restored.history().unwrap().world_states, [original.world_state()]);

        // Bit-identical going forward: same transcript from here on.
        let t1 = original.run(50);
        let t2 = restored.run(50);
        assert_eq!((t1.rounds, &t1.stop, &t1.state), (t2.rounds, &t2.stop, &t2.state));
        assert_eq!(t1.view().since(2), t2.view().events());
        assert_eq!(&t1.world_states()[2..], t2.world_states());
    }

    #[test]
    fn save_does_not_depend_on_a_transcript_view() {
        use crate::toy::{MagicWorld, RelayServer, SayThrough};

        let build = || {
            Execution::new(
                MagicWorld::new("xyzzy"),
                Box::new(RelayServer::with_shift(3)),
                Box::new(SayThrough::compensating("xyzzy", 3)),
                GocRng::seed_from_u64(11),
            )
        };
        let halted = || {
            let mut exec = build();
            assert!(exec.run(50).halt().is_some(), "the compensating user halts within 50 rounds");
            exec
        };
        let plain = halted();
        let viewed = halted();
        assert!(viewed.user().halted().is_some());
        let bytes = plain.save_to_vec().unwrap();
        assert_eq!(bytes, viewed.save_to_vec().unwrap());

        // A fresh skeleton restored from the bytes reports the same halt.
        let mut restored = build();
        restored.restore(&bytes).unwrap();
        assert_eq!(restored.into_transcript().stop, plain.into_transcript().stop);
    }

    #[test]
    fn restore_rejects_mismatched_skeleton() {
        use crate::toy::{MagicWorld, RelayServer, SayThrough};

        let exec = Execution::new(
            MagicWorld::new("xyzzy"),
            Box::new(RelayServer::with_shift(3)),
            Box::new(SayThrough::new("xyzzy")),
            GocRng::seed_from_u64(11),
        );
        let bytes = exec.save_to_vec().unwrap();

        // Same types, different config: the server name tag catches it.
        let mut wrong = Execution::new(
            MagicWorld::new("xyzzy"),
            Box::new(RelayServer::with_shift(7)),
            Box::new(SayThrough::new("xyzzy")),
            GocRng::seed_from_u64(11),
        );
        assert!(matches!(
            wrong.restore(&bytes),
            Err(SnapError::Mismatch { context: "server", .. })
        ));
    }

    #[test]
    fn a_held_transcript_survives_further_runs() {
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(13),
        )
        .recording();
        let t1 = exec.run(10);
        let t2 = exec.run(10);
        assert_eq!((t1.rounds, t1.world_states().len(), t1.view().len()), (10, 11, 10));
        assert_eq!((t2.rounds, t2.world_states().len(), t2.view().len()), (20, 21, 20));
        assert_eq!(t1.world_states(), &t2.world_states()[..11]);
        assert_eq!(t1.view().events(), &t2.view().events()[..10]);
        assert_eq!(exec.history(), t2.history.as_ref());
    }

    #[test]
    fn forks_that_step_leave_the_pre_fork_transcript_intact() {
        use crate::toy::{MagicWorld, RelayServer, SayThrough};

        let mut original = Execution::new(
            MagicWorld::new("xyzzy"),
            Box::new(RelayServer::with_shift(3)),
            Box::new(SayThrough::compensating("xyzzy", 3)),
            GocRng::seed_from_u64(14),
        )
        .recording();
        let before = original.run_for(2);
        let kept = before.clone();
        let mut fork = original.try_fork().unwrap();
        assert_eq!(fork.history(), before.history.as_ref());

        let a = original.run_for(5);
        let b = fork.run_for(5);
        assert_eq!((a.rounds, b.rounds), (7, 7));
        assert_eq!(a.history, b.history);
        assert_eq!(before.history, kept.history);
        assert_eq!(before.world_states().len(), 3);
    }

    #[test]
    fn into_transcript_reports_state() {
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(8),
        )
        .recording();
        exec.run(3);
        let t = exec.into_transcript();
        assert_eq!(t.rounds, 3);
        assert_eq!(t.stop, StopReason::HorizonExhausted);
        assert_eq!((t.world_states().len(), t.view().len()), (4, 3));
    }
}
