//! The synchronous execution engine.
//!
//! An *execution* (paper §2) is the evolution of the system formed by a user,
//! a server and a world. Rounds are synchronous: at round *t* every party
//! consumes the messages sent to it at round *t − 1* and emits the messages
//! to be delivered at round *t + 1*. The engine records
//!
//! - the sequence of world states (the referee's input), and
//! - the user's view (the sensing functions' input),
//!
//! into a [`Transcript`].
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
use std::sync::Arc;

/// Why an execution run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The user halted (finite goals) with the contained verdict.
    UserHalted(Halt),
    /// The round horizon was exhausted.
    HorizonExhausted,
}

impl SnapState for StopReason {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        match self {
            StopReason::HorizonExhausted => w.u8(0),
            StopReason::UserHalted(h) => {
                w.u8(1);
                h.encode(w);
            }
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8("stop reason tag")? {
            0 => StopReason::HorizonExhausted,
            1 => StopReason::UserHalted(Halt::decode(r)?),
            found => return Err(SnapError::BadTag { context: "stop reason tag", found }),
        })
    }
}

/// The recorded outcome of a run: world-state history plus user view.
///
/// The history is shared with the [`Execution`] that recorded it: a
/// transcript holds `Arc`s to the same buffers, so returning one from
/// [`run`](Execution::run) costs two reference-count bumps, not a copy.
/// The buffers are copy-on-write — if the execution steps again while a
/// transcript is still alive, the execution copies its history once and
/// the transcript keeps the rounds it was handed. Readers see plain
/// `Vec<S>` and [`UserView`] through `Deref`.
#[derive(Clone, Debug)]
pub struct Transcript<S> {
    /// World states; `world_states[0]` is the initial state (before round 0)
    /// and `world_states[t + 1]` the state after round `t`.
    pub world_states: Arc<Vec<S>>,
    /// The user's per-round view.
    pub view: Arc<UserView>,
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

    /// A borrowing view of this transcript (no cloning).
    pub fn as_view(&self) -> TranscriptView<'_, S> {
        TranscriptView {
            world_states: &self.world_states,
            view: &self.view,
            rounds: self.rounds,
            stop: self.stop.clone(),
        }
    }
}

/// A borrowing view of an execution's recorded history: same shape as
/// [`Transcript`], zero copies.
///
/// Produced by [`Execution::transcript_view`] (over the live history) and
/// [`Transcript::as_view`]. Sensing probes and referees that only *read* the
/// history should consume this: it borrows, so it neither bumps a reference
/// count nor makes a later step of the execution copy its history.
/// [`to_transcript`](Self::to_transcript) is the explicit deep copy.
#[derive(Debug)]
pub struct TranscriptView<'a, S> {
    /// World states; `world_states[0]` is the initial state.
    pub world_states: &'a [S],
    /// The user's per-round view.
    pub view: &'a UserView,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Why (or whether) the run stopped.
    pub stop: StopReason,
}

// Manual impl: the history is only borrowed, so the view is `Clone`
// regardless of whether `S` itself is (a derive would demand `S: Clone`).
impl<S> Clone for TranscriptView<'_, S> {
    fn clone(&self) -> Self {
        TranscriptView {
            world_states: self.world_states,
            view: self.view,
            rounds: self.rounds,
            stop: self.stop.clone(),
        }
    }
}

impl<'a, S> TranscriptView<'a, S> {
    /// The user's halting verdict, if it halted.
    pub fn halt(&self) -> Option<&Halt> {
        match &self.stop {
            StopReason::UserHalted(h) => Some(h),
            StopReason::HorizonExhausted => None,
        }
    }

    /// An owned transcript, deep-copying the borrowed history.
    pub fn to_transcript(&self) -> Transcript<S>
    where
        S: Clone,
    {
        Transcript {
            world_states: Arc::new(self.world_states.to_vec()),
            view: Arc::new(self.view.clone()),
            rounds: self.rounds,
            stop: self.stop.clone(),
        }
    }
}

/// A running (user, server, world) system.
///
/// The engine is generic over the world (whose state type the referee needs)
/// and takes the user and server as trait objects, mirroring the theory: the
/// goal fixes the world, while user and server vary over classes.
///
/// An execution that drops as the last holder of its recorded history keeps
/// the emptied buffers for the next execution built on the same thread, so
/// runs one after another record into the same memory.
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
/// let mut exec = Execution::new(
///     Clock::default(),
///     Box::new(EchoServer),
///     Box::new(SilentUser),
///     GocRng::seed_from_u64(7),
/// );
/// let t = exec.run(10);
/// assert_eq!(t.rounds, 10);
/// assert_eq!(*t.world_states, (0..=10).collect::<Vec<_>>());
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
    // The recorded history, shared copy-on-write with the transcripts
    // `run` and `run_for` hand back.
    world_states: Arc<Vec<W::State>>,
    view: Arc<UserView>,
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
        let initial = world.state();
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
            world_states: Arc::new({
                let mut states: Vec<W::State> = spare::take();
                // A new buffer holds just the initial state, as `vec![..]`
                // would: idle executions should not carry slack.
                states.reserve_exact(1);
                states.push(initial);
                states
            }),
            view: Arc::new(spare::take()),
        }
    }

    /// The current round index (number of completed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The world-state history so far (initial state first).
    pub fn world_states(&self) -> &[W::State] {
        &self.world_states
    }

    /// The user's view so far.
    pub fn view(&self) -> &UserView {
        &self.view
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
        let user_in = UserIn {
            from_server: self.server_to_user.clone(),
            from_world: self.world_to_user.clone(),
        };
        let server_in = ServerIn {
            from_user: self.user_to_server.clone(),
            from_world: self.world_to_server.clone(),
        };
        let world_in = WorldIn {
            from_user: self.user_to_world.clone(),
            from_server: self.server_to_world.clone(),
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

        Arc::make_mut(&mut self.view).push(ViewEvent {
            round: self.round,
            received: user_in,
            sent: user_out.clone(),
        });
        Arc::make_mut(&mut self.world_states).push(self.world.state());

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
        let start = self.round;
        let mut span = crate::obs::span("exec.run", horizon);
        let mut stop = StopReason::HorizonExhausted;
        if let Some(h) = self.user.halted() {
            stop = StopReason::UserHalted(h);
        } else {
            for _ in 0..horizon {
                self.step();
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
        self.snapshot(stop)
    }

    /// Runs exactly `horizon` additional rounds, **ignoring** user halting:
    /// a halted user stays silent while the server and world keep evolving.
    ///
    /// This is the right driver for *compact* goals, where the system runs
    /// forever regardless of what the user does; [`run`](Self::run) is the
    /// driver for finite goals.
    pub fn run_for(&mut self, horizon: u64) -> Transcript<W::State> {
        let mut span = crate::obs::span("exec.run_for", horizon);
        for _ in 0..horizon {
            self.step();
        }
        span.set_exit(horizon);
        crate::obs_count!("exec.rounds", horizon);
        crate::obs_hist!("exec.run.rounds", horizon);
        self.snapshot(self.stop_reason())
    }

    /// The stop reason the execution would report right now.
    fn stop_reason(&self) -> StopReason {
        match self.user.halted() {
            Some(h) => StopReason::UserHalted(h),
            None => StopReason::HorizonExhausted,
        }
    }

    /// The single owned-snapshot site: shares the recorded history with a
    /// [`Transcript`] (two `Arc` clones, no copy). `run` and `run_for` both
    /// funnel through here. A caller that keeps the transcript while the
    /// execution steps on makes that next step copy the history once;
    /// read-only consumers should prefer
    /// [`transcript_view`](Self::transcript_view).
    fn snapshot(&self, stop: StopReason) -> Transcript<W::State> {
        Transcript {
            world_states: Arc::clone(&self.world_states),
            view: Arc::clone(&self.view),
            rounds: self.round,
            stop,
        }
    }

    /// A borrowing view of the history so far — no cloning. The view's stop
    /// reason reflects the user's current halt status.
    pub fn transcript_view(&self) -> TranscriptView<'_, W::State> {
        TranscriptView {
            world_states: &self.world_states,
            view: &self.view,
            rounds: self.round,
            stop: self.stop_reason(),
        }
    }

    /// Pre-reserves history capacity for `rounds` further rounds, so the
    /// recording `Vec`s never reallocate inside the round loop. Benches use
    /// this to make the steady-state loop allocation-free.
    pub fn reserve_rounds(&mut self, rounds: u64) {
        let rounds = usize::try_from(rounds).unwrap_or(usize::MAX);
        Arc::make_mut(&mut self.world_states).reserve(rounds);
        Arc::make_mut(&mut self.view).reserve(rounds);
    }

    /// Discards the recorded history (keeping its capacity) and re-records
    /// the current world state as the new "initial" state. The round
    /// counter, party states and in-flight messages are untouched. A
    /// transcript still holding the history keeps it: the execution copies
    /// it before clearing, so drop transcripts first.
    ///
    /// This is for long-running perf harnesses that would otherwise grow the
    /// history without bound; referees judging the execution should be fed
    /// the history *before* it is forgotten.
    pub fn reset_history(&mut self) {
        let world_states = Arc::make_mut(&mut self.world_states);
        world_states.clear();
        world_states.push(self.world.state());
        Arc::make_mut(&mut self.view).clear();
    }

    /// Consumes the execution and returns its final transcript without
    /// running further rounds.
    pub fn into_transcript(self) -> Transcript<W::State> {
        self.snapshot(self.stop_reason())
    }
}

impl<W: WorldStrategy> Drop for Execution<W> {
    /// Keeps the emptied history buffers for the next execution on this
    /// thread, unless a transcript or a fork still holds them.
    fn drop(&mut self) {
        if let Some(states) = Arc::get_mut(&mut self.world_states) {
            let mut states = std::mem::take(states);
            states.clear();
            let bytes = states.capacity().saturating_mul(std::mem::size_of::<W::State>());
            spare::keep(states, bytes);
        }
        if let Some(view) = Arc::get_mut(&mut self.view) {
            let mut view = std::mem::take(view);
            view.clear();
            let bytes = view.capacity().saturating_mul(std::mem::size_of::<ViewEvent>());
            spare::keep(view, bytes);
        }
    }
}

// Spare history buffers, kept per thread. An execution that drops as the
// last holder of its history empties both buffers and keeps them here, and
// the next `Execution::new` on the thread records into them. Executions run
// one after another then allocate their history once between them. Without
// this, each run grew and freed a history of megabytes, and whether the
// allocator handed those pages back to the OS in between depended on what
// else the heap held, so the page faults, and the time, of the same run
// varied from one process to the next.
mod spare {
    use std::any::{Any, TypeId};
    use std::cell::RefCell;
    use std::collections::HashMap;

    /// Buffers kept per thread and buffer type: one for the execution that
    /// runs next, one for a fork or a nested run.
    const PER_TYPE: usize = 2;
    /// Larger buffers are freed, so one long run does not pin its memory.
    pub(super) const MAX_BYTES: usize = 8 << 20;

    thread_local! {
        static SPARE: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
    }

    /// An empty buffer: one this thread kept, else a new one.
    pub(super) fn take<T: Default + 'static>() -> T {
        SPARE
            .try_with(|spare| {
                spare
                    .borrow_mut()
                    .get_mut(&TypeId::of::<T>())
                    .and_then(|kept| kept.downcast_mut::<Vec<T>>())
                    .and_then(Vec::pop)
            })
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Keeps an emptied buffer with `bytes` of capacity for a later [`take`].
    pub(super) fn keep<T: 'static>(buf: T, bytes: usize) {
        if bytes == 0 || bytes > MAX_BYTES {
            return;
        }
        // Fails only while the thread is exiting; the buffer is freed then.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let kept = spare
                .entry(TypeId::of::<T>())
                .or_insert_with(|| Box::new(Vec::<T>::with_capacity(PER_TYPE)))
                .downcast_mut::<Vec<T>>()
                .expect("kept buffers are keyed by their type");
            if kept.len() < PER_TYPE {
                kept.push(buf);
            }
        });
    }
}

impl<W: WorldStrategy> Execution<W> {
    /// Serializes the entire execution — round counter, rng streams,
    /// channel stacks (including pending fault-schedule positions),
    /// in-flight messages, party states, and the recorded history — into
    /// `out` in the versioned [`crate::snap`] format.
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
        self.stop_reason().encode(&mut w);
        w.u64(self.world_states.len() as u64);
        for state in self.world_states.iter() {
            W::snap_state(state, &mut w)?;
        }
        self.view.encode(&mut w);
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
    /// should be discarded.
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
        // The stop reason is derived from the restored user's halt status;
        // the field is decoded only to keep the v1 layout, and either tag is
        // accepted because older writers could record either for one state.
        StopReason::decode(&mut r)?;
        let n = r.count("world states")?;
        let mut world_states = Vec::new();
        for _ in 0..n {
            world_states.push(W::restore_state(&mut r)?);
        }
        self.world_states = Arc::new(world_states);
        self.view = Arc::new(UserView::decode(&mut r)?);
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
        r.finish()
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
    /// The recorded history is shared, not copied: whichever of the two
    /// steps first while the other still holds it copies it then, once.
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
            world_states: Arc::clone(&self.world_states),
            view: Arc::clone(&self.view),
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
        assert!(exec.world_states().last().unwrap().is_empty(), "not yet delivered");
        exec.step();
        assert_eq!(exec.world_states().last().unwrap().as_slice(), &[Message::from("hi")]);
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
        );
        let t = exec.run(25);
        assert_eq!(t.rounds, 25);
        assert_eq!(t.stop, StopReason::HorizonExhausted);
        assert!(t.halt().is_none());
        // Initial state + one state per round.
        assert_eq!(t.world_states.len(), 26);
        assert_eq!(t.view.len(), 25);
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
        };
        let t1 = build().run(30);
        let t2 = build().run(30);
        assert_eq!(t1.view, t2.view);
        assert_eq!(t1.world_states, t2.world_states);
    }

    #[test]
    fn perfect_channels_match_default_construction() {
        let plain = Execution::new(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(42),
        )
        .run(30);
        let chan = Execution::with_channels(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(42),
            Box::new(Perfect),
            Box::new(Perfect),
        )
        .run(30);
        assert_eq!(plain.view, chan.view);
        assert_eq!(plain.world_states, chan.world_states);
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
        .run(6);
        assert!(t.view.events().iter().all(|ev| ev.received.from_server.is_silence()));

        let t = Execution::with_channels(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(pinger()),
            GocRng::seed_from_u64(9),
            Box::new(Perfect),
            Box::new(Perfect),
        )
        .run(6);
        assert!(t.view.events().iter().any(|ev| !ev.received.from_server.is_silence()));
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
        };
        let mut original = build();
        for _ in 0..2 {
            original.step();
        }
        let bytes = original.save_to_vec().unwrap();

        let mut restored = build();
        restored.restore(&bytes).unwrap();
        assert_eq!(restored.round(), original.round());

        // Bit-identical going forward: same transcript from here on.
        let t1 = original.run(50);
        let t2 = restored.run(50);
        assert_eq!(t1.rounds, t2.rounds);
        assert_eq!(t1.stop, t2.stop);
        assert_eq!(t1.view, t2.view);
        assert_eq!(t1.world_states, t2.world_states);
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
        assert!(viewed.transcript_view().halt().is_some());
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

    fn silent_recorder(seed: u64) -> Execution<Recorder> {
        Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn run_and_run_for_share_the_history() {
        let mut exec = silent_recorder(12);
        let t = exec.run(10);
        assert_eq!(Arc::strong_count(&t.world_states), 2);
        assert_eq!(Arc::strong_count(&t.view), 2);
        drop(exec);
        assert_eq!(Arc::strong_count(&t.world_states), 1);
        assert_eq!(Arc::strong_count(&t.view), 1);

        let mut exec = silent_recorder(12);
        let t = exec.run_for(10);
        assert_eq!(Arc::strong_count(&t.world_states), 2);
        assert_eq!(Arc::strong_count(&t.view), 2);
        drop(exec);
        assert_eq!(Arc::strong_count(&t.world_states), 1);
        assert_eq!(Arc::strong_count(&t.view), 1);
    }

    #[test]
    fn a_held_transcript_survives_further_runs() {
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(EchoServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(13),
        );
        let t1 = exec.run(10);
        let t2 = exec.run(10);
        assert_eq!((t1.rounds, t1.world_states.len(), t1.view.len()), (10, 11, 10));
        assert_eq!((t2.rounds, t2.world_states.len(), t2.view.len()), (20, 21, 20));
        assert_eq!(t1.world_states[..], t2.world_states[..11]);
        assert_eq!(t1.view.events(), &t2.view.events()[..10]);

        let live = exec.transcript_view();
        assert_eq!(live.world_states, &t2.world_states[..]);
        assert_eq!(live.view, &*t2.view);
        assert_eq!((live.rounds, live.stop), (t2.rounds, t2.stop.clone()));
    }

    #[test]
    fn forks_that_step_leave_the_pre_fork_transcript_intact() {
        use crate::toy::{MagicWorld, RelayServer, SayThrough};

        let mut original = Execution::new(
            MagicWorld::new("xyzzy"),
            Box::new(RelayServer::with_shift(3)),
            Box::new(SayThrough::compensating("xyzzy", 3)),
            GocRng::seed_from_u64(14),
        );
        let before = original.run_for(2);
        let kept = before.as_view().to_transcript();
        let mut fork = original.try_fork().unwrap();
        assert!(Arc::ptr_eq(&fork.world_states, &before.world_states));
        assert!(Arc::ptr_eq(&fork.view, &before.view));

        let a = original.run_for(5);
        let b = fork.run_for(5);
        assert_eq!((a.rounds, b.rounds), (7, 7));
        assert_eq!(a.world_states, b.world_states);
        assert_eq!(a.view, b.view);
        assert_eq!(before.world_states, kept.world_states);
        assert_eq!(before.view, kept.view);
        assert_eq!(before.world_states.len(), 3);
    }

    #[test]
    fn reset_history_leaves_a_held_transcript_intact() {
        let mut exec = silent_recorder(15);
        let t = exec.run(10);
        exec.reset_history();
        assert_eq!((t.world_states.len(), t.view.len()), (11, 10));
        assert_eq!((exec.world_states().len(), exec.view().len()), (1, 0));
        exec.run(3);
        assert_eq!((t.world_states.len(), t.view.len()), (11, 10));
        assert_eq!((exec.world_states().len(), exec.view().len()), (4, 3));
    }

    // The spare-buffer tests run on a thread of their own, so buffers kept
    // by earlier tests on the test thread cannot stand in the way.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn a_dropped_execution_hands_its_history_buffers_to_the_next() {
        on_fresh_thread(|| {
            let mut a = silent_recorder(16);
            a.run(100);
            let (states, events) = (a.world_states().as_ptr(), a.view().events().as_ptr());
            drop(a);

            let mut b = silent_recorder(17);
            assert_eq!(b.world_states().as_ptr(), states);
            assert_eq!(b.view().events().as_ptr(), events);
            assert_eq!((b.world_states().len(), b.view().len()), (1, 0));
            let mut fresh = silent_recorder(17);
            assert_ne!(fresh.world_states().as_ptr(), states);
            assert_eq!(fresh.world_states.capacity(), 1);
            let (t, u) = (b.run(5), fresh.run(5));
            assert_eq!(t.world_states, u.world_states);
            assert_eq!(t.view, u.view);
        });
    }

    #[test]
    fn a_held_transcript_keeps_its_buffers_from_the_next_execution() {
        on_fresh_thread(|| {
            let mut a = silent_recorder(18);
            let t = a.run(10);
            drop(a);
            let mut b = silent_recorder(19);
            b.run(3);
            let u = b.into_transcript();
            let c = silent_recorder(20);
            for held in [&t, &u] {
                assert_ne!(c.world_states().as_ptr(), held.world_states.as_ptr());
                assert_ne!(c.view().events().as_ptr(), held.view.events().as_ptr());
            }
            assert_eq!((t.world_states.len(), t.view.len()), (11, 10));
            assert_eq!((u.world_states.len(), u.view.len()), (4, 3));
        });
    }

    #[test]
    fn oversized_history_buffers_are_freed_not_kept() {
        on_fresh_thread(|| {
            let mut a = silent_recorder(21);
            let rounds = spare::MAX_BYTES / std::mem::size_of::<ViewEvent>() + 1;
            a.reserve_rounds(rounds as u64);
            let events = a.view().events().as_ptr();
            drop(a);
            let b = silent_recorder(22);
            assert_ne!(b.view().events().as_ptr(), events);
        });
    }

    #[test]
    fn into_transcript_reports_state() {
        let mut exec = Execution::new(
            Recorder::default(),
            Box::new(SilentServer),
            Box::new(SilentUser),
            GocRng::seed_from_u64(8),
        );
        exec.run(3);
        let t = exec.into_transcript();
        assert_eq!(t.rounds, 3);
        assert_eq!(t.stop, StopReason::HorizonExhausted);
    }
}
