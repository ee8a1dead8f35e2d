//! Strategies: the behaviours of the three parties.
//!
//! A *strategy* (paper §2) maps an internal state and an incoming message
//! profile to a new internal state and an outgoing message profile, possibly
//! probabilistically. In this library a strategy is an object owning its
//! internal state; one synchronous round corresponds to one call to `step`.
//!
//! - [`UserStrategy`] and [`ServerStrategy`] are object safe: user strategies
//!   must be enumerable and swappable (the universal constructions juggle
//!   boxed users), and server strategies form the adversarially-chosen
//!   classes the theory quantifies over.
//! - [`WorldStrategy`] carries an associated [`State`](WorldStrategy::State)
//!   snapshot type: referees are predicates on sequences of world states, so
//!   the world must expose its state after every round.

use crate::msg::{Message, ServerIn, ServerOut, UserIn, UserOut, WorldIn, WorldOut};
use crate::rng::GocRng;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::fmt::Debug;

/// Per-round context handed to every strategy: the round number and a
/// deterministic random stream private to the party.
#[derive(Debug)]
pub struct StepCtx<'a> {
    /// Index of the current round, starting at 0.
    pub round: u64,
    /// The party's private randomness.
    pub rng: &'a mut GocRng,
}

impl<'a> StepCtx<'a> {
    /// Creates a step context.
    pub fn new(round: u64, rng: &'a mut GocRng) -> Self {
        StepCtx { round, rng }
    }
}

/// The user's verdict when it halts in a *finite* goal execution.
///
/// Compact-goal users never halt; finite-goal users must eventually halt and
/// may produce an output, which finite referees may inspect.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Halt {
    /// The user's final output (e.g. the delegated computation's result).
    pub output: Message,
}

impl Halt {
    /// Halt with an output message.
    pub fn with_output(output: impl Into<Message>) -> Self {
        Halt { output: output.into() }
    }

    /// Halt without an output.
    pub fn empty() -> Self {
        Halt { output: Message::silence() }
    }
}

/// A user strategy: the algorithm acting on our behalf.
///
/// # Examples
///
/// ```
/// use goc_core::strategy::{StepCtx, UserStrategy, Halt};
/// use goc_core::msg::{UserIn, UserOut};
///
/// /// Forwards everything the world says to the server, verbatim.
/// #[derive(Debug, Default)]
/// struct Parrot;
///
/// impl UserStrategy for Parrot {
///     fn step(&mut self, _ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
///         UserOut::to_server(input.from_world.clone())
///     }
/// }
/// ```
pub trait UserStrategy: Debug {
    /// Executes one synchronous round: consumes the incoming profile, returns
    /// the outgoing profile.
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut;

    /// For finite goals: returns `Some` once the strategy has halted. The
    /// execution engine stops the run and hands the verdict to the referee.
    ///
    /// Compact-goal strategies keep the default (`None` forever).
    fn halted(&self) -> Option<Halt> {
        None
    }

    /// A deterministic checkpoint: an independent copy of this strategy in
    /// its *current* state, or `None` if the strategy cannot be checkpointed
    /// (e.g. it closes over external state). Stepping the fork with the same
    /// context and inputs must produce exactly the outputs the original
    /// would — this is what makes suspend/resume of candidates in the
    /// universal users observationally equivalent to replay.
    fn fork(&self) -> Option<BoxedUser> {
        None
    }

    /// A short human-readable name for diagnostics.
    fn name(&self) -> String {
        "user".to_string()
    }

    /// Serializes this strategy's mutable state (see [`crate::snap`]). The
    /// default refuses, naming the strategy — `Execution::save` surfaces the
    /// refusal so callers know *which* party blocked the checkpoint.
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        let _ = w;
        Err(SnapError::unsupported("user", self.name()))
    }

    /// Restores state written by [`save_snap`](Self::save_snap) into this
    /// strategy, which must have been built with the same configuration.
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Err(SnapError::unsupported("user", self.name()))
    }
}

/// A server strategy: the party whose assistance the user seeks.
///
/// Incompatibility is modelled by *classes* of server strategies: a user is
/// paired with an adversarially selected member of the class.
pub trait ServerStrategy: Debug {
    /// Executes one synchronous round.
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &ServerIn) -> ServerOut;

    /// A deterministic checkpoint of this server in its current state, or
    /// `None` if the server cannot be checkpointed. See
    /// [`UserStrategy::fork`].
    fn fork(&self) -> Option<BoxedServer> {
        None
    }

    /// A short human-readable name for diagnostics.
    fn name(&self) -> String {
        "server".to_string()
    }

    /// Serializes this server's mutable state (see [`crate::snap`]). The
    /// default refuses, naming the server. See [`UserStrategy::save_snap`].
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        let _ = w;
        Err(SnapError::unsupported("server", self.name()))
    }

    /// Restores state written by [`save_snap`](Self::save_snap) into this
    /// server, which must have been built with the same configuration.
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Err(SnapError::unsupported("server", self.name()))
    }
}

/// A world strategy: "the rest of the system", whose state sequence the
/// referee judges.
pub trait WorldStrategy: Debug {
    /// The referee-visible snapshot of the world's internal state. It owns
    /// its data (`'static`), so an execution can keep its emptied history
    /// buffer for the next execution on the same thread.
    type State: Clone + Debug + 'static;

    /// Executes one synchronous round.
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &WorldIn) -> WorldOut;

    /// A snapshot of the current state, recorded after every round (and once
    /// before round 0, the initial state).
    fn state(&self) -> Self::State;

    /// Serializes this world's mutable state (see [`crate::snap`]). The
    /// default refuses, naming the type. See [`UserStrategy::save_snap`].
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        let _ = w;
        Err(SnapError::unsupported("world", std::any::type_name::<Self>()))
    }

    /// Restores state written by [`save_snap`](Self::save_snap) into this
    /// world, which must have been built with the same configuration.
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Err(SnapError::unsupported("world", std::any::type_name::<Self>()))
    }
}

/// A boxed user strategy, as produced by enumerations.
pub type BoxedUser = Box<dyn UserStrategy>;

/// A boxed server strategy, as produced by server classes.
pub type BoxedServer = Box<dyn ServerStrategy>;

impl UserStrategy for BoxedUser {
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        (**self).step(ctx, input)
    }

    fn halted(&self) -> Option<Halt> {
        (**self).halted()
    }

    fn fork(&self) -> Option<BoxedUser> {
        (**self).fork()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        (**self).save_snap(w)
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).restore_snap(r)
    }
}

impl ServerStrategy for BoxedServer {
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &ServerIn) -> ServerOut {
        (**self).step(ctx, input)
    }

    fn fork(&self) -> Option<BoxedServer> {
        (**self).fork()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        (**self).save_snap(w)
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).restore_snap(r)
    }
}

/// A user strategy that stays silent forever and never halts.
///
/// Useful as a baseline and in forgivingness checks.
#[derive(Clone, Debug, Default)]
pub struct SilentUser;

impl UserStrategy for SilentUser {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, _input: &UserIn) -> UserOut {
        UserOut::silence()
    }

    fn fork(&self) -> Option<BoxedUser> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> String {
        "silent-user".to_string()
    }

    fn save_snap(&self, _w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        Ok(()) // stateless
    }

    fn restore_snap(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// A server strategy that stays silent forever — the canonical *unhelpful*
/// server.
#[derive(Clone, Debug, Default)]
pub struct SilentServer;

impl ServerStrategy for SilentServer {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, _input: &ServerIn) -> ServerOut {
        ServerOut::silence()
    }

    fn fork(&self) -> Option<BoxedServer> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> String {
        "silent-server".to_string()
    }

    fn save_snap(&self, _w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        Ok(()) // stateless
    }

    fn restore_snap(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// A server that echoes the user's previous message back to the user.
#[derive(Clone, Debug, Default)]
pub struct EchoServer;

impl ServerStrategy for EchoServer {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, input: &ServerIn) -> ServerOut {
        ServerOut::to_user(input.from_user.clone())
    }

    fn fork(&self) -> Option<BoxedServer> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> String {
        "echo-server".to_string()
    }

    fn save_snap(&self, _w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        Ok(()) // stateless
    }

    fn restore_snap(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// A user built from a closure over `(round, input)`, for tests and small
/// experiments.
pub struct FnUser<F> {
    f: F,
    halt: Option<Halt>,
    label: String,
}

impl<F> Debug for FnUser<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnUser").field("label", &self.label).finish()
    }
}

impl<F> FnUser<F>
where
    F: FnMut(&mut StepCtx<'_>, &UserIn) -> UserAction,
{
    /// Wraps a closure as a user strategy.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        FnUser { f, halt: None, label: label.into() }
    }
}

/// The action a [`FnUser`] closure takes in a round.
#[derive(Clone, Debug)]
pub enum UserAction {
    /// Emit an outgoing profile and continue.
    Send(UserOut),
    /// Emit an outgoing profile and halt with the given verdict (finite
    /// goals).
    HaltWith(UserOut, Halt),
}

impl<F> UserStrategy for FnUser<F>
where
    F: FnMut(&mut StepCtx<'_>, &UserIn) -> UserAction,
{
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        if self.halt.is_some() {
            return UserOut::silence();
        }
        match (self.f)(ctx, input) {
            UserAction::Send(out) => out,
            UserAction::HaltWith(out, halt) => {
                self.halt = Some(halt);
                out
            }
        }
    }

    fn halted(&self) -> Option<Halt> {
        self.halt.clone()
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// A server built from a closure over `(ctx, input)`.
pub struct FnServer<F> {
    f: F,
    label: String,
}

impl<F> Debug for FnServer<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnServer").field("label", &self.label).finish()
    }
}

impl<F> FnServer<F>
where
    F: FnMut(&mut StepCtx<'_>, &ServerIn) -> ServerOut,
{
    /// Wraps a closure as a server strategy.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        FnServer { f, label: label.into() }
    }
}

impl<F> ServerStrategy for FnServer<F>
where
    F: FnMut(&mut StepCtx<'_>, &ServerIn) -> ServerOut,
{
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &ServerIn) -> ServerOut {
        (self.f)(ctx, input)
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(rng: &mut GocRng) -> StepCtx<'_> {
        StepCtx::new(0, rng)
    }

    #[test]
    fn silent_user_is_silent_and_never_halts() {
        let mut rng = GocRng::seed_from_u64(0);
        let mut u = SilentUser;
        let out = u.step(&mut ctx_with(&mut rng), &UserIn::default());
        assert_eq!(out, UserOut::silence());
        assert!(u.halted().is_none());
        assert_eq!(u.name(), "silent-user");
    }

    #[test]
    fn echo_server_echoes() {
        let mut rng = GocRng::seed_from_u64(0);
        let mut s = EchoServer;
        let input =
            ServerIn { from_user: Message::from("ping"), from_world: Message::silence() };
        let out = s.step(&mut ctx_with(&mut rng), &input);
        assert_eq!(out.to_user, Message::from("ping"));
    }

    #[test]
    fn fn_user_halts_once_and_stays_halted() {
        let mut rng = GocRng::seed_from_u64(0);
        let mut u = FnUser::new("one-shot", |_ctx, _in| {
            UserAction::HaltWith(UserOut::to_server("bye"), Halt::with_output("42"))
        });
        let out = u.step(&mut ctx_with(&mut rng), &UserIn::default());
        assert_eq!(out.to_server, Message::from("bye"));
        assert_eq!(u.halted(), Some(Halt::with_output("42")));
        // Further steps are silent; the verdict is unchanged.
        let out2 = u.step(&mut ctx_with(&mut rng), &UserIn::default());
        assert_eq!(out2, UserOut::silence());
        assert_eq!(u.halted(), Some(Halt::with_output("42")));
    }

    #[test]
    fn boxed_user_delegates() {
        let mut rng = GocRng::seed_from_u64(0);
        let mut b: BoxedUser = Box::new(SilentUser);
        assert_eq!(b.name(), "silent-user");
        assert_eq!(b.step(&mut ctx_with(&mut rng), &UserIn::default()), UserOut::silence());
        assert!(UserStrategy::halted(&b).is_none());
    }

    #[test]
    fn boxed_server_delegates() {
        let mut rng = GocRng::seed_from_u64(0);
        let mut b: BoxedServer = Box::new(EchoServer);
        assert_eq!(b.name(), "echo-server");
        let input = ServerIn { from_user: Message::from("x"), from_world: Message::silence() };
        assert_eq!(b.step(&mut ctx_with(&mut rng), &input).to_user, Message::from("x"));
    }

    #[test]
    fn fn_server_applies_closure() {
        let mut rng = GocRng::seed_from_u64(0);
        let mut s = FnServer::new("upper", |_ctx, input: &ServerIn| {
            let text = input.from_user.to_text().unwrap_or("").to_uppercase();
            ServerOut::to_user(text.as_str())
        });
        let input = ServerIn { from_user: Message::from("abc"), from_world: Message::silence() };
        assert_eq!(s.step(&mut ctx_with(&mut rng), &input).to_user, Message::from("ABC"));
        assert_eq!(s.name(), "upper");
    }

    #[test]
    fn halt_constructors() {
        assert_eq!(Halt::empty().output, Message::silence());
        assert_eq!(Halt::with_output("y").output, Message::from("y"));
    }
}
