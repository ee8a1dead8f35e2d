//! # goc-core — A Theory of Goal-Oriented Communication, executable
//!
//! This crate is a faithful, executable rendering of the model and results of
//! *A Theory of Goal-Oriented Communication* (Goldreich, Juba, Sudan;
//! PODC 2011 / ECCC TR09-075). Communication is not an end in itself: a
//! **user** interacts with an adversarially chosen **server** in front of a
//! **world**, and a **referee** judges the sequence of world states. The
//! crate provides
//!
//! - the synchronous three-party system and its execution engine
//!   ([`exec`]),
//! - goals — finite and compact — as world families plus referees
//!   ([`goal`]),
//! - **sensing** with its safety and viability properties ([`sensing`],
//!   [`validate`]),
//! - enumerable user-strategy classes ([`enumeration`]),
//! - and the paper's main theorem as code: **universal user strategies** for
//!   compact and finite goals ([`universal`]).
//!
//! ## Quickstart
//!
//! ```
//! use goc_core::prelude::*;
//! use goc_core::toy;
//!
//! // A toy finite goal: make the world hear the magic word.
//! let goal = toy::MagicWordGoal::new("xyzzy");
//!
//! // An informed user achieves it directly.
//! let mut exec = Execution::new(
//!     goal.spawn_world(&mut GocRng::seed_from_u64(1)),
//!     Box::new(toy::RelayServer::default()),
//!     Box::new(toy::SayThrough::new("xyzzy")),
//!     GocRng::seed_from_u64(1),
//! );
//! let t = exec.run(50);
//! assert!(evaluate_finite(&goal, &t).achieved);
//! ```

pub mod buf;
pub mod channel;
pub mod enumeration;
pub mod exec;
pub mod goal;
pub mod harness;
pub mod helpful;
pub mod msg;
pub mod multi;
pub mod obs;
pub mod par;
pub mod rng;
pub mod score;
pub mod sensing;
pub mod snap;
pub mod strategy;
pub mod trace;
pub mod toy;
pub mod universal;
pub mod validate;
pub mod view;
pub mod wrappers;

/// The most commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::channel::{BoxedChannel, Channel, Fault, FaultSchedule, Perfect, Scheduled};
    pub use crate::enumeration::{
        ChainEnumerator, FnEnumerator, LinearSchedule, SliceEnumerator, StrategyEnumerator,
        TriangularSchedule,
    };
    pub use crate::exec::{Execution, StopReason, Transcript, TranscriptView};
    pub use crate::goal::{
        evaluate_compact, evaluate_compact_view, evaluate_finite, evaluate_finite_view,
        CompactGoal, CompactVerdict, FiniteGoal, FiniteVerdict, Goal, GoalKind, StateOf,
    };
    pub use crate::msg::{
        Message, Role, ServerIn, ServerOut, UserIn, UserOut, WorldIn, WorldOut,
    };
    pub use crate::rng::GocRng;
    pub use crate::sensing::{BoxedSensing, Indication, Sensing, SensingFactory};
    pub use crate::snap::{ForkError, Restore, SnapError, SnapReader, SnapState, SnapWriter, Snapshot};
    pub use crate::strategy::{
        BoxedServer, BoxedUser, Halt, ServerStrategy, StepCtx, UserStrategy, WorldStrategy,
    };
    pub use crate::universal::{CompactUniversalUser, LevinUniversalUser};
    pub use crate::view::{UserView, ViewEvent};
}
