//! # goc-serve — sessions as a service
//!
//! The paper's model is a user and a server conversing over a channel
//! until the goal is achieved; this crate makes the channel a real socket
//! and the conversation a long-lived **session** hosted by a daemon. Each
//! live session is a suspended [`goc_core::exec::Execution`] — the
//! serializable-checkpoint machinery (`Execution::save`/`restore`) means a
//! session can be driven in time slices, snapshotted over the wire, and
//! migrated across daemons.
//!
//! Modules:
//!
//! - [`wire`] — length-prefixed frames with `goc_core::snap`-disciplined
//!   total decode (magic + version handshake, `MAX_FRAME` allocation gate).
//! - [`session`] — the scenario constructors, the unbuilt `(scenario, seed)`
//!   form a daemon keeps until a session first runs, and the driving
//!   discipline shared by the CLI, the daemon shards, and the load generator.
//! - [`daemon`] — the shard-per-core host: reader threads dispatch to
//!   shard-owned session tables over real TCP/Unix sockets.
//! - [`chaos`] — `goc_core::channel` fault stacks mounted as middleware on
//!   the inbound frame path.
//! - [`client`] — a blocking, pipelining-friendly protocol client.
//!
//! Binaries: `goc-serve` (the daemon), `goc-load` (the load generator —
//! socket mode drives a daemon, in-process mode produces the reference
//! outcome the socket run must match byte-for-byte).

pub mod chaos;
pub mod client;
pub mod daemon;
pub mod session;
pub mod wire;

pub use chaos::ChaosSpec;
pub use client::Client;
pub use daemon::{start, Addr, DaemonHandle, DaemonOpts};
pub use session::Session;
pub use wire::{Frame, WireError, MAX_FRAME, WIRE_MAGIC, WIRE_VERSION};
