//! A servable session: one suspended [`Execution`] plus the driving
//! discipline shared by the CLI (`goc snapshot` / `goc resume`), the
//! daemon shards, and the in-process arm of `goc-load`.
//!
//! A session that has run no rounds is fully described by its
//! `(scenario, seed)`: [`Session::build`] is deterministic. [`Unbuilt`] is
//! that description, and this module decides what a fresh session is and
//! what it reports, so a daemon can hold one without building it.
//!
//! Restoring a snapshot requires the *same constructors and seed* as the
//! saved run (see [`goc_core::snap`]), so scenarios here are deliberately
//! deterministic functions of `(name, seed)` — and this module is the one
//! place those constructors live: the CLI and the daemon build sessions
//! through the same code, which is what makes the networked settle outcome
//! byte-comparable to the in-process one.

use goc_core::prelude::*;
use goc_core::sensing::Deadline;
use goc_core::toy;

/// Snapshot-capable scenario names, in the order `goc list` shows them.
pub const SCENARIOS: [&str; 2] = ["magic", "magic-compact"];

/// The `(round, halted, heard)` status of a session that has run no rounds:
/// round 0, not halted, nothing heard. What `Open` replies for an
/// [`Unbuilt`] session.
pub const FRESH_STATUS: (u64, bool, u64) = (0, false, 0);

/// A session that has run no rounds, held as the `(scenario, seed)` it is
/// built from: 24 bytes where a built [`Session`] is an [`Execution`] and
/// its heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unbuilt {
    scenario: &'static str,
    seed: u64,
}

impl Unbuilt {
    /// The fresh session for `(scenario, seed)`; `None` for names not in
    /// [`SCENARIOS`].
    pub fn new(scenario: &str, seed: u64) -> Option<Unbuilt> {
        let scenario = SCENARIOS.into_iter().find(|&name| name == scenario)?;
        Some(Unbuilt { scenario, seed })
    }

    /// Builds the session this stands for.
    pub fn build(self) -> Session {
        Session::build(self.scenario, self.seed).expect("every name in SCENARIOS builds")
    }
}

/// One live session: an [`Execution`] over the toy magic-word world plus
/// the halt discipline its goal flavour implies.
pub struct Session {
    exec: Execution<toy::MagicWorld>,
    stop_on_halt: bool,
    label: String,
}

impl Session {
    /// Builds a session from `(scenario, seed)`; `None` for unknown names.
    ///
    /// `stop_on_halt` is true for finite-goal scenarios (the driver stops
    /// once the user halts) and false for compact ones (the system runs
    /// the full horizon regardless).
    pub fn build(scenario: &str, seed: u64) -> Option<Session> {
        let mut rng = GocRng::seed_from_u64(seed);
        match scenario {
            "magic" => {
                let goal = toy::MagicWordGoal::new("xyzzy");
                let user = LevinUniversalUser::round_robin(
                    Box::new(toy::caesar_class("xyzzy", 16, false)),
                    Box::new(toy::ack_sensing()),
                    8,
                );
                let shift = (rng.below(16)) as u8;
                let exec = Execution::new(
                    goal.spawn_world(&mut rng),
                    Box::new(toy::RelayServer::with_shift(shift)),
                    Box::new(user),
                    rng,
                );
                Some(Session {
                    exec,
                    stop_on_halt: true,
                    label: format!("magic word via Caesar relay (+{shift})"),
                })
            }
            "magic-compact" => {
                let goal = toy::CompactMagicWordGoal::new("xyzzy", 16);
                let user = CompactUniversalUser::new(
                    Box::new(toy::caesar_class("xyzzy", 16, true)),
                    Box::new(Deadline::new(toy::ack_sensing(), 16)),
                );
                let shift = (rng.below(16)) as u8;
                let exec = Execution::new(
                    goal.spawn_world(&mut rng),
                    Box::new(toy::RelayServer::with_shift(shift)),
                    Box::new(user),
                    rng,
                );
                Some(Session {
                    exec,
                    stop_on_halt: false,
                    label: format!("compact magic word via Caesar relay (+{shift})"),
                })
            }
            _ => None,
        }
    }

    /// The scenario's human-readable label (includes the sampled server).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether the driver stops at the user's halt (finite goals).
    pub fn stop_on_halt(&self) -> bool {
        self.stop_on_halt
    }

    /// Current round index.
    pub fn round(&self) -> u64 {
        self.exec.round()
    }

    /// Whether the user has halted.
    pub fn halted(&self) -> bool {
        self.exec.user().halted().is_some()
    }

    /// The world's heard-count — the referee-visible outcome signal.
    pub fn heard(&self) -> u64 {
        self.exec.world_state().heard_count
    }

    /// Steps until round `target` (or the user halts, when
    /// `stop_on_halt`). Driving in quanta composes: `step_to(64)` then
    /// `step_to(128)` settles identically to `step_to(128)` in one call,
    /// because the halt check runs every round either way — this is what
    /// lets the daemon drive sessions in time slices without perturbing
    /// the outcome.
    pub fn step_to(&mut self, target: u64) {
        while self.exec.round() < target {
            if self.stop_on_halt && self.halted() {
                break;
            }
            self.exec.step();
        }
    }

    /// Steps forward by up to `rounds` more rounds and reports the
    /// resulting `(round, halted, heard)` status triple.
    pub fn drive(&mut self, rounds: u64) -> (u64, bool, u64) {
        let target = self.exec.round().saturating_add(rounds);
        self.step_to(target);
        (self.round(), self.halted(), self.heard())
    }

    /// Whether driving to `horizon` has nothing left to do.
    pub fn settled(&self, horizon: u64) -> bool {
        self.round() >= horizon || (self.stop_on_halt && self.halted())
    }

    /// The deterministic end-of-run summary line; byte equality of this
    /// line is what CI's differential gates compare between in-process,
    /// interrupted, and networked runs.
    pub fn outcome_line(&self) -> String {
        format!(
            "{}: round {}, halted {}, heard {}",
            self.label,
            self.round(),
            self.halted(),
            self.heard()
        )
    }

    /// Serializes the session (see [`Execution::save_to_vec`]).
    pub fn save_to_vec(&self) -> Result<Vec<u8>, SnapError> {
        self.exec.save_to_vec()
    }

    /// Restores a checkpoint saved from the same `(scenario, seed)`.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.exec.restore(bytes)
    }

    /// The underlying execution, for callers that need the full API.
    pub fn exec(&self) -> &Execution<toy::MagicWorld> {
        &self.exec
    }

    /// Mutable access to the underlying execution.
    pub fn exec_mut(&mut self) -> &mut Execution<toy::MagicWorld> {
        &mut self.exec
    }
}

/// The per-session seed used by `goc-load` and the CI gate: a splitmix64
/// finalizer over `(base, id)` so neighbouring ids land on unrelated
/// server shifts.
pub fn session_seed(base: u64, id: u64) -> u64 {
    let mut z = base ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
