//! The compact-goal universal user: enumerate and switch on negatives.

use super::schedule::Schedule;
use super::{expect_derived, replay, v1_windows, SwitchRecord};
use crate::enumeration::StrategyEnumerator;
use crate::msg::{UserIn, UserOut};
use crate::rng::GocRng;
use crate::sensing::{BoxedSensing, Sensing};
use crate::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use crate::strategy::{BoxedUser, Halt, StepCtx, UserStrategy};
use crate::view::ViewEvent;
use std::collections::BTreeMap;
use std::fmt;

/// How the universal user treats a candidate when the triangular schedule
/// revisits it.
///
/// The paper's construction is defined extensionally — by what the candidate
/// *would* output given its inputs — so any policy that reproduces those
/// outputs is faithful. The three policies trade work for memory:
///
/// - [`Restart`](ResumePolicy::Restart): every visit starts a **fresh**
///   candidate (the seed behaviour, and the default). Cheapest memory,
///   but a revisited candidate has forgotten everything.
/// - [`Replay`](ResumePolicy::Replay): every visit starts a fresh candidate
///   and **re-feeds it the full recorded input history** of its previous
///   visits before going live — the reference semantics for resumption, at
///   O(history) cost per revisit (O(i²) total for candidate *i*).
/// - [`Resume`](ResumePolicy::Resume): a candidate abandoned on a negative
///   indication is **suspended** (its live state and private rng stream are
///   parked in a slot) and taken back on revisit — O(1) per revisit.
///
/// `Replay` and `Resume` are observationally equivalent: a candidate's
/// behaviour is a deterministic function of its private rng stream (forked
/// position-independently from the user's stream, so the re-fork on replay
/// reproduces it exactly) and the sequence of `(round, input)` pairs it is
/// fed. The `resume_matches_replay` property test asserts the equivalence
/// bit-for-bit; CI diffs whole `goc-report` runs under both policies.
///
/// `Restart` differs from both by design (a fresh candidate may e.g. re-send
/// a greeting a replayed one would not repeat); it remains the default so
/// seeded experiment outputs predating this type are unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResumePolicy {
    /// Fresh candidate on every visit (seed behaviour).
    #[default]
    Restart,
    /// Fresh candidate re-fed its recorded history on every revisit.
    Replay,
    /// Suspend on abandonment, take the live state back on revisit.
    Resume,
}

impl ResumePolicy {
    /// Reads `GOC_RESUME` (`restart` | `replay` | `resume`; default
    /// `restart`).
    pub fn from_env() -> Self {
        match std::env::var("GOC_RESUME").as_deref() {
            Ok("replay") => ResumePolicy::Replay,
            Ok("resume") => ResumePolicy::Resume,
            _ => ResumePolicy::Restart,
        }
    }
}

/// Fork-stream namespace for per-candidate rng streams (see
/// [`ResumePolicy`]): candidate `i` draws from
/// `user_rng.fork(SLOT_STREAM_BASE + i)`. Forking is position-independent,
/// so re-deriving the stream at replay time reproduces it exactly.
const SLOT_STREAM_BASE: u64 = 0x5245_5355_4d45; // "RESUME"

/// Per-candidate suspension state (policies other than `Restart`).
#[derive(Debug, Default)]
struct Slot {
    /// The suspended live candidate (`Resume` only).
    user: Option<BoxedUser>,
    /// The suspended candidate's rng stream (`Resume` only).
    rng: Option<GocRng>,
    /// Every `(round, input)` fed to this candidate so far (`Replay` only).
    history: Vec<(u64, UserIn)>,
}

/// The universal user strategy for **compact** goals (Theorem 1, compact
/// case).
///
/// Runs the currently enumerated strategy and, whenever the sensing function
/// produces a **negative** indication, abandons it for the next strategy in
/// the schedule (default: triangular, so every strategy recurs infinitely
/// often). Sensing is reset at every switch so that one strategy's failures
/// are not held against its successor. Under every [`ResumePolicy`] a
/// switch draws one index from the schedule; a candidate is built from the
/// enumerator only when it is switched to and not taken back from a
/// suspension slot.
///
/// Correctness under the paper's hypotheses:
///
/// - *Safety* ensures a pairing that fails the goal generates infinitely many
///   negatives, so a failing strategy is always eventually abandoned.
/// - *Viability* ensures the viable strategy suffers only finitely many
///   negatives; since it recurs infinitely often in the schedule, the user
///   eventually adopts it after its last spurious negative and never leaves.
///
/// # Behaviour under faulted channels
///
/// A faulted user↔server link (see [`crate::channel`]) can at worst inject
/// spurious **negatives** — e.g. a dropped reply trips a
/// [`Deadline`](crate::sensing::Deadline) — which cost extra switches but
/// are harmless: the triangular schedule revisits every strategy infinitely
/// often, so a finite fault schedule adds only finitely many spurious
/// negatives and the settling argument goes through with a delayed "last
/// negative". Safety needs no caveat at all: compact acceptability is judged
/// by the referee on world states, and a safe sensing stays safe under any
/// view the channel can manufacture. This is exercised mechanically by the
/// `goc-testkit` conformance sweep.
///
/// # Examples
///
/// ```
/// use goc_core::prelude::*;
/// use goc_core::sensing::Deadline;
/// use goc_core::toy;
///
/// let goal = toy::CompactMagicWordGoal::new("hi", 16);
/// let class = toy::caesar_class("hi", 8, true);
/// let universal = CompactUniversalUser::new(
///     Box::new(class),
///     Box::new(Deadline::new(toy::ack_sensing(), 8)),
/// );
///
/// let mut rng = GocRng::seed_from_u64(5);
/// let mut exec = Execution::new(
///     goal.spawn_world(&mut rng),
///     Box::new(toy::RelayServer::with_shift(5)),
///     Box::new(universal),
///     rng,
/// );
/// let t = exec.run(2000);
/// assert!(evaluate_compact(&goal, &t).achieved(200));
/// ```
pub struct CompactUniversalUser {
    enumerator: Box<dyn StrategyEnumerator>,
    sensing: BoxedSensing,
    /// The constructor's schedule, never advanced: restore replays it to
    /// rebuild the live schedule.
    origin: Schedule,
    schedule: Schedule,
    current: BoxedUser,
    current_index: usize,
    switches: Vec<SwitchRecord>,
    pending_switch: bool,
    policy: ResumePolicy,
    /// Suspension slots, keyed by enumeration index (non-`Restart` only).
    slots: BTreeMap<usize, Slot>,
    /// The live candidate's private rng stream (non-`Restart` only);
    /// `None` until the first step derives it from the step context.
    slot_rng: Option<GocRng>,
    /// Rounds re-fed to fresh candidates under [`ResumePolicy::Replay`].
    replayed_rounds: u64,
    /// Switches that took a suspended candidate back instead of building a
    /// fresh one ([`ResumePolicy::Resume`] only).
    resumed_switches: u64,
}

impl fmt::Debug for CompactUniversalUser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompactUniversalUser")
            .field("enumerator", &self.enumerator.name())
            .field("sensing", &self.sensing.name())
            .field("current_index", &self.current_index)
            .field("switches", &self.switches.len())
            .finish()
    }
}

impl CompactUniversalUser {
    /// Builds the universal user over `enumerator` with the given `sensing`,
    /// using the (correct) triangular schedule and the revisit policy named
    /// by the `GOC_RESUME` environment variable (default
    /// [`Restart`](ResumePolicy::Restart), the seed behaviour). Setting
    /// `GOC_RESUME=replay` or `=resume` must not change any experiment's
    /// *outcome* — CI diffs whole report runs under both to enforce it.
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty.
    pub fn new(enumerator: Box<dyn StrategyEnumerator>, sensing: BoxedSensing) -> Self {
        Self::with_policy(enumerator, sensing, ResumePolicy::from_env())
    }

    /// [`CompactUniversalUser::new`] with an explicit [`ResumePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty.
    pub fn with_policy(
        enumerator: Box<dyn StrategyEnumerator>,
        sensing: BoxedSensing,
        policy: ResumePolicy,
    ) -> Self {
        assert!(!enumerator.is_empty(), "universal user needs a non-empty strategy class");
        let schedule = Schedule::triangular(enumerator.len());
        Self::with_schedule_and_policy(enumerator, sensing, schedule, policy)
    }

    /// Builds the universal user with an explicit schedule (ablation E8 uses
    /// [`Schedule::linear`]) and the `GOC_RESUME` revisit policy, as in
    /// [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty or the schedule yields an index the
    /// enumeration cannot instantiate.
    pub fn with_schedule(
        enumerator: Box<dyn StrategyEnumerator>,
        sensing: BoxedSensing,
        schedule: Schedule,
    ) -> Self {
        Self::with_schedule_and_policy(enumerator, sensing, schedule, ResumePolicy::from_env())
    }

    /// Builds the universal user with an explicit schedule *and* an explicit
    /// [`ResumePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty or the schedule yields an index the
    /// enumeration cannot instantiate.
    pub fn with_schedule_and_policy(
        enumerator: Box<dyn StrategyEnumerator>,
        sensing: BoxedSensing,
        schedule: Schedule,
        policy: ResumePolicy,
    ) -> Self {
        assert!(!enumerator.is_empty(), "universal user needs a non-empty strategy class");
        let mut user = CompactUniversalUser {
            enumerator,
            sensing,
            origin: schedule.clone(),
            schedule,
            current: Box::new(crate::strategy::SilentUser),
            current_index: 0,
            switches: Vec::new(),
            pending_switch: false,
            policy,
            slots: BTreeMap::new(),
            slot_rng: None,
            replayed_rounds: 0,
            resumed_switches: 0,
        };
        let first = user.schedule.next().expect("schedules are infinite");
        user.current = user.build(first);
        user.current_index = first;
        user
    }

    /// Index (in the enumeration) of the strategy currently running.
    pub fn current_index(&self) -> usize {
        self.current_index
    }

    /// Number of strategy switches performed so far.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The full switch log (for the overhead experiments).
    pub fn switch_log(&self) -> &[SwitchRecord] {
        &self.switches
    }

    /// The revisit policy this user was built with.
    pub fn policy(&self) -> ResumePolicy {
        self.policy
    }

    /// Rounds re-fed to fresh candidates so far ([`ResumePolicy::Replay`]
    /// only; zero otherwise). This is the quadratic work the `Resume` policy
    /// eliminates.
    pub fn replayed_rounds(&self) -> u64 {
        self.replayed_rounds
    }

    /// Switches that took a suspended candidate back instead of building a
    /// fresh one ([`ResumePolicy::Resume`] only; zero otherwise).
    pub fn resumed_switches(&self) -> u64 {
        self.resumed_switches
    }

    /// Builds a fresh copy of candidate `index`.
    fn build(&self, index: usize) -> BoxedUser {
        self.enumerator
            .strategy(index)
            .expect("schedule yielded an index outside the enumeration")
    }

    /// The v1 snapshot layout's schedule and window fields for a live
    /// schedule that has yielded `consumed` slots. Only `Restart` users
    /// ever drew windows early; the other policies record the live schedule
    /// and empty windows.
    fn v1_fields(
        &self,
        live: &Schedule,
        consumed: u64,
    ) -> (Schedule, Vec<usize>, Option<Vec<usize>>) {
        match self.policy {
            ResumePolicy::Restart => {
                let (schedule, ahead, next) = v1_windows(live, consumed);
                (schedule, ahead, Some(next))
            }
            _ => (live.clone(), Vec::new(), None),
        }
    }

    fn switch(&mut self, ctx: &mut StepCtx<'_>) {
        let round = ctx.round;
        crate::obs_event!("universal.eliminate", self.current_index);
        let next = self.schedule.next().expect("schedules are infinite");
        match self.policy {
            ResumePolicy::Restart => {
                crate::obs_event!("universal.spawn", next);
                self.current = self.build(next);
            }
            ResumePolicy::Replay => {
                crate::obs_event!("universal.spawn", next);
                self.current = self.build(next);
                // Re-derive the candidate's private stream from scratch and
                // re-feed its recorded history: position-independent forking
                // guarantees this reconstructs the abandoned state exactly.
                let mut rng = ctx.rng.fork(SLOT_STREAM_BASE + next as u64);
                if let Some(slot) = self.slots.get(&next) {
                    for (r, input) in &slot.history {
                        let mut replay_ctx = StepCtx::new(*r, &mut rng);
                        let _ = self.current.step(&mut replay_ctx, input);
                    }
                    self.replayed_rounds += slot.history.len() as u64;
                }
                self.slot_rng = Some(rng);
            }
            ResumePolicy::Resume => {
                // Suspend the abandoned candidate together with its rng
                // position.
                crate::obs_event!("universal.suspend", self.current_index);
                let old =
                    std::mem::replace(&mut self.current, Box::new(crate::strategy::SilentUser));
                let slot = self.slots.entry(self.current_index).or_default();
                slot.user = Some(old);
                slot.rng = self.slot_rng.take();
                // Take the revisited candidate back, or build it fresh on a
                // first visit.
                match self.slots.get_mut(&next).and_then(|s| s.user.take()) {
                    Some(user) => {
                        crate::obs_event!("universal.resume", next);
                        self.current = user;
                        self.slot_rng = self.slots.get_mut(&next).and_then(|s| s.rng.take());
                        self.resumed_switches += 1;
                    }
                    None => {
                        crate::obs_event!("universal.spawn", next);
                        self.current = self.build(next);
                        self.slot_rng = Some(ctx.rng.fork(SLOT_STREAM_BASE + next as u64));
                    }
                }
            }
        }
        crate::obs_count!("universal.switches", 1u64);
        self.switches.push(SwitchRecord {
            round,
            from_index: self.current_index,
            to_index: next,
        });
        self.current_index = next;
        self.sensing.reset();
        self.pending_switch = false;
    }
}

impl UserStrategy for CompactUniversalUser {
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        if self.pending_switch {
            self.switch(ctx);
        }
        let out = if self.policy == ResumePolicy::Restart {
            self.current.step(ctx, input)
        } else {
            // Candidates under Replay/Resume draw from a private,
            // position-independently forked stream so that replaying or
            // resuming reconstructs exactly the same randomness.
            if self.slot_rng.is_none() {
                self.slot_rng = Some(ctx.rng.fork(SLOT_STREAM_BASE + self.current_index as u64));
            }
            let rng = self.slot_rng.as_mut().expect("initialized above");
            let mut slot_ctx = StepCtx::new(ctx.round, rng);
            self.current.step(&mut slot_ctx, input)
        };
        let event = ViewEvent { round: ctx.round, received: input.clone(), sent: out.clone() };
        let indication = self.sensing.observe(&event);
        if self.policy == ResumePolicy::Replay {
            // Reuse the event's clone of the inbox for the replay history
            // instead of cloning a second time. Recording after the step is
            // equivalent: the history is only read at a switch, which is
            // always deferred to the start of the next round.
            self.slots
                .entry(self.current_index)
                .or_default()
                .history
                .push((ctx.round, event.received));
        }
        if indication.is_negative() {
            // Switch at the *start* of the next round so this round's output
            // (already computed) stays consistent with the strategy that
            // produced it.
            self.pending_switch = true;
        }
        if self.current.halted().is_some() {
            // A halted inner strategy is silent forever: for a compact goal
            // that is abandonment, so move on.
            self.pending_switch = true;
        }
        out
    }

    fn halted(&self) -> Option<Halt> {
        None // compact-goal users run forever
    }

    fn name(&self) -> String {
        format!("compact-universal({})", self.enumerator.name())
    }

    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        w.u8(match self.policy {
            ResumePolicy::Restart => 0,
            ResumePolicy::Replay => 1,
            ResumePolicy::Resume => 2,
        });
        // The v1 layout's window fields are derived, not stored (see
        // `super::V1_WINDOW`).
        let consumed = self.switches.len() as u64 + 1;
        let (schedule, ahead, next) = self.v1_fields(&self.schedule, consumed);
        schedule.encode(w);
        w.usize(self.current_index);
        w.str(&self.current.name());
        w.block(|w| self.current.save_snap(w))?;
        self.switches.encode(w);
        w.bool(self.pending_switch);
        ahead.encode(w);
        next.encode(w);
        self.slot_rng.encode(w);
        w.u64(self.replayed_rounds);
        w.u64(self.resumed_switches);
        w.u64(self.slots.len() as u64);
        for (&index, slot) in &self.slots {
            w.usize(index);
            match &slot.user {
                None => w.u8(0),
                Some(user) => {
                    w.u8(1);
                    w.str(&user.name());
                    w.block(|w| user.save_snap(w))?;
                }
            }
            slot.rng.encode(w);
            slot.history.encode(w);
        }
        w.block(|w| self.sensing.save_snap(w))
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let policy = match r.u8("resume policy tag")? {
            0 => ResumePolicy::Restart,
            1 => ResumePolicy::Replay,
            2 => ResumePolicy::Resume,
            found => return Err(SnapError::BadTag { context: "resume policy tag", found }),
        };
        if policy != self.policy {
            // The policy is configuration (chosen at construction, often via
            // GOC_RESUME), not mutable state: a skeleton built under a
            // different policy cannot continue this run bit-identically.
            return Err(SnapError::Mismatch {
                context: "resume policy",
                expected: format!("{:?}", self.policy),
                found: format!("{policy:?}"),
            });
        }
        let stored_schedule = Schedule::decode(r)?;
        self.current_index = r.usize("compact current index")?;
        let saved_name = r.str("compact current name")?.to_string();
        let mut current = self
            .enumerator
            .strategy(self.current_index)
            .ok_or(SnapError::Malformed { context: "compact current index" })?;
        if current.name() != saved_name {
            return Err(SnapError::Mismatch {
                context: "compact current candidate",
                expected: current.name(),
                found: saved_name,
            });
        }
        let mut block = r.block("compact current block")?;
        current.restore_snap(&mut block)?;
        block.finish()?;
        self.current = current;
        self.switches = Vec::<SwitchRecord>::decode(r)?;
        self.pending_switch = r.bool("compact pending switch")?;
        // Every switch consumes one slot after the constructor's first, so
        // the replay is bounded by the snapshot's own length.
        let consumed = self.switches.len() as u64 + 1;
        let (schedule, index) = replay(&self.origin, consumed);
        expect_derived("compact current index", &index, &self.current_index)?;
        let (after, ahead, next) = self.v1_fields(&schedule, consumed);
        expect_derived("compact schedule", &after, &stored_schedule)?;
        expect_derived("compact current window", &ahead, &Vec::decode(r)?)?;
        expect_derived("compact next window", &next, &Option::decode(r)?)?;
        self.schedule = schedule;
        self.slot_rng = Option::<GocRng>::decode(r)?;
        self.replayed_rounds = r.u64("compact replayed rounds")?;
        self.resumed_switches = r.u64("compact resumed switches")?;
        let n = r.count("slot count")?;
        self.slots.clear();
        for _ in 0..n {
            let index = r.usize("slot index")?;
            let user = match r.u8("slot user tag")? {
                0 => None,
                1 => {
                    let saved_name = r.str("slot user name")?.to_string();
                    let mut user = self
                        .enumerator
                        .strategy(index)
                        .ok_or(SnapError::Malformed { context: "slot index" })?;
                    if user.name() != saved_name {
                        return Err(SnapError::Mismatch {
                            context: "slot candidate",
                            expected: user.name(),
                            found: saved_name,
                        });
                    }
                    let mut block = r.block("slot user block")?;
                    user.restore_snap(&mut block)?;
                    block.finish()?;
                    Some(user)
                }
                found => return Err(SnapError::BadTag { context: "slot user tag", found }),
            };
            let rng = Option::<GocRng>::decode(r)?;
            let history = Vec::<(u64, UserIn)>::decode(r)?;
            self.slots.insert(index, Slot { user, rng, history });
        }
        let mut block = r.block("compact sensing block")?;
        self.sensing.restore_snap(&mut block)?;
        block.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Execution;
    use crate::goal::{evaluate_compact, Goal};
    use crate::rng::GocRng;
    use crate::sensing::Deadline;
    use crate::toy;

    fn universal(shifts: u8, timeout: u64) -> CompactUniversalUser {
        CompactUniversalUser::new(
            Box::new(toy::caesar_class("hi", shifts, true)),
            Box::new(Deadline::new(toy::ack_sensing(), timeout)),
        )
    }

    fn run_against(shift: u8, user: CompactUniversalUser, horizon: u64, seed: u64) -> bool {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let mut rng = GocRng::seed_from_u64(seed);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(shift)),
            Box::new(user),
            rng,
        );
        let t = exec.run(horizon);
        evaluate_compact(&goal, &t).achieved(horizon / 8)
    }

    #[test]
    fn finds_the_compatible_strategy_for_every_server() {
        for shift in 0..8u8 {
            assert!(
                run_against(shift, universal(8, 8), 4000, 100 + shift as u64),
                "failed against shift {shift}"
            );
        }
    }

    #[test]
    fn settles_and_stops_switching() {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let mut rng = GocRng::seed_from_u64(7);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(3)),
            Box::new(universal(8, 8)),
            rng,
        );
        exec.run(4000);
        // Downcast via Debug: we can't retrieve the user from the execution
        // generically, so instead run the universal user manually below.
        // (Settling is asserted by the flawless tail of the verdict.)
        let t = exec.into_transcript();
        let v = evaluate_compact(&goal, &t);
        assert!(v.achieved(500), "verdict: {v:?}");
    }

    #[test]
    fn switch_log_counts_abandonments() {
        // Drive the universal user by hand against nothing: ack never comes,
        // so Deadline fires every `timeout` rounds and the user cycles.
        let mut u = universal(4, 5);
        let mut rng = GocRng::seed_from_u64(1);
        assert_eq!(u.current_index(), 0);
        for round in 0..100 {
            let mut ctx = StepCtx::new(round, &mut rng);
            let _ = u.step(&mut ctx, &UserIn::default());
        }
        assert!(u.switch_count() >= 10, "switches: {}", u.switch_count());
        // Triangular over 4: indices cycle 0,0,1,0,1,2,...
        let first: Vec<usize> = u.switch_log().iter().take(3).map(|s| s.to_index).collect();
        assert_eq!(first, vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "non-empty strategy class")]
    fn empty_class_panics() {
        let _ = CompactUniversalUser::new(
            Box::new(crate::enumeration::SliceEnumerator::new("empty")),
            Box::new(toy::ack_sensing()),
        );
    }

    #[test]
    fn linear_schedule_ablation_can_strand() {
        // With a *linear* schedule and sensing so impatient it produces a
        // spurious negative before the correct strategy can earn its ack,
        // the naive user abandons every strategy once and strands on the
        // last one. The triangular user recovers because strategies recur.
        //
        // Deadline timeout 2 < 3 rounds needed for the first ack round-trip.
        let mk = |schedule: Schedule| {
            CompactUniversalUser::with_schedule(
                Box::new(toy::caesar_class("hi", 4, true)),
                Box::new(Deadline::new(toy::ack_sensing(), 2)),
                schedule,
            )
        };
        let goal = toy::CompactMagicWordGoal::new("hi", 16);

        let run = |user: CompactUniversalUser| {
            let mut rng = GocRng::seed_from_u64(11);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(toy::RelayServer::with_shift(1)),
                Box::new(user),
                rng,
            );
            let t = exec.run(3000);
            evaluate_compact(&goal, &t)
        };

        let linear = run(mk(Schedule::linear(Some(4))));
        let triangular = run(mk(Schedule::triangular(Some(4))));
        // The linear user strands on index 3 (wrong shift): goal not achieved.
        assert!(!linear.achieved(300), "linear: {linear:?}");
        // Even the triangular user cannot *settle* (negatives keep firing
        // with timeout 2), but it keeps revisiting the right strategy, so it
        // outperforms linear on successes; assert it at least heard acks.
        assert!(triangular.bad_prefixes <= linear.bad_prefixes);
    }

    #[test]
    fn halted_inner_strategy_triggers_switch() {
        // A class of finite (halting) users inside a compact universal user:
        // each halts immediately, so the universal user must keep switching.
        let class = crate::enumeration::SliceEnumerator::new("halters").with(|| {
            Box::new(crate::strategy::FnUser::new("halter", |_ctx, _in| {
                crate::strategy::UserAction::HaltWith(UserOut::silence(), Halt::empty())
            })) as BoxedUser
        });
        let mut u = CompactUniversalUser::new(
            Box::new(class),
            Box::new(toy::ack_sensing()),
        );
        let mut rng = GocRng::seed_from_u64(2);
        for round in 0..10 {
            let mut ctx = StepCtx::new(round, &mut rng);
            let _ = u.step(&mut ctx, &UserIn::default());
        }
        assert!(u.switch_count() >= 9);
    }

    #[test]
    fn debug_and_name() {
        let u = universal(4, 5);
        assert!(format!("{u:?}").contains("CompactUniversalUser"));
        assert!(u.name().contains("compact-universal"));
        assert!(UserStrategy::halted(&u).is_none());
    }

    #[test]
    fn resume_policy_default_is_restart() {
        assert_eq!(ResumePolicy::default(), ResumePolicy::Restart);
        assert_eq!(universal(4, 5).policy(), ResumePolicy::Restart);
    }

    /// A stateful candidate: emits its own step count, so whether a revisit
    /// remembers previous visits is directly observable in the output.
    #[derive(Clone, Debug, Default)]
    struct CounterUser {
        n: u64,
    }

    impl UserStrategy for CounterUser {
        fn step(&mut self, _ctx: &mut StepCtx<'_>, _input: &UserIn) -> UserOut {
            let out = UserOut {
                to_server: crate::msg::Message::from(format!("{}", self.n)),
                to_world: crate::msg::Message::silence(),
            };
            self.n += 1;
            out
        }

        fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
            w.u64(self.n);
            Ok(())
        }

        fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.n = r.u64("counter")?;
            Ok(())
        }
    }

    /// Builds a universal user over two stateful counters whose sensing
    /// (Deadline with timeout 1 and no acks) fires a negative every round,
    /// forcing a switch per round.
    fn counting_universal(policy: ResumePolicy) -> CompactUniversalUser {
        let class = crate::enumeration::SliceEnumerator::new("counters")
            .with(|| Box::new(CounterUser::default()) as BoxedUser)
            .with(|| Box::new(CounterUser::default()) as BoxedUser);
        CompactUniversalUser::with_policy(
            Box::new(class),
            Box::new(Deadline::new(toy::ack_sensing(), 1)),
            policy,
        )
    }

    fn drive(mut u: CompactUniversalUser, rounds: u64) -> (Vec<UserOut>, CompactUniversalUser) {
        let mut rng = GocRng::seed_from_u64(9);
        let mut outs = Vec::new();
        for round in 0..rounds {
            let mut ctx = StepCtx::new(round, &mut rng);
            outs.push(u.step(&mut ctx, &UserIn::default()));
        }
        (outs, u)
    }

    #[test]
    fn resume_matches_replay_bit_for_bit() {
        let (replay_out, replay) = drive(counting_universal(ResumePolicy::Replay), 60);
        let (resume_out, resume) = drive(counting_universal(ResumePolicy::Resume), 60);
        assert_eq!(replay_out, resume_out);
        assert_eq!(replay.switch_log(), resume.switch_log());
        assert_eq!(resume.replayed_rounds(), 0);
        assert!(resume.resumed_switches() > 0, "revisits should resume");
        assert!(replay.replayed_rounds() > 0, "revisits should replay");
        assert_eq!(replay.resumed_switches(), 0);
    }

    #[test]
    fn resume_remembers_state_restart_forgets() {
        let (restart_out, _) = drive(counting_universal(ResumePolicy::Restart), 20);
        let (resume_out, _) = drive(counting_universal(ResumePolicy::Resume), 20);
        // Fresh candidates always emit "0"; a resumed candidate keeps
        // counting across revisits.
        assert!(restart_out
            .iter()
            .all(|o| o.to_server == crate::msg::Message::from("0")));
        assert!(resume_out
            .iter()
            .any(|o| o.to_server != crate::msg::Message::from("0")));
        // With two slots sharing 20 rounds, the busier counter must have
        // advanced well past 0 by the end.
        let max_count: u64 = resume_out
            .iter()
            .map(|o| {
                std::str::from_utf8(o.to_server.as_bytes()).unwrap().parse::<u64>().unwrap()
            })
            .max()
            .unwrap();
        assert!(max_count >= 10, "resumed counters should advance well past 0, got {max_count}");
    }

    #[test]
    fn snapshot_resumes_bit_identically_under_every_policy() {
        for policy in [ResumePolicy::Restart, ResumePolicy::Replay, ResumePolicy::Resume] {
            let mut live = counting_universal(policy);
            let mut rng = GocRng::seed_from_u64(31);
            for round in 0..37 {
                let mut ctx = StepCtx::new(round, &mut rng);
                let _ = live.step(&mut ctx, &UserIn::default());
            }
            let mut bytes = Vec::new();
            live.save_snap(&mut SnapWriter::new(&mut bytes)).unwrap();

            let mut restored = counting_universal(policy);
            let mut r = SnapReader::new(&bytes);
            restored.restore_snap(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(restored.current_index(), live.current_index());

            let mut rng2 = rng.clone();
            for round in 37..120 {
                let mut c1 = StepCtx::new(round, &mut rng);
                let mut c2 = StepCtx::new(round, &mut rng2);
                assert_eq!(
                    live.step(&mut c1, &UserIn::default()),
                    restored.step(&mut c2, &UserIn::default()),
                    "policy {policy:?} diverged at round {round}"
                );
            }
            assert_eq!(live.switch_log(), restored.switch_log());
            assert_eq!(live.replayed_rounds(), restored.replayed_rounds());
            assert_eq!(live.resumed_switches(), restored.resumed_switches());
        }
    }

    #[test]
    fn snapshot_restore_rejects_policy_mismatch() {
        let mut live = counting_universal(ResumePolicy::Resume);
        let mut rng = GocRng::seed_from_u64(32);
        for round in 0..10 {
            let mut ctx = StepCtx::new(round, &mut rng);
            let _ = live.step(&mut ctx, &UserIn::default());
        }
        let mut bytes = Vec::new();
        live.save_snap(&mut SnapWriter::new(&mut bytes)).unwrap();
        let mut wrong = counting_universal(ResumePolicy::Restart);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            wrong.restore_snap(&mut r),
            Err(SnapError::Mismatch { context: "resume policy", .. })
        ));
    }

    #[test]
    fn replay_policy_still_achieves_the_goal() {
        for policy in [ResumePolicy::Replay, ResumePolicy::Resume] {
            let goal = toy::CompactMagicWordGoal::new("hi", 16);
            let user = CompactUniversalUser::with_policy(
                Box::new(toy::caesar_class("hi", 8, true)),
                Box::new(Deadline::new(toy::ack_sensing(), 8)),
                policy,
            );
            let mut rng = GocRng::seed_from_u64(42);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(toy::RelayServer::with_shift(5)),
                Box::new(user),
                rng,
            );
            let t = exec.run(4000);
            assert!(
                evaluate_compact(&goal, &t).achieved(500),
                "policy {policy:?} failed to settle"
            );
        }
    }

    fn restart_universal(shifts: u8) -> CompactUniversalUser {
        CompactUniversalUser::with_policy(
            Box::new(toy::caesar_class("hi", shifts, true)),
            Box::new(Deadline::new(toy::ack_sensing(), 3)),
            ResumePolicy::Restart,
        )
    }

    fn save(user: &CompactUniversalUser) -> Vec<u8> {
        let mut bytes = Vec::new();
        user.save_snap(&mut SnapWriter::new(&mut bytes)).unwrap();
        bytes
    }

    fn restore(into: &mut CompactUniversalUser, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        into.restore_snap(&mut r)?;
        r.finish()
    }

    #[test]
    fn restore_into_a_stepped_receiver_resumes_bit_identically() {
        for policy in [ResumePolicy::Restart, ResumePolicy::Replay, ResumePolicy::Resume] {
            let (_, live) = drive(counting_universal(policy), 37);
            // The receiver has switched every round since construction;
            // restore replays the constructor's schedule, not its live one.
            let (_, mut restored) = drive(counting_universal(policy), 90);
            restore(&mut restored, &save(&live)).unwrap();
            assert_eq!(save(&restored), save(&live), "policy {policy:?}");
        }
    }

    #[test]
    fn restore_refuses_a_corrupt_following_window() {
        let (_, live) = drive(restart_universal(8), 50);
        assert!(live.switch_count() > 8, "the window must have been refilled");
        let mut bytes = save(&live);
        // The last index of the next window sits right before the fields
        // below; set its top bit.
        let mut tail = Vec::new();
        let mut w = SnapWriter::new(&mut tail);
        live.slot_rng.encode(&mut w);
        w.u64(live.replayed_rounds);
        w.u64(live.resumed_switches);
        w.u64(0); // no suspension slots under Restart
        w.block(|w| live.sensing.save_snap(w)).unwrap();
        let top = bytes.len() - tail.len() - 1;
        bytes[top] ^= 0x80;
        let err = restore(&mut restart_universal(8), &bytes).unwrap_err();
        assert!(
            matches!(err, SnapError::Mismatch { context: "compact next window", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn restore_refuses_a_different_schedule() {
        let (_, live) = drive(restart_universal(8), 50);
        let mut linear = CompactUniversalUser::with_schedule_and_policy(
            Box::new(toy::caesar_class("hi", 8, true)),
            Box::new(Deadline::new(toy::ack_sensing(), 3)),
            Schedule::linear(Some(8)),
            ResumePolicy::Restart,
        );
        let err = restore(&mut linear, &save(&live)).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch { .. }), "{err:?}");
    }
}
