//! The compact-goal universal user: enumerate and switch on negatives.

use super::schedule::Schedule;
use super::{expect_derived, replay, v1_windows, SwitchRecord};
use crate::enumeration::StrategyEnumerator;
use crate::msg::{UserIn, UserOut};
use crate::sensing::{BoxedSensing, Sensing};
use crate::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use crate::strategy::{BoxedUser, Halt, StepCtx, UserStrategy};
use crate::view::ViewEvent;
use std::fmt;

/// The universal user strategy for **compact** goals (Theorem 1, compact
/// case).
///
/// Runs the currently enumerated strategy and, whenever the sensing function
/// produces a **negative** indication, abandons it for the next strategy in
/// the schedule (default: triangular, so every strategy recurs infinitely
/// often). Sensing is reset at every switch so that one strategy's failures
/// are not held against its successor. A switch draws one index from the
/// schedule and builds that candidate afresh from the enumerator, so a
/// revisited candidate starts over and the user keeps no state for the
/// candidates it is not running. The paper defines the construction by
/// what the running candidate outputs, so starting over is as faithful as
/// any other way of revisiting.
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
    /// using the (correct) triangular schedule.
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty.
    pub fn new(enumerator: Box<dyn StrategyEnumerator>, sensing: BoxedSensing) -> Self {
        assert!(!enumerator.is_empty(), "universal user needs a non-empty strategy class");
        let schedule = Schedule::triangular(enumerator.len());
        Self::with_schedule(enumerator, sensing, schedule)
    }

    /// Builds the universal user with an explicit schedule (ablation E8 uses
    /// [`Schedule::linear`]).
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

    /// Builds a fresh copy of candidate `index`.
    fn build(&self, index: usize) -> BoxedUser {
        self.enumerator
            .strategy(index)
            .expect("schedule yielded an index outside the enumeration")
    }

    fn switch(&mut self, round: u64) {
        crate::obs_event!("universal.eliminate", self.current_index);
        let next = self.schedule.next().expect("schedules are infinite");
        crate::obs_event!("universal.spawn", next);
        self.current = self.build(next);
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
            self.switch(ctx.round);
        }
        let out = self.current.step(ctx, input);
        let event = ViewEvent { round: ctx.round, received: input.clone(), sent: out.clone() };
        let indication = self.sensing.observe(&event);
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
        // The v1 layout opens with the revisit policy's tag; 0 is the
        // restart policy, the only one this user has.
        w.u8(0);
        // The v1 layout's window fields are derived, not stored (see
        // `super::V1_WINDOW`).
        let consumed = self.switches.len() as u64 + 1;
        let (schedule, ahead, next) = v1_windows(&self.schedule, consumed);
        schedule.encode(w);
        w.usize(self.current_index);
        w.str(&self.current.name());
        w.block(|w| self.current.save_snap(w))?;
        self.switches.encode(w);
        w.bool(self.pending_switch);
        ahead.encode(w);
        Some(next).encode(w);
        // The v1 fields of the deleted revisit policies, always empty: no
        // private rng stream, no replayed rounds, no resumed switches and
        // no suspension slots.
        w.u8(0);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.block(|w| self.sensing.save_snap(w))
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        // Snapshots of the deleted revisit policies carry candidate state
        // this user cannot continue bit-identically.
        let deleted = |found: &str| SnapError::Mismatch {
            context: "resume policy",
            expected: "Restart".into(),
            found: found.into(),
        };
        match r.u8("resume policy tag")? {
            0 => {}
            1 => return Err(deleted("Replay")),
            2 => return Err(deleted("Resume")),
            found => return Err(SnapError::BadTag { context: "resume policy tag", found }),
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
        let (after, ahead, next) = v1_windows(&schedule, consumed);
        expect_derived("compact schedule", &after, &stored_schedule)?;
        expect_derived("compact current window", &ahead, &Vec::decode(r)?)?;
        expect_derived("compact next window", &Some(next), &Option::decode(r)?)?;
        self.schedule = schedule;
        expect_derived("compact slot rng tag", &0, &r.u8("compact slot rng tag")?)?;
        expect_derived("compact replayed rounds", &0, &r.u64("compact replayed rounds")?)?;
        expect_derived("compact resumed switches", &0, &r.u64("compact resumed switches")?)?;
        expect_derived("compact slot count", &0, &r.u64("compact slot count")?)?;
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
    fn counting_universal() -> CompactUniversalUser {
        let class = crate::enumeration::SliceEnumerator::new("counters")
            .with(|| Box::new(CounterUser::default()) as BoxedUser)
            .with(|| Box::new(CounterUser::default()) as BoxedUser);
        CompactUniversalUser::new(Box::new(class), Box::new(Deadline::new(toy::ack_sensing(), 1)))
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
    fn every_visit_starts_a_fresh_candidate() {
        // A fresh counter emits "0"; one remembered across visits would not.
        let (outs, u) = drive(counting_universal(), 20);
        assert!(u.switch_count() >= 19);
        assert!(outs.iter().all(|o| o.to_server == crate::msg::Message::from("0")));
    }

    #[test]
    fn snapshot_resumes_bit_identically() {
        let mut live = counting_universal();
        let mut rng = GocRng::seed_from_u64(31);
        for round in 0..37 {
            let mut ctx = StepCtx::new(round, &mut rng);
            let _ = live.step(&mut ctx, &UserIn::default());
        }
        let mut restored = counting_universal();
        restore(&mut restored, &save(&live)).unwrap();
        assert_eq!(restored.current_index(), live.current_index());

        let mut rng2 = rng.clone();
        for round in 37..120 {
            let mut c1 = StepCtx::new(round, &mut rng);
            let mut c2 = StepCtx::new(round, &mut rng2);
            assert_eq!(
                live.step(&mut c1, &UserIn::default()),
                restored.step(&mut c2, &UserIn::default()),
                "diverged at round {round}"
            );
        }
        assert_eq!(live.switch_log(), restored.switch_log());
    }

    fn caesar_universal(shifts: u8) -> CompactUniversalUser {
        CompactUniversalUser::new(
            Box::new(toy::caesar_class("hi", shifts, true)),
            Box::new(Deadline::new(toy::ack_sensing(), 3)),
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

    /// Encoded length of the four fields the deleted revisit policies left
    /// in the v1 layout: an rng option tag and three `u64`s.
    const POLICY_FIELDS: usize = 1 + 3 * 8;

    /// Writes replacement values for those four fields.
    type PolicyFields = fn(&mut SnapWriter<'_>);

    /// The encoded sensing block that closes `live`'s snapshot.
    fn sensing_block(live: &CompactUniversalUser) -> Vec<u8> {
        let mut sensing = Vec::new();
        SnapWriter::new(&mut sensing).block(|w| live.sensing.save_snap(w)).unwrap();
        sensing
    }

    /// `live`'s snapshot with those four fields replaced by what `fields`
    /// writes; the sensing block still follows them.
    fn with_policy_fields(live: &CompactUniversalUser, fields: PolicyFields) -> Vec<u8> {
        let sensing = sensing_block(live);
        let bytes = save(live);
        let mut out = bytes[..bytes.len() - sensing.len() - POLICY_FIELDS].to_vec();
        fields(&mut SnapWriter::new(&mut out));
        out.extend(sensing);
        out
    }

    #[test]
    fn restore_refuses_the_deleted_policies() {
        let (_, live) = drive(caesar_universal(8), 50);
        let mut bytes = save(&live);
        for (tag, name) in [(1u8, "Replay"), (2, "Resume")] {
            bytes[0] = tag;
            match restore(&mut caesar_universal(8), &bytes).unwrap_err() {
                SnapError::Mismatch { context: "resume policy", expected, found } => {
                    assert_eq!((expected.as_str(), found.as_str()), ("Restart", name));
                }
                err => panic!("tag {tag}: {err:?}"),
            }
        }
        bytes[0] = 3;
        let err = restore(&mut caesar_universal(8), &bytes).unwrap_err();
        assert!(matches!(err, SnapError::BadTag { context: "resume policy tag", found: 3 }));
    }

    #[test]
    fn restore_refuses_state_of_the_deleted_policies() {
        let (_, live) = drive(caesar_universal(8), 50);
        let cases: [(&str, PolicyFields); 4] = [
            ("compact slot rng tag", |w| {
                Some(GocRng::seed_from_u64(1)).encode(w);
                w.u64(0);
                w.u64(0);
                w.u64(0);
            }),
            ("compact replayed rounds", |w| {
                w.u8(0);
                w.u64(3);
                w.u64(0);
                w.u64(0);
            }),
            ("compact resumed switches", |w| {
                w.u8(0);
                w.u64(0);
                w.u64(1);
                w.u64(0);
            }),
            // A tag-0 snapshot with one suspension slot: candidate 1 with
            // no suspended user, no rng and an empty replay history.
            ("compact slot count", |w| {
                w.u8(0);
                w.u64(0);
                w.u64(0);
                w.u64(1);
                w.usize(1);
                w.u8(0);
                None::<GocRng>.encode(w);
                Vec::<(u64, UserIn)>::new().encode(w);
            }),
        ];
        for (context, fields) in cases {
            let bytes = with_policy_fields(&live, fields);
            let err = restore(&mut caesar_universal(8), &bytes).unwrap_err();
            assert!(
                matches!(err, SnapError::Mismatch { context: c, .. } if c == context),
                "{context}: {err:?}"
            );
        }
    }

    #[test]
    fn restore_into_a_stepped_receiver_resumes_bit_identically() {
        let (_, live) = drive(counting_universal(), 37);
        // The receiver has switched every round since construction;
        // restore replays the constructor's schedule, not its live one.
        let (_, mut restored) = drive(counting_universal(), 90);
        restore(&mut restored, &save(&live)).unwrap();
        assert_eq!(save(&restored), save(&live));
    }

    #[test]
    fn restore_refuses_a_corrupt_following_window() {
        let (_, live) = drive(caesar_universal(8), 50);
        assert!(live.switch_count() > 8, "the window must have been refilled");
        let mut bytes = save(&live);
        // The last index of the next window sits right before the policy
        // fields and the sensing block; set its top bit.
        let top = bytes.len() - sensing_block(&live).len() - POLICY_FIELDS - 1;
        bytes[top] ^= 0x80;
        let err = restore(&mut caesar_universal(8), &bytes).unwrap_err();
        assert!(
            matches!(err, SnapError::Mismatch { context: "compact next window", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn restore_refuses_a_different_schedule() {
        let (_, live) = drive(caesar_universal(8), 50);
        let mut linear = CompactUniversalUser::with_schedule(
            Box::new(toy::caesar_class("hi", 8, true)),
            Box::new(Deadline::new(toy::ack_sensing(), 3)),
            Schedule::linear(Some(8)),
        );
        let err = restore(&mut linear, &save(&live)).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch { .. }), "{err:?}");
    }
}
