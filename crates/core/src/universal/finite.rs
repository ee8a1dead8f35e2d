//! The finite-goal universal user: Levin-style parallel enumeration.

use super::schedule::BudgetSchedule;
use super::SwitchRecord;
use crate::enumeration::StrategyEnumerator;
use crate::msg::{UserIn, UserOut};
use crate::sensing::{BoxedSensing, Sensing};
use crate::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use crate::strategy::{BoxedUser, Halt, StepCtx, UserStrategy};
use crate::view::ViewEvent;
use std::collections::VecDeque;
use std::fmt;

/// How many schedule slots the universal users pre-materialise per batch.
///
/// Candidate construction is pure, so building the next few scheduled
/// candidates ahead of time is unobservable. Results are always adopted in
/// schedule order, so the width only moves work between refills.
pub(super) const LOOKAHEAD: usize = 8;

/// The universal user strategy for **finite** goals (Theorem 1, finite
/// case).
///
/// Candidate strategies are enumerated "in parallel" as in Levin's universal
/// search: the run is divided into slots, and in phase *k* candidate *i*
/// receives a budget of `base × 2^(k−i)` rounds (see
/// [`LevinSchedule`](super::LevinSchedule)). Safe sensing decides when to stop: the user halts the
/// first time an indication is **positive**, adopting the current candidate's
/// output.
///
/// Correctness under the paper's hypotheses:
///
/// - *Safety* (finite flavor): positive indications arise only on acceptable
///   histories — halting on a positive is sound.
/// - *Viability*: with any helpful server, some candidate leads to a positive
///   indication; budget doubling eventually grants that candidate enough
///   consecutive rounds, because the goal is *forgiving* (any finite prefix
///   produced by the other candidates can still be extended to success).
///
/// The per-candidate overhead is the classic Levin factor: if candidate *i*
/// succeeds within *b* rounds, the universal user halts within
/// O(2^i · b) rounds — the "essentially necessary" overhead of §3.
///
/// # Behaviour under faulted channels
///
/// When the user↔server link carries a [`Channel`](crate::channel::Channel)
/// fault, the argument degrades gracefully rather than breaking. Safety is
/// untouched: it is a property of the *sensing* over the user's view, so no
/// amount of link garbage can make a safe sensing emit an unsound positive —
/// the user may be slowed, never fooled into a false halt. Viability
/// survives any fault burst that is *finite* (a bounded-loss
/// [`FaultSchedule`](crate::channel::FaultSchedule)): after the schedule
/// goes quiet the faulted pairing is indistinguishable from a helpful one
/// started late, and budget doubling re-grants the winning candidate enough
/// clean consecutive rounds. Unbounded random loss keeps conquest
/// almost-surely (each retry is an independent trial); only a channel
/// faulty *forever at full strength* de-helpfulises the pairing. The
/// conformance sweep in `goc-testkit` checks both halves mechanically.
///
/// # Examples
///
/// ```
/// use goc_core::prelude::*;
/// use goc_core::toy;
///
/// let goal = toy::MagicWordGoal::new("hi");
/// let universal = LevinUniversalUser::new(
///     Box::new(toy::caesar_class("hi", 8, false)),
///     Box::new(toy::ack_sensing()),
///     8,
/// );
/// let mut rng = GocRng::seed_from_u64(3);
/// let mut exec = Execution::new(
///     goal.spawn_world(&mut rng),
///     Box::new(toy::RelayServer::with_shift(6)),
///     Box::new(universal),
///     rng,
/// );
/// let t = exec.run(5_000);
/// assert!(evaluate_finite(&goal, &t).achieved);
/// ```
pub struct LevinUniversalUser {
    enumerator: Box<dyn StrategyEnumerator>,
    sensing: BoxedSensing,
    schedule: BudgetSchedule,
    current: BoxedUser,
    current_index: usize,
    budget_left: u64,
    halt: Option<Halt>,
    switches: Vec<SwitchRecord>,
    slots_used: u64,
    /// Speculatively pre-built `(index, budget, candidate)` slots, consumed
    /// strictly in schedule order (see [`LOOKAHEAD`]).
    lookahead: VecDeque<(usize, u64, BoxedUser)>,
    /// The *following* lookahead window, drawn from the schedule at the
    /// last refill and adopted in the same order at the next one. Drawing
    /// early is unobservable — the schedule is a pure iterator — and it is
    /// part of the snapshot layout.
    next_window: Option<Vec<(usize, u64)>>,
}

impl fmt::Debug for LevinUniversalUser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LevinUniversalUser")
            .field("enumerator", &self.enumerator.name())
            .field("sensing", &self.sensing.name())
            .field("current_index", &self.current_index)
            .field("budget_left", &self.budget_left)
            .field("slots_used", &self.slots_used)
            .finish()
    }
}

impl LevinUniversalUser {
    /// Builds the Levin universal user over `enumerator` with `sensing` and a
    /// per-slot base budget of `base` rounds.
    ///
    /// `base` should be at least the message round-trip latency of the system
    /// (in this library: 3 rounds user → server → world → user), otherwise
    /// the earliest phases are pure overhead.
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty or `base == 0`.
    pub fn new(
        enumerator: Box<dyn StrategyEnumerator>,
        sensing: BoxedSensing,
        base: u64,
    ) -> Self {
        let schedule = BudgetSchedule::levin(base, enumerator.len());
        Self::with_schedule(enumerator, sensing, schedule)
    }

    /// Builds the universal user with the round-robin-doubling schedule:
    /// for finite classes this replaces the classic 2^i-per-candidate
    /// overhead with an O(n)-per-pass overhead (see
    /// [`RoundRobinDoubling`](super::RoundRobinDoubling)).
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty or infinite, or `base == 0`.
    pub fn round_robin(
        enumerator: Box<dyn StrategyEnumerator>,
        sensing: BoxedSensing,
        base: u64,
    ) -> Self {
        let n = enumerator.len().expect("round_robin requires a finite class");
        let schedule = BudgetSchedule::round_robin(base, n);
        Self::with_schedule(enumerator, sensing, schedule)
    }

    /// Builds the universal user with an explicit budget schedule.
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is empty.
    pub fn with_schedule(
        enumerator: Box<dyn StrategyEnumerator>,
        sensing: BoxedSensing,
        schedule: BudgetSchedule,
    ) -> Self {
        assert!(!enumerator.is_empty(), "universal user needs a non-empty strategy class");
        let mut user = LevinUniversalUser {
            enumerator,
            sensing,
            schedule,
            current: Box::new(crate::strategy::SilentUser),
            current_index: 0,
            budget_left: 0,
            halt: None,
            switches: Vec::new(),
            slots_used: 0,
            lookahead: VecDeque::new(),
            next_window: None,
        };
        let (first, budget, candidate) = user.next_candidate();
        user.current = candidate;
        user.current_index = first;
        user.budget_left = budget;
        user
    }

    /// Index (in the enumeration) of the candidate currently running.
    pub fn current_index(&self) -> usize {
        self.current_index
    }

    /// Number of candidate switches (slot boundaries crossed).
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The full switch log (for the overhead experiments).
    pub fn switch_log(&self) -> &[SwitchRecord] {
        &self.switches
    }

    /// Number of schedule slots fully consumed.
    pub fn slots_used(&self) -> u64 {
        self.slots_used
    }

    /// Pops the next scheduled `(index, budget, candidate)`, refilling the
    /// speculative lookahead in one [`StrategyEnumerator::batch`] call when
    /// it runs dry. Construction is pure and results are consumed strictly
    /// in schedule order, so this is indistinguishable from building each
    /// candidate at its switch round.
    fn next_candidate(&mut self) -> (usize, u64, BoxedUser) {
        if self.lookahead.is_empty() {
            crate::obs_count!("universal.lookahead.refills", 1u64);
            let slots = match self.next_window.take() {
                Some(slots) => slots,
                None => self.draw_window(),
            };
            let indices: Vec<usize> = slots.iter().map(|&(i, _)| i).collect();
            for ((index, budget), candidate) in
                slots.into_iter().zip(self.enumerator.batch(&indices))
            {
                let candidate =
                    candidate.expect("schedule yielded an index outside the enumeration");
                self.lookahead.push_back((index, budget, candidate));
            }
            self.next_window = Some(self.draw_window());
        }
        self.lookahead.pop_front().expect("lookahead was just refilled")
    }

    /// Draws the next [`LOOKAHEAD`] `(index, budget)` slots from the schedule.
    fn draw_window(&mut self) -> Vec<(usize, u64)> {
        (0..LOOKAHEAD)
            .map(|_| self.schedule.next().expect("budget schedules are infinite"))
            .collect()
    }

    fn switch(&mut self, round: u64) {
        let (next, budget, fresh) = self.next_candidate();
        crate::obs_event!("universal.eliminate", self.current_index);
        crate::obs_event!("universal.spawn", next);
        crate::obs_count!("universal.switches", 1u64);
        self.switches.push(SwitchRecord {
            round,
            from_index: self.current_index,
            to_index: next,
        });
        self.current = fresh;
        self.current_index = next;
        self.budget_left = budget;
        self.slots_used += 1;
        self.sensing.reset();
    }
}

impl UserStrategy for LevinUniversalUser {
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        if self.halt.is_some() {
            return UserOut::silence();
        }
        if self.budget_left == 0 {
            self.switch(ctx.round);
        }
        let out = self.current.step(ctx, input);
        let event = ViewEvent { round: ctx.round, received: input.clone(), sent: out.clone() };
        let indication = self.sensing.observe(&event);
        self.budget_left = self.budget_left.saturating_sub(1);

        if indication.is_positive() {
            // Safe sensing says the history is acceptable: stop, adopting the
            // candidate's own verdict if it produced one.
            self.halt = Some(self.current.halted().unwrap_or_else(Halt::empty));
        } else if self.current.halted().is_some() {
            // The candidate gave up (halted) without confirmation; burn the
            // rest of its slot.
            self.budget_left = 0;
        }
        out
    }

    fn halted(&self) -> Option<Halt> {
        self.halt.clone()
    }

    fn name(&self) -> String {
        format!("levin-universal({})", self.enumerator.name())
    }

    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.schedule.encode(w);
        w.usize(self.current_index);
        w.str(&self.current.name());
        w.block(|w| self.current.save_snap(w))?;
        w.u64(self.budget_left);
        self.halt.encode(w);
        self.switches.encode(w);
        w.u64(self.slots_used);
        // Lookahead candidates are freshly built and never stepped, so
        // `(index, budget)` pairs suffice: restore rebuilds them through the
        // same pure `batch` call that built them originally.
        let slots: Vec<(usize, u64)> = self.lookahead.iter().map(|&(i, b, _)| (i, b)).collect();
        slots.encode(w);
        self.next_window.encode(w);
        w.block(|w| self.sensing.save_snap(w))
    }

    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.schedule = BudgetSchedule::decode(r)?;
        self.current_index = r.usize("levin current index")?;
        let saved_name = r.str("levin current name")?.to_string();
        let mut current = self
            .enumerator
            .strategy(self.current_index)
            .ok_or(SnapError::Malformed { context: "levin current index" })?;
        if current.name() != saved_name {
            return Err(SnapError::Mismatch {
                context: "levin current candidate",
                expected: current.name(),
                found: saved_name,
            });
        }
        let mut block = r.block("levin current block")?;
        current.restore_snap(&mut block)?;
        block.finish()?;
        self.current = current;
        self.budget_left = r.u64("levin budget")?;
        self.halt = Option::<Halt>::decode(r)?;
        self.switches = Vec::<SwitchRecord>::decode(r)?;
        self.slots_used = r.u64("levin slots used")?;
        let slots = Vec::<(usize, u64)>::decode(r)?;
        let indices: Vec<usize> = slots.iter().map(|&(i, _)| i).collect();
        self.lookahead.clear();
        for ((index, budget), candidate) in
            slots.into_iter().zip(self.enumerator.batch(&indices))
        {
            let candidate =
                candidate.ok_or(SnapError::Malformed { context: "levin lookahead index" })?;
            self.lookahead.push_back((index, budget, candidate));
        }
        self.next_window = Option::<Vec<(usize, u64)>>::decode(r)?;
        let mut block = r.block("levin sensing block")?;
        self.sensing.restore_snap(&mut block)?;
        block.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Execution;
    use crate::goal::{evaluate_finite, Goal};
    use crate::rng::GocRng;
    use crate::strategy::SilentServer;
    use crate::toy;

    fn universal(shifts: u8, base: u64) -> LevinUniversalUser {
        LevinUniversalUser::new(
            Box::new(toy::caesar_class("hi", shifts, false)),
            Box::new(toy::ack_sensing()),
            base,
        )
    }

    fn run_against(shift: u8, user: LevinUniversalUser, horizon: u64, seed: u64) -> crate::goal::FiniteVerdict {
        let goal = toy::MagicWordGoal::new("hi");
        let mut rng = GocRng::seed_from_u64(seed);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(shift)),
            Box::new(user),
            rng,
        );
        let t = exec.run(horizon);
        evaluate_finite(&goal, &t)
    }

    #[test]
    fn achieves_goal_with_every_server_in_class() {
        for shift in 0..8u8 {
            let v = run_against(shift, universal(8, 8), 20_000, 50 + shift as u64);
            assert!(v.achieved, "failed against shift {shift}: {v:?}");
        }
    }

    #[test]
    fn never_halts_with_unhelpful_server() {
        // SilentServer never relays, so the (safe) ack sensing never turns
        // positive: the Levin user must not halt — a false halt would break
        // safety of the construction.
        let goal = toy::MagicWordGoal::new("hi");
        let mut rng = GocRng::seed_from_u64(9);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(SilentServer),
            Box::new(universal(8, 8)),
            rng,
        );
        let t = exec.run(10_000);
        let v = evaluate_finite(&goal, &t);
        assert!(!v.halted);
        assert!(!v.achieved);
    }

    #[test]
    fn later_candidates_cost_exponentially_more() {
        // Rounds to success should grow roughly like 2^index of the correct
        // candidate: compare candidate 0 vs candidate 6.
        let fast = run_against(0, universal(8, 8), 40_000, 1);
        let slow = run_against(6, universal(8, 8), 40_000, 1);
        assert!(fast.achieved && slow.achieved);
        assert!(
            slow.rounds >= fast.rounds.saturating_mul(4),
            "expected Levin overhead: fast={} slow={}",
            fast.rounds,
            slow.rounds
        );
    }

    #[test]
    fn adopts_candidate_output_on_halt() {
        let v = run_against(2, universal(8, 8), 20_000, 3);
        assert!(v.achieved);
        // SayThrough halts with output "heard"; the universal user adopts it.
        let goal = toy::MagicWordGoal::new("hi");
        let mut rng = GocRng::seed_from_u64(3);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(2)),
            Box::new(universal(8, 8)),
            rng,
        );
        let t = exec.run(20_000);
        assert_eq!(t.halt().unwrap().output, crate::msg::Message::from("heard"));
    }

    #[test]
    fn slots_and_switches_are_recorded() {
        let mut u = universal(4, 2);
        let mut rng = GocRng::seed_from_u64(4);
        for round in 0..50 {
            let mut ctx = StepCtx::new(round, &mut rng);
            let _ = u.step(&mut ctx, &UserIn::default());
        }
        assert!(u.slots_used() > 0);
        assert_eq!(u.switch_count() as u64, u.slots_used());
        assert!(UserStrategy::halted(&u).is_none());
    }

    #[test]
    fn halts_immediately_on_instant_positive() {
        let mut u = LevinUniversalUser::new(
            Box::new(toy::caesar_class("hi", 2, false)),
            Box::new(crate::sensing::AlwaysPositive),
            4,
        );
        let mut rng = GocRng::seed_from_u64(5);
        let mut ctx = StepCtx::new(0, &mut rng);
        let _ = u.step(&mut ctx, &UserIn::default());
        assert!(UserStrategy::halted(&u).is_some());
        // Further steps are silent.
        let mut ctx = StepCtx::new(1, &mut rng);
        assert_eq!(u.step(&mut ctx, &UserIn::default()), UserOut::silence());
    }

    #[test]
    #[should_panic(expected = "non-empty class")]
    fn empty_class_panics() {
        let _ = LevinUniversalUser::new(
            Box::new(crate::enumeration::SliceEnumerator::new("empty")),
            Box::new(toy::ack_sensing()),
            4,
        );
    }

    #[test]
    fn debug_and_name() {
        let u = universal(4, 4);
        assert!(format!("{u:?}").contains("LevinUniversalUser"));
        assert!(u.name().contains("levin-universal"));
    }

    #[test]
    fn snapshot_resumes_bit_identically() {
        let mut live = universal(8, 4);
        let mut rng = GocRng::seed_from_u64(21);
        for round in 0..57 {
            let mut ctx = StepCtx::new(round, &mut rng);
            let _ = live.step(&mut ctx, &UserIn::default());
        }
        let mut bytes = Vec::new();
        live.save_snap(&mut crate::snap::SnapWriter::new(&mut bytes)).unwrap();

        let mut restored = universal(8, 4);
        let mut r = crate::snap::SnapReader::new(&bytes);
        restored.restore_snap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.current_index(), live.current_index());
        assert_eq!(restored.slots_used(), live.slots_used());

        let mut rng2 = rng.clone();
        for round in 57..250 {
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

    #[test]
    fn snapshot_restore_rejects_wrong_class() {
        let mut live = universal(8, 4);
        let mut rng = GocRng::seed_from_u64(22);
        for round in 0..20 {
            let mut ctx = StepCtx::new(round, &mut rng);
            let _ = live.step(&mut ctx, &UserIn::default());
        }
        let mut bytes = Vec::new();
        live.save_snap(&mut crate::snap::SnapWriter::new(&mut bytes)).unwrap();
        // A skeleton over a different phrase has different candidate names.
        let mut wrong = LevinUniversalUser::new(
            Box::new(toy::caesar_class("yo", 8, false)),
            Box::new(toy::ack_sensing()),
            4,
        );
        let mut r = crate::snap::SnapReader::new(&bytes);
        assert!(matches!(
            wrong.restore_snap(&mut r),
            Err(crate::snap::SnapError::Mismatch { .. })
        ));
    }
}
